#include "exp/scenario.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>

#include "fault/injector.hpp"
#include "nws/rescheduler.hpp"
#include "sched/route_advisor.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace lsl::exp {

namespace {

/// Split a line into whitespace-separated tokens.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string token;
  while (is >> token) {
    tokens.push_back(token);
  }
  return tokens;
}

/// Parse "key=value" into its parts; returns false when '=' is absent.
bool split_kv(const std::string& token, std::string& key,
              std::string& value) {
  const auto eq = token.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 == token.size()) {
    return false;
  }
  key = token.substr(0, eq);
  value = token.substr(eq + 1);
  return true;
}

bool parse_double(const std::string& s, double& out) {
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end != nullptr && *end == '\0';
}

std::string err_at(std::size_t line_no, const std::string& message) {
  return "line " + std::to_string(line_no) + ": " + message;
}

/// Named link presets (see the format comment in scenario.hpp). Later
/// key=value attributes on the same line override preset values.
bool apply_link_preset(const std::string& name, net::LinkConfig& config) {
  if (name == "wan2004") {
    // The paper's era: OC-3 WAN path with early-2000s loss.
    config.rate = Bandwidth::mbps(155);
    config.propagation_delay = SimTime::from_seconds(23e-3);
    config.queue_capacity_bytes = 8192 * kKiB;
    config.loss_rate = 5e-4;
  } else if (name == "wan10g") {
    // Lossy high-BDP long-haul (intercontinental RTT): past the CUBIC
    // crossover RTT of ~57 ms at this loss, so its response function beats
    // Reno's by ~1.8x.
    config.rate = Bandwidth::mbps(10000);
    config.propagation_delay = SimTime::from_seconds(80e-3);
    config.queue_capacity_bytes = 32768 * kKiB;
    config.loss_rate = 1e-4;
  } else if (name == "metro10g") {
    // Intra-metro 10 Gbit/s: ms-scale RTT, clean fiber.
    config.rate = Bandwidth::mbps(10000);
    config.propagation_delay = SimTime::from_seconds(1e-3);
    config.queue_capacity_bytes = 4096 * kKiB;
    config.loss_rate = 1e-5;
  } else if (name == "metro100g") {
    config.rate = Bandwidth::mbps(100000);
    config.propagation_delay = SimTime::from_seconds(1e-3);
    config.queue_capacity_bytes = 32768 * kKiB;
    config.loss_rate = 1e-6;
  } else {
    return false;
  }
  return true;
}

}  // namespace

ParseResult parse_scenario(const std::string& text) {
  Scenario scenario;
  std::map<std::string, bool> host_names;

  std::istringstream input(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(input, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    const auto tokens = tokenize(line);
    if (tokens.empty()) {
      continue;
    }
    const std::string& directive = tokens[0];

    if (directive == "host") {
      if (tokens.size() < 2 || tokens.size() > 3) {
        return {std::nullopt, err_at(line_no, "host <name> [site]")};
      }
      ScenarioHost host;
      host.name = tokens[1];
      host.site = tokens.size() == 3 ? tokens[2] : tokens[1];
      if (host_names.contains(host.name)) {
        return {std::nullopt,
                err_at(line_no, "duplicate host '" + host.name + "'")};
      }
      host_names[host.name] = true;
      scenario.hosts.push_back(std::move(host));
      continue;
    }

    if (directive == "link") {
      if (tokens.size() < 3) {
        return {std::nullopt,
                err_at(line_no, "link <a> <b> [key=value...]")};
      }
      ScenarioLink link;
      link.a = tokens[1];
      link.b = tokens[2];
      for (const std::string& host : {link.a, link.b}) {
        if (!host_names.contains(host)) {
          return {std::nullopt,
                  err_at(line_no, "unknown host '" + host + "'")};
        }
      }
      for (std::size_t t = 3; t < tokens.size(); ++t) {
        std::string key;
        std::string value;
        double number = 0.0;
        if (!split_kv(tokens[t], key, value)) {
          return {std::nullopt,
                  err_at(line_no, "bad attribute '" + tokens[t] + "'")};
        }
        if (key == "preset") {
          if (!apply_link_preset(value, link.config)) {
            return {std::nullopt,
                    err_at(line_no, "unknown link preset '" + value + "'")};
          }
          continue;
        }
        if (!parse_double(value, number)) {
          return {std::nullopt,
                  err_at(line_no, "bad attribute '" + tokens[t] + "'")};
        }
        if (key == "rate") {
          link.config.rate = Bandwidth::mbps(number);
        } else if (key == "delay") {
          link.config.propagation_delay =
              SimTime::from_seconds(number * 1e-3);
        } else if (key == "queue") {
          link.config.queue_capacity_bytes =
              static_cast<std::uint64_t>(number * 1024);
        } else if (key == "loss") {
          link.config.loss_rate = number;
        } else {
          return {std::nullopt,
                  err_at(line_no, "unknown link attribute '" + key + "'")};
        }
      }
      scenario.links.push_back(std::move(link));
      continue;
    }

    if (directive == "depot") {
      for (std::size_t t = 1; t < tokens.size(); ++t) {
        std::string key;
        std::string value;
        double number = 0.0;
        if (!split_kv(tokens[t], key, value) ||
            !parse_double(value, number)) {
          return {std::nullopt,
                  err_at(line_no, "bad attribute '" + tokens[t] + "'")};
        }
        if (key == "buffers") {
          scenario.depot.tcp = scenario.depot.tcp.with_buffers(
              static_cast<std::uint64_t>(number * 1024));
        } else if (key == "user") {
          scenario.depot.user_buffer_bytes =
              static_cast<std::uint64_t>(number * 1024);
        } else if (key == "max_sessions") {
          scenario.depot.max_sessions = static_cast<std::size_t>(number);
        } else {
          return {std::nullopt,
                  err_at(line_no, "unknown depot attribute '" + key + "'")};
        }
      }
      continue;
    }

    if (directive == "pin") {
      if (tokens.size() != 3) {
        return {std::nullopt, err_at(line_no, "pin <a> <b>")};
      }
      for (const std::string& host : {tokens[1], tokens[2]}) {
        if (!host_names.contains(host)) {
          return {std::nullopt,
                  err_at(line_no, "unknown host '" + host + "'")};
        }
      }
      scenario.pins.push_back(ScenarioPin{tokens[1], tokens[2]});
      continue;
    }

    if (directive == "fault") {
      if (tokens.size() < 2) {
        return {std::nullopt,
                err_at(line_no, "fault <kind> [hosts...] at=<s> ...")};
      }
      ScenarioFault f;
      const std::string& kind = tokens[1];
      std::size_t attr_start = 0;
      if (kind == "link-down" || kind == "brownout") {
        f.kind = kind == "brownout" ? fault::FaultKind::kLinkBrownout
                                    : fault::FaultKind::kLinkDown;
        if (tokens.size() < 4) {
          return {std::nullopt,
                  err_at(line_no, "fault " + kind + " <a> <b> at=<s> ...")};
        }
        f.a = tokens[2];
        f.b = tokens[3];
        for (const std::string& host : {f.a, f.b}) {
          if (!host_names.contains(host)) {
            return {std::nullopt,
                    err_at(line_no, "unknown host '" + host + "'")};
          }
        }
        attr_start = 4;
      } else if (kind == "depot-crash") {
        f.kind = fault::FaultKind::kDepotCrash;
        if (tokens.size() < 3) {
          return {std::nullopt,
                  err_at(line_no, "fault depot-crash <host> at=<s> ...")};
        }
        f.a = tokens[2];
        if (!host_names.contains(f.a)) {
          return {std::nullopt,
                  err_at(line_no, "unknown host '" + f.a + "'")};
        }
        attr_start = 3;
      } else if (kind == "nws-blackout") {
        f.kind = fault::FaultKind::kNwsBlackout;
        attr_start = 2;
      } else {
        return {std::nullopt,
                err_at(line_no, "unknown fault kind '" + kind + "'")};
      }
      bool have_at = false;
      for (std::size_t t = attr_start; t < tokens.size(); ++t) {
        std::string key;
        std::string value;
        double number = 0.0;
        if (!split_kv(tokens[t], key, value) ||
            !parse_double(value, number)) {
          return {std::nullopt,
                  err_at(line_no, "bad attribute '" + tokens[t] + "'")};
        }
        if (key == "at") {
          f.at_s = number;
          have_at = true;
        } else if (key == "for") {
          f.for_s = number;
        } else if (key == "loss" &&
                   f.kind == fault::FaultKind::kLinkBrownout) {
          f.loss = number;
        } else if (key == "factor" &&
                   f.kind == fault::FaultKind::kLinkBrownout) {
          if (number <= 0.0 || number > 1.0) {
            return {std::nullopt,
                    err_at(line_no, "brownout factor must be in (0, 1]")};
          }
          f.rate_factor = number;
        } else {
          return {std::nullopt,
                  err_at(line_no, "unknown fault attribute '" + key + "'")};
        }
      }
      if (!have_at) {
        return {std::nullopt, err_at(line_no, "fault needs at=<s>")};
      }
      scenario.faults.push_back(std::move(f));
      continue;
    }

    if (directive == "churn") {
      if (tokens.size() < 2) {
        return {std::nullopt,
                err_at(line_no, "churn <host> [mtbf=<s> mttr=<s> ...]")};
      }
      ScenarioChurn churn;
      churn.node = tokens[1];
      if (!host_names.contains(churn.node)) {
        return {std::nullopt,
                err_at(line_no, "unknown host '" + churn.node + "'")};
      }
      for (std::size_t t = 2; t < tokens.size(); ++t) {
        std::string key;
        std::string value;
        double number = 0.0;
        if (!split_kv(tokens[t], key, value) ||
            !parse_double(value, number)) {
          return {std::nullopt,
                  err_at(line_no, "bad attribute '" + tokens[t] + "'")};
        }
        if (key == "mtbf") {
          churn.mtbf_s = number;
        } else if (key == "mttr") {
          churn.mttr_s = number;
        } else if (key == "start") {
          churn.start_s = number;
        } else if (key == "horizon") {
          churn.horizon_s = number;
        } else {
          return {std::nullopt,
                  err_at(line_no, "unknown churn attribute '" + key + "'")};
        }
      }
      if (churn.mtbf_s <= 0.0 || churn.mttr_s <= 0.0) {
        return {std::nullopt,
                err_at(line_no, "churn needs positive mtbf and mttr")};
      }
      scenario.churns.push_back(std::move(churn));
      continue;
    }

    if (directive == "recovery") {
      session::RecoveryConfig config;
      for (std::size_t t = 1; t < tokens.size(); ++t) {
        if (tokens[t] == "off") {
          config.enabled = false;
          continue;
        }
        std::string key;
        std::string value;
        double number = 0.0;
        if (!split_kv(tokens[t], key, value) ||
            !parse_double(value, number)) {
          return {std::nullopt,
                  err_at(line_no, "bad attribute '" + tokens[t] + "'")};
        }
        if (key == "retries") {
          config.max_retries = static_cast<int>(number);
        } else if (key == "stall") {
          config.stall_timeout = SimTime::from_seconds(number);
        } else if (key == "backoff") {
          config.initial_backoff = SimTime::from_seconds(number * 1e-3);
        } else if (key == "max_backoff") {
          config.max_backoff = SimTime::from_seconds(number * 1e-3);
        } else if (key == "jitter") {
          config.backoff_jitter = number;
        } else {
          return {std::nullopt,
                  err_at(line_no,
                         "unknown recovery attribute '" + key + "'")};
        }
      }
      scenario.recovery = config;
      continue;
    }

    if (directive == "reroute") {
      ScenarioReroute reroute;
      for (std::size_t t = 1; t < tokens.size(); ++t) {
        std::string key;
        std::string value;
        double number = 0.0;
        if (!split_kv(tokens[t], key, value) ||
            !parse_double(value, number)) {
          return {std::nullopt,
                  err_at(line_no, "bad attribute '" + tokens[t] + "'")};
        }
        if (key == "interval") {
          reroute.interval_s = number;
        } else if (key == "hysteresis") {
          reroute.hysteresis = number;
        } else if (key == "dwell") {
          reroute.dwell_s = number;
        } else if (key == "penalty") {
          reroute.penalty_s = number;
        } else if (key == "sigma") {
          reroute.sigma = number;
        } else if (key == "epsilon") {
          reroute.epsilon = number;
        } else {
          return {std::nullopt,
                  err_at(line_no,
                         "unknown reroute attribute '" + key + "'")};
        }
      }
      if (reroute.interval_s <= 0.0) {
        return {std::nullopt,
                err_at(line_no, "reroute needs positive interval")};
      }
      scenario.reroute = reroute;
      continue;
    }

    if (directive == "transfer") {
      if (tokens.size() < 3) {
        return {std::nullopt,
                err_at(line_no, "transfer <src> <dst> [key=value...]")};
      }
      ScenarioTransfer transfer;
      transfer.src = tokens[1];
      transfer.dst = tokens[2];
      for (const std::string& host : {transfer.src, transfer.dst}) {
        if (!host_names.contains(host)) {
          return {std::nullopt,
                  err_at(line_no, "unknown host '" + host + "'")};
        }
      }
      for (std::size_t t = 3; t < tokens.size(); ++t) {
        std::string key;
        std::string value;
        if (!split_kv(tokens[t], key, value)) {
          return {std::nullopt,
                  err_at(line_no, "bad attribute '" + tokens[t] + "'")};
        }
        if (key == "via") {
          std::istringstream hops(value);
          std::string hop;
          while (std::getline(hops, hop, ',')) {
            if (!host_names.contains(hop)) {
              return {std::nullopt,
                      err_at(line_no, "unknown via host '" + hop + "'")};
            }
            transfer.via.push_back(hop);
          }
        } else {
          double number = 0.0;
          if (!parse_double(value, number)) {
            return {std::nullopt,
                    err_at(line_no, "bad attribute '" + tokens[t] + "'")};
          }
          if (key == "size") {
            transfer.bytes = static_cast<std::uint64_t>(number * kMiB);
          } else if (key == "buffers") {
            transfer.buffer_bytes =
                static_cast<std::uint64_t>(number * 1024);
          } else {
            return {std::nullopt,
                    err_at(line_no,
                           "unknown transfer attribute '" + key + "'")};
          }
        }
      }
      if (transfer.bytes == 0) {
        return {std::nullopt, err_at(line_no, "transfer needs size=<MiB>")};
      }
      scenario.transfers.push_back(std::move(transfer));
      continue;
    }

    if (directive == "pool") {
      ScenarioPool pool;
      for (std::size_t t = 1; t < tokens.size(); ++t) {
        std::string key;
        std::string value;
        double number = 0.0;
        if (!split_kv(tokens[t], key, value) ||
            !parse_double(value, number)) {
          return {std::nullopt,
                  err_at(line_no, "bad attribute '" + tokens[t] + "'")};
        }
        if (key == "size") {
          pool.size = static_cast<std::size_t>(number);
        } else if (key == "epsilon") {
          pool.epsilon = number;
        } else if (key == "iterations") {
          pool.iterations = static_cast<std::size_t>(number);
        } else if (key == "cases") {
          pool.max_cases = static_cast<std::size_t>(number);
        } else if (key == "sizes") {
          pool.max_size_exp = static_cast<int>(number);
        } else if (key == "drift") {
          pool.drift_sigma = number;
        } else {
          return {std::nullopt,
                  err_at(line_no, "unknown pool attribute '" + key + "'")};
        }
      }
      if (pool.size < 2) {
        return {std::nullopt, err_at(line_no, "pool needs size >= 2")};
      }
      scenario.pool = pool;
      continue;
    }

    if (directive == "cca") {
      if (tokens.size() != 2) {
        return {std::nullopt,
                err_at(line_no, "cca needs one of reno|newreno|cubic|bbr")};
      }
      flow::Cca cca;
      if (!flow::parse_cca(tokens[1], cca)) {
        return {std::nullopt,
                err_at(line_no, "unknown cca '" + tokens[1] +
                                    "' (reno|newreno|cubic|bbr)")};
      }
      scenario.cca = cca;
      continue;
    }

    if (directive == "fidelity") {
      if (tokens.size() != 2) {
        return {std::nullopt,
                err_at(line_no, "fidelity needs exactly one of packet|flow")};
      }
      if (tokens[1] == "packet") {
        scenario.fidelity = Fidelity::kPacket;
      } else if (tokens[1] == "flow") {
        scenario.fidelity = Fidelity::kFlow;
      } else {
        return {std::nullopt,
                err_at(line_no,
                       "unknown fidelity '" + tokens[1] + "' (packet|flow)")};
      }
      continue;
    }

    return {std::nullopt,
            err_at(line_no, "unknown directive '" + directive + "'")};
  }

  // A pool scenario synthesizes its own grid; it needs no explicit topology.
  if (!scenario.pool.has_value()) {
    if (scenario.hosts.size() < 2) {
      return {std::nullopt, "scenario needs at least two hosts"};
    }
    if (scenario.links.empty()) {
      return {std::nullopt, "scenario has no links"};
    }
  }
  return {std::move(scenario), {}};
}

nws::TruthFn topology_truth(net::Topology& topology) {
  return [&topology](std::size_t from, std::size_t to) -> Bandwidth {
    if (from == to) {
      return Bandwidth::mbps(0);
    }
    // Walk the forwarding tables, bottlenecking on each hop's effective
    // rate. route_for yields the outgoing link; the next node is the
    // neighbour that link reaches.
    double bottleneck_bps = std::numeric_limits<double>::infinity();
    net::NodeId cur = static_cast<net::NodeId>(from);
    const net::NodeId dst = static_cast<net::NodeId>(to);
    for (std::size_t hops = 0; cur != dst; ++hops) {
      if (hops >= topology.node_count()) {
        return Bandwidth::bps(0);  // forwarding loop; treat as unreachable
      }
      net::Link* out = topology.node(cur).route_for(dst);
      if (out == nullptr) {
        return Bandwidth::bps(0);
      }
      const net::LinkConfig& config = out->config();
      bottleneck_bps =
          std::min(bottleneck_bps, config.rate.bits_per_second() *
                                       (1.0 - config.loss_rate));
      net::NodeId next = net::kInvalidNode;
      for (net::NodeId candidate = 0; candidate < topology.node_count();
           ++candidate) {
        if (candidate != cur &&
            topology.link_between(cur, candidate) == out) {
          next = candidate;
          break;
        }
      }
      if (next == net::kInvalidNode) {
        return Bandwidth::bps(0);
      }
      cur = next;
    }
    return Bandwidth::bps(std::max(bottleneck_bps, 0.0));
  };
}

std::vector<ScenarioOutcome> run_scenario(
    const Scenario& scenario, std::uint64_t seed,
    SimTime per_transfer_deadline, sim::KernelProfile* profile_out,
    std::size_t* leaked_connections_out,
    const std::function<void(SimHarness&)>& on_harness) {
  SimHarness harness(seed,
                     scenario.fidelity.value_or(Fidelity::kPacket));
  if (on_harness) {
    on_harness(harness);
  }
  if (profile_out != nullptr) {
    harness.simulator().set_profiling(true);
  }
  std::map<std::string, net::NodeId> ids;
  for (const auto& host : scenario.hosts) {
    ids[host.name] = harness.add_host(host.name, host.site);
  }
  for (const auto& link : scenario.links) {
    harness.add_link(ids.at(link.a), ids.at(link.b), link.config);
  }
  // A `cca` directive applies to every TCP endpoint: transfers below, and
  // the depot relays' store-and-forward hops here.
  session::DepotConfig depot = scenario.depot;
  if (scenario.cca.has_value()) {
    depot.tcp = depot.tcp.with_cca(*scenario.cca);
  }
  harness.deploy(depot);
  auto& topo = harness.topology();
  for (const auto& pin : scenario.pins) {
    const auto a = ids.at(pin.a);
    const auto b = ids.at(pin.b);
    net::Link* forward = topo.link_between(a, b);
    net::Link* backward = topo.link_between(b, a);
    LSL_ASSERT_MSG(forward != nullptr && backward != nullptr,
                   "pin requires a direct link between the pair");
    topo.node(a).set_route(b, forward);
    topo.node(b).set_route(a, backward);
  }

  // Faults: resolve host names, expand churn processes (seeded from the run
  // seed so reruns replay bit-for-bit), and schedule the plan.
  const bool faulty = !scenario.faults.empty() || !scenario.churns.empty();
  fault::FaultInjector injector(harness.simulator(), topo);
  if (faulty) {
    injector.set_depot_control([&harness](net::NodeId node, bool up) {
      if (up) {
        harness.depot(node).restart();
      } else {
        harness.depot(node).shutdown();
      }
    });
    fault::FaultPlan plan;
    for (const auto& f : scenario.faults) {
      fault::FaultSpec spec;
      spec.kind = f.kind;
      spec.at = SimTime::from_seconds(f.at_s);
      spec.duration = SimTime::from_seconds(f.for_s);
      spec.loss = f.loss;
      spec.rate_factor = f.rate_factor;
      if (f.kind == fault::FaultKind::kDepotCrash) {
        spec.node = ids.at(f.a);
      } else if (f.kind != fault::FaultKind::kNwsBlackout) {
        spec.link_a = ids.at(f.a);
        spec.link_b = ids.at(f.b);
      }
      plan.add(spec);
    }
    Rng churn_rng(seed ^ 0x9E3779B97F4A7C15ULL);
    for (const auto& c : scenario.churns) {
      fault::ChurnSpec churn;
      churn.node = ids.at(c.node);
      churn.mtbf = SimTime::from_seconds(c.mtbf_s);
      churn.mttr = SimTime::from_seconds(c.mttr_s);
      churn.start = SimTime::from_seconds(c.start_s);
      churn.horizon = SimTime::from_seconds(c.horizon_s);
      plan.add_churn(churn, churn_rng);
    }
    injector.schedule(plan);
  }

  // Mid-transfer adaptive rerouting: an NWS measure -> schedule loop plus a
  // RouteAdvisor that may hand live transfers over to better paths. The
  // monitor's ground truth is the packet topology itself, so injected link
  // faults (rate brownouts especially) drift the forecasts that drive it.
  std::unique_ptr<sched::RouteAdvisor> advisor;
  std::unique_ptr<nws::Rescheduler> rescheduler;
  if (scenario.reroute.has_value()) {
    const ScenarioReroute& rr = *scenario.reroute;
    std::vector<std::string> sites;
    sites.reserve(scenario.hosts.size());
    for (const auto& host : scenario.hosts) {
      sites.push_back(host.site);
    }
    sched::RouteAdvisorConfig advisor_config;
    advisor_config.hysteresis = rr.hysteresis;
    advisor_config.min_dwell = SimTime::from_seconds(rr.dwell_s);
    advisor_config.switch_penalty = SimTime::from_seconds(rr.penalty_s);
    advisor = std::make_unique<sched::RouteAdvisor>(advisor_config);
    nws::NoiseModel noise;
    noise.lognormal_sigma = rr.sigma;
    sched::SchedulerOptions options;
    options.epsilon = rr.epsilon;
    rescheduler = std::make_unique<nws::Rescheduler>(
        harness.simulator(),
        nws::PerformanceMonitor(std::move(sites), noise,
                                seed ^ 0xC2B2AE3D27D4EB4FULL),
        topology_truth(topo), SimTime::from_seconds(rr.interval_s),
        options, [&advisor, &harness](const sched::Scheduler& scheduler) {
          advisor->on_schedule(scheduler, harness.simulator().now());
        });
    injector.set_nws_control([&rescheduler](bool blackout) {
      rescheduler->monitor().set_blackout(blackout);
    });
    rescheduler->start();
  }

  // Any fault (or the reroute loop) routes transfers through the recovery
  // loop so failures are detected and reported instead of hanging to the
  // deadline -- and so planned handovers have the resume machinery to ride;
  // retries happen only when the scenario opted in with `recovery`.
  const bool reliably =
      scenario.recovery.has_value() || faulty || scenario.reroute.has_value();
  session::RecoveryConfig recovery;
  if (scenario.recovery.has_value()) {
    recovery = *scenario.recovery;
  } else {
    recovery.enabled = false;
  }

  std::vector<ScenarioOutcome> outcomes;
  for (const auto& transfer : scenario.transfers) {
    session::TransferSpec spec;
    spec.dst = ids.at(transfer.dst);
    for (const auto& hop : transfer.via) {
      spec.via.push_back(ids.at(hop));
    }
    spec.payload_bytes = transfer.bytes;
    spec.tcp = tcp::TcpOptions{}.with_buffers(transfer.buffer_bytes);
    if (scenario.cca.has_value()) {
      spec.tcp = spec.tcp.with_cca(*scenario.cca);
    }
    ScenarioOutcome record;
    record.transfer = transfer;
    const SimTime deadline =
        harness.simulator().now() + per_transfer_deadline;
    if (reliably) {
      const auto handle =
          harness.launch_reliable(ids.at(transfer.src), spec, recovery);
      std::uint64_t watch_token = 0;
      if (advisor != nullptr) {
        const session::ReliableTransfer::Ptr rt = harness.reliable(handle);
        const net::NodeId src_id = ids.at(transfer.src);
        const net::NodeId dst_id = spec.dst;
        const std::uint64_t total = spec.payload_bytes;
        watch_token = advisor->watch(
            harness.simulator().now(),
            [rt, src_id, dst_id, total] {
              sched::SessionView view;
              view.src = src_id;
              view.dst = dst_id;
              view.session_tag = session::SessionIdHash{}(rt->session_id());
              view.current_via = rt->current_via();
              view.blacklist = rt->blacklist();
              // Zero remaining bytes = skip this tick: done, draining
              // elsewhere, or the source already finished sending.
              view.remaining_bytes =
                  rt->reroutable() ? total - rt->committed_offset() : 0;
              return view;
            },
            [rt](const sched::RouteAdvice& advice) {
              return rt->reroute_to(advice.new_via);
            });
      }
      record.outcome = harness.wait(handle, deadline);
      if (advisor != nullptr) {
        advisor->unwatch(watch_token);
      }
      // Drain connection teardown so back-to-back transfers start clean.
      harness.simulator().run(harness.simulator().now() +
                              SimTime::seconds(2));
    } else {
      record.outcome =
          harness.run_transfer(ids.at(transfer.src), spec, deadline);
    }
    outcomes.push_back(std::move(record));
  }
  if (rescheduler != nullptr) {
    rescheduler->stop();
  }
  if (leaked_connections_out != nullptr) {
    // TIME_WAIT linger is 500 ms; anything alive after this drain leaked.
    harness.simulator().run(harness.simulator().now() + SimTime::seconds(5));
    *leaked_connections_out = harness.open_connection_count();
    if (*leaked_connections_out > 0) {
      for (net::NodeId id = 0; id < harness.host_count(); ++id) {
        harness.stack(id).for_each_connection([id](tcp::Connection& conn) {
          LSL_WARN("leaked connection on node %u: %s", id,
                   conn.debug_string().c_str());
        });
      }
    }
  }
  if (profile_out != nullptr) {
    *profile_out = harness.simulator().profile();
  }
  return outcomes;
}

}  // namespace lsl::exp
