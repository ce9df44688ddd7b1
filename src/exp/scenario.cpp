#include "exp/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <span>
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

/// Parses the whole of `s` as a finite number ("nan" and "inf" fail).
bool parse_double(const std::string& s, double& out) {
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end != nullptr && *end == '\0' && std::isfinite(out);
}

/// The largest number an attribute takes: it keeps every value, scaled to
/// its unit (bytes, nanoseconds), inside the integer type it is stored in.
constexpr double kMaxNumber = 1e9;

/// The values a numeric attribute accepts (see the format comment in
/// scenario.hpp).
enum class Range {
  kPositive,     ///< > 0: rates, sizes, buffers, queues, counts, timeouts
  kNonNegative,  ///< >= 0: delays, times, noise, damping
  kProbability,  ///< in [0, 1]
  kFraction,     ///< in (0, 1]: a residual-rate factor
};

bool in_range(double v, Range range) {
  switch (range) {
    case Range::kPositive:
      return v > 0.0;
    case Range::kNonNegative:
      return v >= 0.0;
    case Range::kProbability:
      return v >= 0.0 && v <= 1.0;
    case Range::kFraction:
      return v > 0.0 && v <= 1.0;
  }
  return false;
}

const char* describe(Range range) {
  switch (range) {
    case Range::kPositive:
      return "positive";
    case Range::kNonNegative:
      return "non-negative";
    case Range::kProbability:
      return "in [0, 1]";
    case Range::kFraction:
      return "in (0, 1]";
  }
  return "";
}

/// One key=value attribute a directive accepts. A numeric attribute's
/// value is parsed, checked against its range and handed to `number`; a
/// text attribute's raw value goes to `text`, which returns an error
/// message, or "" when it took the value.
struct Attribute {
  std::string key;
  Range range = Range::kPositive;
  std::function<void(double)> number;
  std::function<std::string(const std::string&)> text;
  /// Replaces the generic "<directive> <key> must be <range>" message.
  std::string range_error;
};

Attribute numeric(std::string key, Range range,
                  std::function<void(double)> set,
                  std::string range_error = {}) {
  return {std::move(key), range, std::move(set), nullptr,
          std::move(range_error)};
}

Attribute textual(std::string key,
                  std::function<std::string(const std::string&)> set) {
  return {std::move(key), Range::kPositive, nullptr, std::move(set), {}};
}

/// Applies every token as a key=value attribute of `directive`. Returns
/// the first error, or "" when every token was taken.
std::string apply_attributes(std::span<const std::string> tokens,
                             const std::string& directive,
                             const std::vector<Attribute>& attributes) {
  for (const std::string& token : tokens) {
    std::string key;
    std::string value;
    if (!split_kv(token, key, value)) {
      return "bad attribute '" + token + "'";
    }
    const auto it = std::find_if(
        attributes.begin(), attributes.end(),
        [&](const Attribute& a) { return a.key == key; });
    if (it != attributes.end() && it->text) {
      if (std::string error = it->text(value); !error.empty()) {
        return error;
      }
      continue;
    }
    double v = 0.0;
    if (!parse_double(value, v)) {
      return "bad attribute '" + token + "'";
    }
    if (it == attributes.end()) {
      return "unknown " + directive + " attribute '" + key + "'";
    }
    if (v > kMaxNumber) {
      return directive + " " + key + " must be at most 1e9";
    }
    if (!in_range(v, it->range)) {
      return it->range_error.empty()
                 ? directive + " " + key + " must be " + describe(it->range)
                 : it->range_error;
    }
    it->number(v);
  }
  return {};
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
  // A host's NodeId is its declaration index, the id run_scenario's harness
  // gives it; every host reference resolves through here.
  std::map<std::string, net::NodeId> host_ids;
  /// Resolves `names`, in order, into the NodeIds `ids` point at. Returns
  /// "unknown <what> '<name>'" for the first undeclared name, else "".
  const auto resolve = [&host_ids](std::span<const std::string> names,
                                   std::initializer_list<net::NodeId*> ids,
                                   const std::string& what = "host") {
    LSL_ASSERT(names.size() >= ids.size());
    auto name = names.begin();
    for (net::NodeId* id : ids) {
      const auto it = host_ids.find(*name);
      if (it == host_ids.end()) {
        return "unknown " + what + " '" + *name + "'";
      }
      *id = it->second;
      ++name;
    }
    return std::string();
  };
  // Pins and link faults act on a declared link, which may come later in
  // the file: each is checked once every line is read.
  struct LinkReference {
    std::size_t line_no;
    std::string directive;
    net::NodeId a;
    net::NodeId b;
  };
  std::vector<LinkReference> link_references;

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
      if (host_ids.contains(host.name)) {
        return {std::nullopt,
                err_at(line_no, "duplicate host '" + host.name + "'")};
      }
      host_ids[host.name] = static_cast<net::NodeId>(scenario.hosts.size());
      scenario.hosts.push_back(std::move(host));
      continue;
    }

    if (directive == "link") {
      if (tokens.size() < 3) {
        return {std::nullopt,
                err_at(line_no, "link <a> <b> [key=value...]")};
      }
      ScenarioLink link;
      if (const std::string error =
              resolve(std::span(tokens).subspan(1), {&link.a, &link.b});
          !error.empty()) {
        return {std::nullopt, err_at(line_no, error)};
      }
      net::LinkConfig& config = link.config;
      const std::string error = apply_attributes(
          std::span(tokens).subspan(3), "link",
          {textual("preset",
                   [&](const std::string& v) -> std::string {
                     if (apply_link_preset(v, config)) {
                       return {};
                     }
                     return "unknown link preset '" + v + "'";
                   }),
           numeric("rate", Range::kPositive,
                   [&](double v) { config.rate = Bandwidth::mbps(v); }),
           numeric("delay", Range::kNonNegative,
                   [&](double v) {
                     config.propagation_delay = SimTime::from_seconds(v * 1e-3);
                   }),
           numeric("queue", Range::kPositive,
                   [&](double v) {
                     config.queue_capacity_bytes =
                         static_cast<std::uint64_t>(v * 1024);
                   }),
           numeric("loss", Range::kProbability,
                   [&](double v) { config.loss_rate = v; })});
      if (!error.empty()) {
        return {std::nullopt, err_at(line_no, error)};
      }
      scenario.links.push_back(std::move(link));
      continue;
    }

    if (directive == "depot") {
      session::DepotConfig& depot = scenario.depot;
      const std::string error = apply_attributes(
          std::span(tokens).subspan(1), "depot",
          {numeric("buffers", Range::kPositive,
                   [&](double v) {
                     depot.tcp = depot.tcp.with_buffers(
                         static_cast<std::uint64_t>(v * 1024));
                   }),
           numeric("user", Range::kPositive,
                   [&](double v) {
                     depot.user_buffer_bytes =
                         static_cast<std::uint64_t>(v * 1024);
                   }),
           numeric("max_sessions", Range::kPositive, [&](double v) {
             depot.max_sessions = static_cast<std::size_t>(v);
           })});
      if (!error.empty()) {
        return {std::nullopt, err_at(line_no, error)};
      }
      continue;
    }

    if (directive == "pin") {
      if (tokens.size() != 3) {
        return {std::nullopt, err_at(line_no, "pin <a> <b>")};
      }
      auto& [a, b] = scenario.pins.emplace_back();
      if (const std::string error =
              resolve(std::span(tokens).subspan(1), {&a, &b});
          !error.empty()) {
        return {std::nullopt, err_at(line_no, error)};
      }
      link_references.push_back({line_no, "pin", a, b});
      continue;
    }

    if (directive == "fault") {
      if (tokens.size() < 2) {
        return {std::nullopt,
                err_at(line_no, "fault <kind> [hosts...] at=<s> ...")};
      }
      fault::FaultSpec f;
      const std::string& kind = tokens[1];
      std::size_t attr_start = 0;
      if (kind == "link-down" || kind == "brownout") {
        f.kind = kind == "brownout" ? fault::FaultKind::kLinkBrownout
                                    : fault::FaultKind::kLinkDown;
        if (tokens.size() < 4) {
          return {std::nullopt,
                  err_at(line_no, "fault " + kind + " <a> <b> at=<s> ...")};
        }
        if (const std::string error = resolve(std::span(tokens).subspan(2),
                                              {&f.link_a, &f.link_b});
            !error.empty()) {
          return {std::nullopt, err_at(line_no, error)};
        }
        link_references.push_back(
            {line_no, "fault " + kind, f.link_a, f.link_b});
        attr_start = 4;
      } else if (kind == "depot-crash") {
        f.kind = fault::FaultKind::kDepotCrash;
        if (tokens.size() < 3) {
          return {std::nullopt,
                  err_at(line_no, "fault depot-crash <host> at=<s> ...")};
        }
        if (const std::string error =
                resolve(std::span(tokens).subspan(2), {&f.node});
            !error.empty()) {
          return {std::nullopt, err_at(line_no, error)};
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
      std::vector<Attribute> attributes{
          numeric("at", Range::kNonNegative,
                  [&](double v) {
                    f.at = SimTime::from_seconds(v);
                    have_at = true;
                  }),
          numeric("for", Range::kNonNegative,
                  [&](double v) { f.duration = SimTime::from_seconds(v); })};
      if (f.kind == fault::FaultKind::kLinkBrownout) {
        attributes.push_back(numeric("loss", Range::kProbability,
                                     [&](double v) { f.loss = v; }));
        attributes.push_back(numeric("factor", Range::kFraction,
                                     [&](double v) { f.rate_factor = v; },
                                     "brownout factor must be in (0, 1]"));
      }
      const std::string error = apply_attributes(
          std::span(tokens).subspan(attr_start), "fault", attributes);
      if (!error.empty()) {
        return {std::nullopt, err_at(line_no, error)};
      }
      if (!have_at) {
        return {std::nullopt, err_at(line_no, "fault needs at=<s>")};
      }
      scenario.faults.add(f);
      continue;
    }

    if (directive == "churn") {
      if (tokens.size() < 2) {
        return {std::nullopt,
                err_at(line_no, "churn <host> [mtbf=<s> mttr=<s> ...]")};
      }
      fault::ChurnSpec churn;
      if (const std::string error =
              resolve(std::span(tokens).subspan(1), {&churn.node});
          !error.empty()) {
        return {std::nullopt, err_at(line_no, error)};
      }
      const std::string positive = "churn needs positive mtbf and mttr";
      const auto seconds = [](SimTime& field) {
        return [&field](double v) { field = SimTime::from_seconds(v); };
      };
      const std::string error = apply_attributes(
          std::span(tokens).subspan(2), "churn",
          {numeric("mtbf", Range::kPositive, seconds(churn.mtbf), positive),
           numeric("mttr", Range::kPositive, seconds(churn.mttr), positive),
           numeric("start", Range::kNonNegative, seconds(churn.start)),
           numeric("horizon", Range::kNonNegative, seconds(churn.horizon))});
      if (!error.empty()) {
        return {std::nullopt, err_at(line_no, error)};
      }
      scenario.churns.push_back(churn);
      continue;
    }

    if (directive == "recovery") {
      session::RecoveryConfig config;
      std::vector<std::string> attrs(tokens.begin() + 1, tokens.end());
      config.enabled = std::erase(attrs, "off") == 0;
      const std::string error = apply_attributes(
          attrs, "recovery",
          {numeric("retries", Range::kPositive,
                   [&](double v) { config.max_retries = static_cast<int>(v); }),
           numeric("stall", Range::kPositive,
                   [&](double v) {
                     config.stall_timeout = SimTime::from_seconds(v);
                   }),
           numeric("backoff", Range::kNonNegative,
                   [&](double v) {
                     config.initial_backoff = SimTime::from_seconds(v * 1e-3);
                   }),
           numeric("max_backoff", Range::kNonNegative,
                   [&](double v) {
                     config.max_backoff = SimTime::from_seconds(v * 1e-3);
                   }),
           numeric("jitter", Range::kProbability,
                   [&](double v) { config.backoff_jitter = v; })});
      if (!error.empty()) {
        return {std::nullopt, err_at(line_no, error)};
      }
      scenario.recovery = config;
      continue;
    }

    if (directive == "reroute") {
      ScenarioReroute reroute;
      const std::string error = apply_attributes(
          std::span(tokens).subspan(1), "reroute",
          {numeric("interval", Range::kPositive,
                   [&](double v) { reroute.interval_s = v; },
                   "reroute needs positive interval"),
           numeric("hysteresis", Range::kProbability,
                   [&](double v) { reroute.hysteresis = v; }),
           numeric("dwell", Range::kNonNegative,
                   [&](double v) { reroute.dwell_s = v; }),
           numeric("penalty", Range::kNonNegative,
                   [&](double v) { reroute.penalty_s = v; }),
           numeric("sigma", Range::kNonNegative,
                   [&](double v) { reroute.sigma = v; }),
           numeric("epsilon", Range::kNonNegative,
                   [&](double v) { reroute.epsilon = v; })});
      if (!error.empty()) {
        return {std::nullopt, err_at(line_no, error)};
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
      if (const std::string error = resolve(std::span(tokens).subspan(1),
                                            {&transfer.src, &transfer.dst});
          !error.empty()) {
        return {std::nullopt, err_at(line_no, error)};
      }
      const std::string error = apply_attributes(
          std::span(tokens).subspan(3), "transfer",
          {textual("via",
                   [&](const std::string& v) -> std::string {
                     std::istringstream hops(v);
                     std::string hop;
                     while (std::getline(hops, hop, ',')) {
                       net::NodeId& id = transfer.via.emplace_back();
                       if (std::string error =
                               resolve(std::span(&hop, 1), {&id}, "via host");
                           !error.empty()) {
                         return error;
                       }
                     }
                     return {};
                   }),
           numeric("size", Range::kPositive,
                   [&](double v) {
                     transfer.bytes = static_cast<std::uint64_t>(v * kMiB);
                   },
                   "transfer needs size=<MiB>"),
           numeric("buffers", Range::kPositive, [&](double v) {
             transfer.buffer_bytes = static_cast<std::uint64_t>(v * 1024);
           })});
      if (!error.empty()) {
        return {std::nullopt, err_at(line_no, error)};
      }
      if (transfer.bytes == 0) {
        return {std::nullopt, err_at(line_no, "transfer needs size=<MiB>")};
      }
      scenario.transfers.push_back(std::move(transfer));
      continue;
    }

    if (directive == "pool") {
      ScenarioPool pool;
      const std::string error = apply_attributes(
          std::span(tokens).subspan(1), "pool",
          {numeric("size", Range::kPositive,
                   [&](double v) { pool.size = static_cast<std::size_t>(v); },
                   "pool needs size >= 2"),
           numeric("epsilon", Range::kNonNegative,
                   [&](double v) { pool.epsilon = v; }),
           numeric("iterations", Range::kPositive,
                   [&](double v) {
                     pool.iterations = static_cast<std::size_t>(v);
                   }),
           numeric("cases", Range::kPositive,
                   [&](double v) {
                     pool.max_cases = static_cast<std::size_t>(v);
                   }),
           numeric("sizes", Range::kPositive,
                   [&](double v) { pool.max_size_exp = static_cast<int>(v); }),
           numeric("drift", Range::kNonNegative,
                   [&](double v) { pool.drift_sigma = v; })});
      if (!error.empty()) {
        return {std::nullopt, err_at(line_no, error)};
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
      Fidelity fidelity = Fidelity::kPacket;
      if (!parse_fidelity(tokens[1], fidelity)) {
        return {std::nullopt,
                err_at(line_no,
                       "unknown fidelity '" + tokens[1] + "' (packet|flow)")};
      }
      scenario.fidelity = fidelity;
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
  for (const LinkReference& ref : link_references) {
    const bool linked = std::any_of(
        scenario.links.begin(), scenario.links.end(),
        [&ref](const ScenarioLink& l) {
          return (l.a == ref.a && l.b == ref.b) ||
                 (l.a == ref.b && l.b == ref.a);
        });
    if (!linked) {
      return {std::nullopt,
              err_at(ref.line_no, ref.directive + " names no link between '" +
                                      scenario.hosts[ref.a].name + "' and '" +
                                      scenario.hosts[ref.b].name + "'")};
    }
  }
  return {std::move(scenario), {}};
}

nws::TruthFn topology_truth(net::Topology& topology) {
  return [&topology](std::size_t from, std::size_t to) -> Bandwidth {
    if (from == to) {
      return Bandwidth::mbps(0);
    }
    const auto path = topology.routed_path(static_cast<net::NodeId>(from),
                                           static_cast<net::NodeId>(to));
    if (!path) {
      return Bandwidth::bps(0);  // unreachable, or a forwarding loop
    }
    // Bottleneck on each hop's effective rate.
    double bottleneck_bps = std::numeric_limits<double>::infinity();
    for (const net::Link* link : *path) {
      const net::LinkConfig& config = link->config();
      bottleneck_bps =
          std::min(bottleneck_bps, config.rate.bits_per_second() *
                                       (1.0 - config.loss_rate));
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
  for (std::size_t i = 0; i < scenario.hosts.size(); ++i) {
    const ScenarioHost& host = scenario.hosts[i];
    const net::NodeId id = harness.add_host(host.name, host.site);
    LSL_ASSERT_MSG(id == i, "a host's NodeId must be its declaration index");
  }
  for (const auto& link : scenario.links) {
    harness.add_link(link.a, link.b, link.config);
  }
  // A `cca` directive applies to every TCP endpoint: transfers below, and
  // the depot relays' store-and-forward hops here.
  session::DepotConfig depot = scenario.depot;
  if (scenario.cca.has_value()) {
    depot.tcp = depot.tcp.with_cca(*scenario.cca);
  }
  harness.deploy(depot);
  auto& topo = harness.topology();
  for (const auto& [a, b] : scenario.pins) {
    net::Link* forward = topo.link_between(a, b);
    net::Link* backward = topo.link_between(b, a);
    LSL_ASSERT_MSG(forward != nullptr && backward != nullptr,
                   "pin requires a direct link between the pair");
    topo.node(a).set_route(b, forward);
    topo.node(b).set_route(a, backward);
  }

  // Faults: the declared plan plus the churn processes' crashes (seeded
  // from the run seed so reruns replay bit-for-bit).
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
    fault::FaultPlan plan = scenario.faults;
    Rng churn_rng(seed ^ 0x9E3779B97F4A7C15ULL);
    for (const fault::ChurnSpec& churn : scenario.churns) {
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
    spec.dst = transfer.dst;
    spec.via = transfer.via;
    spec.payload_bytes = transfer.bytes;
    spec.tcp = tcp::TcpOptions{}.with_buffers(transfer.buffer_bytes);
    if (scenario.cca.has_value()) {
      spec.tcp = spec.tcp.with_cca(*scenario.cca);
    }
    ScenarioOutcome record;
    record.transfer = transfer;
    const SimTime deadline =
        harness.simulator().now() + per_transfer_deadline;
    const auto handle =
        reliably ? harness.launch_reliable(transfer.src, spec, recovery)
                 : harness.launch(transfer.src, spec);
    std::uint64_t watch_token = 0;
    if (advisor != nullptr) {
      const session::ReliableTransfer::Ptr rt = harness.reliable(handle);
      const std::uint64_t total = spec.payload_bytes;
      watch_token = advisor->watch(
          harness.simulator().now(),
          [rt, src = transfer.src, dst = transfer.dst, total] {
            sched::SessionView view;
            view.src = src;
            view.dst = dst;
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
    harness.simulator().run(harness.simulator().now() + SimTime::seconds(2));
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
