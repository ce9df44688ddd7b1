#include "exp/harness.hpp"

#include <utility>

#include "obs/span.hpp"
#include "util/assert.hpp"

namespace lsl::exp {

const char* to_string(Fidelity fidelity) {
  switch (fidelity) {
    case Fidelity::kPacket:
      return "packet";
    case Fidelity::kFlow:
      return "flow";
  }
  return "?";
}

bool parse_fidelity(std::string_view name, Fidelity& out) {
  for (const Fidelity fidelity : {Fidelity::kPacket, Fidelity::kFlow}) {
    if (name == to_string(fidelity)) {
      out = fidelity;
      return true;
    }
  }
  return false;
}

SimHarness::SimHarness(std::uint64_t seed, Fidelity fidelity)
    : rng_(seed),
      fidelity_(fidelity),
      topo_(std::make_unique<net::Topology>(sim_, seed ^ 0xA5A5)) {
  if (fidelity_ == Fidelity::kFlow) {
    // Before any links exist: Topology then binds every future link to the
    // fluid engine as it is added.
    topo_->enable_fluid();
  }
}

net::NodeId SimHarness::add_host(std::string name, std::string site) {
  LSL_ASSERT_MSG(!deployed_, "cannot add hosts after deploy()");
  return topo_->add_node(std::move(name), std::move(site));
}

void SimHarness::add_link(net::NodeId a, net::NodeId b,
                          const net::LinkConfig& config) {
  LSL_ASSERT_MSG(!deployed_, "cannot add links after deploy()");
  topo_->add_duplex_link(a, b, config);
}

void SimHarness::deploy(const session::DepotConfig& uniform) {
  deploy([&uniform](net::NodeId) { return uniform; });
}

void SimHarness::deploy(
    const std::function<session::DepotConfig(net::NodeId)>& per_host) {
  LSL_ASSERT_MSG(!deployed_, "deploy() called twice");
  deployed_ = true;
  topo_->compute_routes();
  const std::size_t n = topo_->node_count();
  stacks_.reserve(n);
  depots_.reserve(n);
  for (net::NodeId id = 0; id < n; ++id) {
    stacks_.push_back(std::make_unique<tcp::TcpStack>(*topo_, id));
    depots_.push_back(
        std::make_unique<session::Depot>(*stacks_.back(), per_host(id)));
    depots_.back()->on_session_complete =
        [this](const session::SessionRecord& record) { on_complete(record); };
  }
}

tcp::TcpStack& SimHarness::stack(net::NodeId id) {
  LSL_ASSERT(id < stacks_.size());
  return *stacks_[id];
}

session::Depot& SimHarness::depot(net::NodeId id) {
  LSL_ASSERT(id < depots_.size());
  return *depots_[id];
}

SimHarness::Handle SimHarness::launch(net::NodeId src,
                                      const session::TransferSpec& spec) {
  return launch_traced(src, spec, nullptr);
}

SimHarness::Handle SimHarness::launch_traced(
    net::NodeId src, const session::TransferSpec& spec,
    const std::function<void(tcp::Connection&)>& on_source_conn) {
  LSL_ASSERT_MSG(deployed_, "launch before deploy()");
  Pending pending;
  pending.started = sim_.now();
  const session::TransferSpec bound = bind_session(spec, pending);
  auto source = session::LslSource::start(stack(src), bound, rng_);
  if (on_source_conn && source->connection() != nullptr) {
    on_source_conn(*source->connection());
  }
  if (pending.session_span != 0 && source->connection() != nullptr) {
    source->connection()->set_span_context(
        session::SessionIdHash{}(source->session_id()), pending.session_span);
    pending.source = source;
  }
  pending_.emplace(source->session_id(), pending);
  ++unfinished_;
  sources_.push_back(source);  // keep alive until the harness dies
  return Handle{source->session_id()};
}

SimHarness::Handle SimHarness::launch_reliable(
    net::NodeId src, const session::TransferSpec& spec,
    const session::RecoveryConfig& recovery,
    session::RouteProvider route_provider) {
  LSL_ASSERT_MSG(deployed_, "launch before deploy()");
  Pending pending;
  pending.started = sim_.now();
  const session::TransferSpec bound = bind_session(spec, pending);
  auto transfer = session::ReliableTransfer::start(
      stack(src), bound, recovery, rng_, std::move(route_provider));
  const session::SessionId id = transfer->session_id();
  pending_.emplace(id, pending);
  ++unfinished_;
  transfer->on_failed = [this, id] { on_reliable_failed(id); };
  reliable_.emplace(id, std::move(transfer));
  return Handle{id};
}

session::TransferSpec SimHarness::bind_session(
    const session::TransferSpec& spec, Pending& pending) {
  session::TransferSpec bound = spec;
  if (!bound.session_id.has_value()) {
    // The same single rng draw the endpoint would have made on our behalf.
    bound.session_id = session::SessionId::random(rng_);
  }
  pending.outcome.session_hash = session::SessionIdHash{}(*bound.session_id);
  if (obs::SpanRecorder* sr = obs::spans()) {
    pending.session_span =
        sr->begin(sim_.now(), obs::SpanKind::kSession,
                  session::SessionIdHash{}(*bound.session_id), 0, 0, "",
                  static_cast<double>(bound.payload_bytes));
  }
  return bound;
}

session::ReliableTransfer::Ptr SimHarness::reliable(
    const Handle& handle) const {
  const auto it = reliable_.find(handle.id);
  return it == reliable_.end() ? nullptr : it->second;
}

std::size_t SimHarness::open_connection_count() const {
  std::size_t total = 0;
  for (const auto& stack : stacks_) {
    total += stack->open_connections();
  }
  return total;
}

void SimHarness::on_complete(const session::SessionRecord& record) {
  const auto it = pending_.find(record.header.session_id);
  if (it == pending_.end() || it->second.done) {
    return;
  }
  Pending& p = it->second;
  p.done = true;
  p.outcome.completed = true;
  p.outcome.bytes = record.bytes;
  p.outcome.elapsed = record.completed_at - p.started;
  p.outcome.goodput = throughput_of(record.bytes, p.outcome.elapsed);
  if (const auto rel = reliable_.find(record.header.session_id);
      rel != reliable_.end()) {
    rel->second->notify_delivered();
    p.outcome.retries = rel->second->retries();
    p.outcome.recovered = rel->second->recovered();
    p.outcome.reroutes = static_cast<int>(rel->second->handovers());
  }
  if (p.session_span != 0) {
    if (p.source != nullptr && p.source->connection() != nullptr) {
      p.source->connection()->end_spans("completed");
    }
    p.source.reset();
    if (obs::SpanRecorder* sr = obs::spans()) {
      sr->end(sim_.now(), obs::SpanKind::kSession, p.session_span,
              session::SessionIdHash{}(record.header.session_id), "completed",
              static_cast<double>(record.bytes));
    }
    p.session_span = 0;
  }
  LSL_ASSERT(unfinished_ > 0);
  --unfinished_;
}

void SimHarness::on_reliable_failed(const session::SessionId& id) {
  const auto it = pending_.find(id);
  if (it == pending_.end() || it->second.done) {
    return;
  }
  Pending& p = it->second;
  p.done = true;
  p.outcome.failed = true;
  if (const auto rel = reliable_.find(id); rel != reliable_.end()) {
    p.outcome.retries = rel->second->retries();
    p.outcome.reroutes = static_cast<int>(rel->second->handovers());
  }
  if (p.session_span != 0) {
    if (obs::SpanRecorder* sr = obs::spans()) {
      sr->end(sim_.now(), obs::SpanKind::kSession, p.session_span,
              session::SessionIdHash{}(id), "failed");
    }
    p.session_span = 0;
  }
  LSL_ASSERT(unfinished_ > 0);
  --unfinished_;
}

SimHarness::TransferOutcome SimHarness::wait(const Handle& handle,
                                             SimTime deadline) {
  const auto it = pending_.find(handle.id);
  LSL_ASSERT_MSG(it != pending_.end(), "unknown transfer handle");
  while (!it->second.done && sim_.now() < deadline) {
    if (!sim_.step()) {
      break;
    }
  }
  return it->second.outcome;
}

std::size_t SimHarness::wait_all(SimTime deadline) {
  while (unfinished_ > 0 && sim_.now() < deadline) {
    if (!sim_.step()) {
      break;
    }
  }
  return unfinished_;
}

SimHarness::TransferOutcome SimHarness::outcome(const Handle& handle) const {
  const auto it = pending_.find(handle.id);
  LSL_ASSERT_MSG(it != pending_.end(), "unknown transfer handle");
  return it->second.outcome;
}

SimHarness::TransferOutcome SimHarness::run_transfer(
    net::NodeId src, const session::TransferSpec& spec, SimTime deadline) {
  const Handle handle = launch(src, spec);
  auto outcome = wait(handle, deadline);
  // Drain connection teardown so back-to-back transfers start clean.
  sim_.run(sim_.now() + SimTime::seconds(2));
  return outcome;
}

}  // namespace lsl::exp
