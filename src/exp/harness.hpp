// Packet-level experiment harness: builds a topology, deploys a TCP stack
// and an LSL depot on every host, launches transfers, and collects
// end-to-end measurements matched by session id.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "lsl/depot.hpp"
#include "lsl/endpoint.hpp"
#include "lsl/recovery.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "tcp/stack.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace lsl::exp {

/// Data-plane fidelity for a harness run. kPacket simulates every segment;
/// kFlow carries payload on the fluid engine (flow::FluidNetwork) while
/// control packets (SYN/FIN/RST/window updates) still ride the packet
/// machinery, so sessions, recovery, rerouting, and fault injection behave
/// identically at either fidelity. See docs/flow_fidelity.md.
enum class Fidelity { kPacket, kFlow };

[[nodiscard]] const char* to_string(Fidelity fidelity);
/// Case-sensitive lowercase names: packet | flow.
[[nodiscard]] bool parse_fidelity(std::string_view name, Fidelity& out);

class SimHarness {
 public:
  explicit SimHarness(std::uint64_t seed,
                      Fidelity fidelity = Fidelity::kPacket);

  SimHarness(const SimHarness&) = delete;
  SimHarness& operator=(const SimHarness&) = delete;

  // ---- topology construction -------------------------------------------
  net::NodeId add_host(std::string name, std::string site = {});
  void add_link(net::NodeId a, net::NodeId b, const net::LinkConfig& config);

  /// Compute routes and start a TCP stack + depot on every host. Call once,
  /// after all hosts and links exist.
  void deploy(const session::DepotConfig& uniform);
  void deploy(
      const std::function<session::DepotConfig(net::NodeId)>& per_host);

  // ---- accessors ---------------------------------------------------------
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] net::Topology& topology() { return *topo_; }
  [[nodiscard]] tcp::TcpStack& stack(net::NodeId id);
  [[nodiscard]] session::Depot& depot(net::NodeId id);
  [[nodiscard]] Rng& rng() { return rng_; }
  [[nodiscard]] std::size_t host_count() const { return stacks_.size(); }
  [[nodiscard]] Fidelity fidelity() const { return fidelity_; }

  // ---- transfers ----------------------------------------------------------
  struct TransferOutcome {
    bool completed = false;
    /// Recovery gave up (retries exhausted or recovery disabled). Distinct
    /// from !completed, which also covers deadline expiry.
    bool failed = false;
    /// Recovery attempts consumed (reliable launches only).
    int retries = 0;
    /// Completed, but only after at least one retry.
    bool recovered = false;
    /// Planned mid-transfer handovers taken (adaptive rerouting).
    int reroutes = 0;
    std::uint64_t bytes = 0;
    SimTime elapsed = SimTime::zero();
    Bandwidth goodput;
    /// SessionIdHash of the bound session id -- joins this outcome to span
    /// streams and mc::Invariants observations, which key by the same hash.
    std::uint64_t session_hash = 0;
  };

  /// Handle for a launched transfer.
  struct Handle {
    session::SessionId id;
  };

  /// Launch without blocking; completion is recorded internally.
  Handle launch(net::NodeId src, const session::TransferSpec& spec);

  /// Launch and attach a hook to the source's first-hop connection (tracing).
  Handle launch_traced(
      net::NodeId src, const session::TransferSpec& spec,
      const std::function<void(tcp::Connection&)>& on_source_conn);

  /// Launch under the session-recovery loop: failures are detected, retried
  /// with backoff, rerouted around blacklisted depots, and resumed from the
  /// sink's committed offset. Unicast, single-stream transfers only.
  Handle launch_reliable(net::NodeId src, const session::TransferSpec& spec,
                         const session::RecoveryConfig& recovery = {},
                         session::RouteProvider route_provider = nullptr);

  /// The recovery wrapper behind a reliable launch (null for plain launches).
  [[nodiscard]] session::ReliableTransfer::Ptr reliable(
      const Handle& handle) const;

  /// Total TCP connections still tracked across every host's stack; zero
  /// once all sessions have finished and teardown has drained.
  [[nodiscard]] std::size_t open_connection_count() const;

  /// Run the simulation until `handle` completes or `deadline` passes.
  TransferOutcome wait(const Handle& handle, SimTime deadline);

  /// Run until all launched transfers complete or `deadline` passes.
  /// Returns the number still unfinished.
  std::size_t wait_all(SimTime deadline);

  [[nodiscard]] TransferOutcome outcome(const Handle& handle) const;

  /// Convenience: launch + wait.
  TransferOutcome run_transfer(net::NodeId src,
                               const session::TransferSpec& spec,
                               SimTime deadline = SimTime::seconds(3600));

 private:
  struct Pending {
    SimTime started;
    bool done = false;
    TransferOutcome outcome;
    std::uint64_t session_span = 0;  ///< open kSession span (0 = none)
    /// Plain launches only: the source whose connection carries span
    /// context, so on_complete can close conn spans before the session span
    /// (children first). Reliable launches close theirs via the recovery
    /// wrapper instead.
    session::LslSource::Ptr source;
  };

  /// Ensure `spec` carries a session id and open its kSession root span;
  /// returns the bound spec. Pre-generating the id here consumes the same
  /// rng draw LslSource/ReliableTransfer would have used, so runs with and
  /// without span recording stay bitwise identical.
  session::TransferSpec bind_session(const session::TransferSpec& spec,
                                     Pending& pending);

  void on_complete(const session::SessionRecord& record);
  void on_reliable_failed(const session::SessionId& id);

  sim::Simulator sim_;
  Rng rng_;
  Fidelity fidelity_ = Fidelity::kPacket;
  std::unique_ptr<net::Topology> topo_;
  std::vector<std::unique_ptr<tcp::TcpStack>> stacks_;
  std::vector<std::unique_ptr<session::Depot>> depots_;
  std::unordered_map<session::SessionId, Pending, session::SessionIdHash>
      pending_;
  std::vector<session::LslSource::Ptr> sources_;
  std::unordered_map<session::SessionId, session::ReliableTransfer::Ptr,
                     session::SessionIdHash>
      reliable_;
  std::size_t unfinished_ = 0;
  bool deployed_ = false;
};

}  // namespace lsl::exp
