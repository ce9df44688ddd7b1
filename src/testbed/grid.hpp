// Synthetic Grid testbeds.
//
// The paper's large-scale evaluation ran on PlanetLab (142 virtualized
// hosts at ~70 university sites, 64 KB TCP buffers, administrative rate
// limits, heavy background load) and on a constrained variant with depots
// at Abilene POPs. Neither environment is reproducible directly, so this
// module generates statistically similar stand-ins:
//   * sites placed on a unit square; RTT = base + distance (continental ms),
//   * per-site access bandwidth (lognormal), per-host virtualization
//     throughput caps, a rate-limited subset whose cap kicks in only past a
//     traffic threshold (the "administrative limitation that changes its
//     behavior after a certain amount of traffic" the paper calls out),
//   * persistent per-path quality factors and loss rates,
//   * per-trial load/cross-traffic realization noise.
//
// The same object serves three consumers: the NWS monitor (probe-level
// ground truth), the scheduler (via the monitor's matrix), and the
// flow-level transfer model (per-trial realizations).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flow/tcp_model.hpp"
#include "nws/monitor.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "util/units.hpp"

namespace lsl::testbed {

struct HostProfile {
  std::string name;
  std::string site;
  double x = 0.0;  ///< position on the unit square
  double y = 0.0;
  Bandwidth access = Bandwidth::mbps(100);  ///< site access link
  Bandwidth host_cap = Bandwidth::mbps(60); ///< virtualization throughput cap
  std::uint64_t tcp_buffer = 64 * kKiB;
  bool rate_limited = false;
  bool core = false;  ///< backbone depot (unloaded, large buffers)
};

/// Per-trial realization noise and the sweep calibration, shared by every
/// synthetic grid. Calibration constants (DESIGN.md section 5).
struct GridNoise {
  /// Per-trial lognormal sigma on host capacity (background load swings).
  static constexpr double load_sigma = 0.55;
  /// Per-trial lognormal sigma on path bandwidth (cross traffic).
  static constexpr double path_sigma = 0.30;
  /// Relaying through user space on a busy virtualized host costs this
  /// efficiency factor on the depot's capacity.
  static constexpr double relay_efficiency = 0.62;
  /// Edge-equivalence margin the section 4.2 experiments schedule with.
  /// Calibrated so the scheduler relays ~26% of pairs as the paper reports
  /// (under our synthetic noise, the paper's nominal 10% over-schedules).
  static constexpr double sweep_epsilon = 0.25;
  /// Administrative rate limits engage beyond this many bytes.
  static constexpr std::uint64_t rate_limit_threshold = 16 * kMiB;
  static constexpr Bandwidth rate_limit = Bandwidth::mbps(10);
};

/// The two PlanetLab pool values callers vary: its size and its hosts'
/// socket buffers. The rest of the pool's shape (one to three hosts per
/// site, 15% rate-limited hosts, access, host-cap, RTT and loss
/// distributions) is calibration constants in grid.cpp.
struct PlanetLabConfig {
  std::size_t sites = 70;
  std::uint64_t host_tcp_buffer = 64 * kKiB;  ///< paper: unmodifiable 64 KB
};

/// A PlanetLab-style config scaled to roughly `pool_size` hosts: sites =
/// pool_size / 2 (the 1..3 hosts/site draw averages ~2), host buffers at
/// their 2004 default. Used by the `--pool-size` sweeps that exercise the
/// scheduler control plane at 1000+ hosts.
[[nodiscard]] PlanetLabConfig scaled_planetlab_config(std::size_t pool_size);

/// One realized pair (direct path or relay hop): the single source of
/// truth both measurement fidelities consume. The analytic model reads it
/// as flow::ConnectionParams (via connection_params()); the simulated
/// fidelities materialize it as a link whose rate/delay/loss and endpoint
/// TCP buffers carry the same numbers (testbed/materialize.hpp). Keeping
/// one struct means the analytic and simulated sweeps cannot silently
/// drift onto different network parameters.
struct PairRealization {
  SimTime rtt = SimTime::milliseconds(50);
  double loss_rate = 0.0;
  /// Realized path capacity: base bandwidth under cross traffic, clipped
  /// by both hosts' loaded caps (and rate limits past the threshold).
  Bandwidth bottleneck = Bandwidth::mbps(100);
  /// Effective window: min of the two hosts' TCP buffers.
  std::uint64_t window_bytes = 64 * kKiB;

  [[nodiscard]] flow::ConnectionParams connection_params() const {
    flow::ConnectionParams params;
    params.rtt = rtt;
    params.bottleneck = bottleneck;
    params.window_bytes = window_bytes;
    params.loss_rate = loss_rate;
    return params;
  }
};

class SyntheticGrid {
 public:
  SyntheticGrid(std::vector<HostProfile> hosts, std::uint64_t seed);

  /// The paper's PlanetLab-like pool (~142 hosts over ~70 sites).
  [[nodiscard]] static SyntheticGrid planetlab(const PlanetLabConfig& config,
                                               std::uint64_t seed);

  /// 10 universities homed onto the 11 Abilene POPs, with depot-grade hosts
  /// at every POP (paper section 4.2, second experiment).
  [[nodiscard]] static SyntheticGrid abilene_core(std::uint64_t seed);

  [[nodiscard]] std::size_t size() const { return hosts_.size(); }
  [[nodiscard]] const HostProfile& host(std::size_t i) const;
  [[nodiscard]] std::vector<std::string> sites() const;
  /// Indices of core (backbone depot) hosts.
  [[nodiscard]] std::vector<std::size_t> core_hosts() const;

  // ---- persistent ground truth -------------------------------------------
  [[nodiscard]] SimTime rtt(std::size_t a, std::size_t b) const;
  [[nodiscard]] double loss(std::size_t a, std::size_t b) const;
  /// Long-run wide-area path bandwidth (no per-trial noise, no host load).
  [[nodiscard]] Bandwidth base_path_bw(std::size_t a, std::size_t b) const;
  /// What a measurement probe between the two hosts observes on average:
  /// path bandwidth clipped by host caps and the probes' window ceiling.
  [[nodiscard]] Bandwidth probe_bw(std::size_t a, std::size_t b) const;
  /// Adapter feeding the NWS monitor.
  [[nodiscard]] nws::TruthFn truth() const;

  // ---- per-trial realizations ----------------------------------------------
  /// Realize one direct transfer of `bytes` from a to b right now (samples
  /// load and cross-traffic noise from `trial`). Source of truth for both
  /// the analytic model and the simulated fidelities.
  [[nodiscard]] PairRealization realize_direct(std::size_t a, std::size_t b,
                                               std::uint64_t bytes,
                                               Rng& trial) const;

  /// Realize every hop of one relayed transfer along `path` (node sequence
  /// source..sink). One load sample per participating host, reused across
  /// its hops; non-core depots pay the relay-efficiency factor.
  [[nodiscard]] std::vector<PairRealization> realize_relay_hops(
      const std::vector<std::size_t>& path, std::uint64_t bytes,
      Rng& trial) const;

  /// The per-trial noise and sweep calibration every grid shares.
  [[nodiscard]] static constexpr GridNoise noise() { return {}; }

 private:
  /// Stable pseudo-random factor for an unordered host-site pair.
  [[nodiscard]] double pair_unit(std::size_t a, std::size_t b,
                                 std::uint64_t salt) const;
  [[nodiscard]] Bandwidth loaded_cap(const HostProfile& host,
                                     Rng& trial) const;

  std::vector<HostProfile> hosts_;
  /// Rng::hash of each host's site, computed once: pair_unit runs per
  /// probe.
  std::vector<std::uint64_t> site_hash_;
  std::uint64_t seed_;
  // Latency / loss generation parameters (set by the named constructors).
  SimTime rtt_base_ = SimTime::milliseconds(6);
  double rtt_scale_ms_ = 110.0;
  double loss_median_ = 4e-5;
  double loss_sigma_ = 1.2;
};

}  // namespace lsl::testbed
