#include "testbed/grid.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/assert.hpp"

namespace lsl::testbed {

namespace {

/// Map a 64-bit hash to a uniform double in (0, 1).
double unit_from_hash(std::uint64_t h) {
  // SplitMix finalizer for good avalanche, then take 53 bits.
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 31;
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return std::min(std::max(u, 1e-12), 1.0 - 1e-12);
}

/// Deterministic standard normal from two independent uniforms.
double normal_from_units(double u1, double u2) {
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

// Calibration constants (DESIGN.md section 5) of the two section 4.2
// testbeds.
//
// PlanetLab pool: one to three machines per site, as in the paper.
// 2004-era PlanetLab access links and virtualized host throughput were
// modest; most pairs are capacity-bound (where relaying cannot help), only
// long-RTT well-connected pairs are window-bound (where it can).
constexpr std::size_t kMinHostsPerSite = 1;
constexpr std::size_t kMaxHostsPerSite = 3;
constexpr double kRateLimitedFraction = 0.15;
constexpr double kAccessBwMedianMbps = 12.0;
constexpr double kAccessBwSigma = 1.2;
constexpr double kHostCapMedianMbps = 14.0;
constexpr double kHostCapSigma = 1.0;
constexpr SimTime kPlanetLabRttBase = SimTime::milliseconds(6);
// The unit square's diagonal spans about a continental RTT.
constexpr double kPlanetLabRttScaleMs = 95.0;
constexpr double kPlanetLabLossMedian = 4e-5;
constexpr double kPlanetLabLossSigma = 1.2;

// Abilene core: ten universities homed onto the POPs.
constexpr std::size_t kUniversities = 10;  // paper: 10 U.S. universities
constexpr std::uint64_t kUniversityTcpBuffer = 64 * kKiB;
constexpr std::uint64_t kCoreTcpBuffer = 8 * kMiB;  // Internet2 observatory
constexpr double kUniversityAccessMbps = 90.0;
// Endpoints are still PlanetLab machines: virtualization caps what any path
// through them can carry, relayed or not.
constexpr double kUniversityCapMedianMbps = 18.0;
constexpr double kUniversityCapSigma = 0.9;
constexpr double kCoreCapacityMbps = 900.0;
constexpr SimTime kAbileneRttBase = SimTime::milliseconds(4);
constexpr double kAbileneRttScaleMs = 110.0;
constexpr double kAbileneLossMedian = 2e-5;
constexpr double kAbileneLossSigma = 1.0;

}  // namespace

SyntheticGrid::SyntheticGrid(std::vector<HostProfile> hosts,
                             std::uint64_t seed)
    : hosts_(std::move(hosts)), seed_(seed) {
  LSL_ASSERT(!hosts_.empty());
  site_hash_.reserve(hosts_.size());
  for (const auto& h : hosts_) {
    site_hash_.push_back(Rng::hash(h.site));
  }
}

const HostProfile& SyntheticGrid::host(std::size_t i) const {
  LSL_ASSERT(i < hosts_.size());
  return hosts_[i];
}

std::vector<std::string> SyntheticGrid::sites() const {
  std::vector<std::string> out;
  out.reserve(hosts_.size());
  for (const auto& h : hosts_) {
    out.push_back(h.site);
  }
  return out;
}

std::vector<std::size_t> SyntheticGrid::core_hosts() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    if (hosts_[i].core) {
      out.push_back(i);
    }
  }
  return out;
}

double SyntheticGrid::pair_unit(std::size_t a, std::size_t b,
                                std::uint64_t salt) const {
  // Unordered: same factor in both directions.
  const std::uint64_t ha = site_hash_[a];
  const std::uint64_t hb = site_hash_[b];
  const std::uint64_t lo = std::min(ha, hb);
  const std::uint64_t hi = std::max(ha, hb);
  return unit_from_hash(lo ^ (hi * 0x9E3779B97F4A7C15ULL) ^
                        (salt * 0xD1B54A32D192ED03ULL) ^ seed_);
}

SimTime SyntheticGrid::rtt(std::size_t a, std::size_t b) const {
  LSL_ASSERT(a < hosts_.size() && b < hosts_.size());
  if (hosts_[a].site == hosts_[b].site) {
    return SimTime::milliseconds(1);
  }
  const double dx = hosts_[a].x - hosts_[b].x;
  const double dy = hosts_[a].y - hosts_[b].y;
  const double dist = std::sqrt(dx * dx + dy * dy);
  // Mild persistent wiggle so equidistant pairs are not identical.
  const double wiggle = 0.9 + 0.2 * pair_unit(a, b, 1);
  return rtt_base_ +
         SimTime::from_seconds(dist * rtt_scale_ms_ * wiggle * 1e-3);
}

double SyntheticGrid::loss(std::size_t a, std::size_t b) const {
  if (hosts_[a].site == hosts_[b].site) {
    return 1e-6;
  }
  const double z =
      normal_from_units(pair_unit(a, b, 2), pair_unit(a, b, 3));
  return std::min(loss_median_ * std::exp(loss_sigma_ * z), 0.02);
}

Bandwidth SyntheticGrid::base_path_bw(std::size_t a, std::size_t b) const {
  if (hosts_[a].site == hosts_[b].site) {
    return Bandwidth::mbps(900.0);
  }
  double quality = 0.78 + 0.22 * pair_unit(a, b, 4);
  // A small fraction of site pairs suffer chronically bad routing/peering;
  // these are the pathological direct paths a depot path rescues (the
  // paper's "improved by a factor of four" cases and Fig 11's outliers).
  if (pair_unit(a, b, 5) < 0.012) {
    quality *= 0.25;
  }
  const double mbps =
      std::min(hosts_[a].access.megabits_per_second(),
               hosts_[b].access.megabits_per_second()) *
      quality;
  return Bandwidth::mbps(mbps);
}

Bandwidth SyntheticGrid::probe_bw(std::size_t a, std::size_t b) const {
  const double window =
      static_cast<double>(std::min(hosts_[a].tcp_buffer, hosts_[b].tcp_buffer));
  const double ceiling_mbps =
      window * 8.0 / rtt(a, b).to_seconds() / 1e6;
  const double mbps = std::min(
      {base_path_bw(a, b).megabits_per_second(),
       hosts_[a].host_cap.megabits_per_second(),
       hosts_[b].host_cap.megabits_per_second(), ceiling_mbps});
  return Bandwidth::mbps(std::max(mbps, 0.01));
}

nws::TruthFn SyntheticGrid::truth() const {
  return [this](std::size_t a, std::size_t b) { return probe_bw(a, b); };
}

Bandwidth SyntheticGrid::loaded_cap(const HostProfile& host, Rng& trial) const {
  if (host.core) {
    return host.host_cap;  // backbone depots are unloaded
  }
  const double factor = trial.lognormal(0.0, GridNoise::load_sigma);
  return Bandwidth::mbps(host.host_cap.megabits_per_second() /
                         std::max(factor, 0.05));
}

PairRealization SyntheticGrid::realize_direct(std::size_t a, std::size_t b,
                                              std::uint64_t bytes,
                                              Rng& trial) const {
  LSL_ASSERT(a < hosts_.size() && b < hosts_.size());
  PairRealization real;
  real.rtt = rtt(a, b);
  real.loss_rate = loss(a, b);
  real.window_bytes = std::min(hosts_[a].tcp_buffer, hosts_[b].tcp_buffer);

  const double cross = trial.lognormal(0.0, GridNoise::path_sigma);
  double mbps = base_path_bw(a, b).megabits_per_second() / std::max(cross, 0.2);
  mbps = std::min(mbps, loaded_cap(hosts_[a], trial).megabits_per_second());
  mbps = std::min(mbps, loaded_cap(hosts_[b], trial).megabits_per_second());
  for (const std::size_t h : {a, b}) {
    if (hosts_[h].rate_limited && bytes > GridNoise::rate_limit_threshold) {
      mbps = std::min(mbps, GridNoise::rate_limit.megabits_per_second());
    }
  }
  real.bottleneck = Bandwidth::mbps(std::max(mbps, 0.05));
  return real;
}

std::vector<PairRealization> SyntheticGrid::realize_relay_hops(
    const std::vector<std::size_t>& path, std::uint64_t bytes,
    Rng& trial) const {
  LSL_ASSERT(path.size() >= 2);
  // One load sample per participating host, reused across its hops.
  std::vector<double> cap_mbps(path.size());
  for (std::size_t i = 0; i < path.size(); ++i) {
    double cap = loaded_cap(hosts_[path[i]], trial).megabits_per_second();
    const bool is_depot = i > 0 && i + 1 < path.size();
    if (is_depot && !hosts_[path[i]].core) {
      // User-space relaying on a shared virtualized host costs extra.
      cap *= GridNoise::relay_efficiency;
    }
    cap_mbps[i] = cap;
  }
  std::vector<PairRealization> hops;
  hops.reserve(path.size() - 1);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const std::size_t a = path[i];
    const std::size_t b = path[i + 1];
    PairRealization hop;
    hop.rtt = rtt(a, b);
    hop.loss_rate = loss(a, b);
    hop.window_bytes = std::min(hosts_[a].tcp_buffer, hosts_[b].tcp_buffer);
    const double cross = trial.lognormal(0.0, GridNoise::path_sigma);
    double mbps =
        base_path_bw(a, b).megabits_per_second() / std::max(cross, 0.2);
    mbps = std::min({mbps, cap_mbps[i], cap_mbps[i + 1]});
    for (const std::size_t h : {a, b}) {
      if (hosts_[h].rate_limited && bytes > GridNoise::rate_limit_threshold) {
        mbps = std::min(mbps, GridNoise::rate_limit.megabits_per_second());
      }
    }
    hop.bottleneck = Bandwidth::mbps(std::max(mbps, 0.05));
    hops.push_back(hop);
  }
  return hops;
}

// ---------------------------------------------------------------------------
// Generators

SyntheticGrid SyntheticGrid::planetlab(const PlanetLabConfig& config,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<HostProfile> hosts;
  for (std::size_t s = 0; s < config.sites; ++s) {
    const std::string site = "site" + std::to_string(s) + ".edu";
    const double x = rng.next_double();
    const double y = rng.next_double();
    const double access_mbps =
        kAccessBwMedianMbps * std::exp(kAccessBwSigma * rng.normal());
    const auto count = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(kMinHostsPerSite),
                        static_cast<std::int64_t>(kMaxHostsPerSite)));
    for (std::size_t k = 0; k < count; ++k) {
      HostProfile h;
      h.name = "node" + std::to_string(k) + "." + site;
      h.site = site;
      h.x = x;
      h.y = y;
      h.access = Bandwidth::mbps(std::clamp(access_mbps, 4.0, 400.0));
      const double cap =
          kHostCapMedianMbps * std::exp(kHostCapSigma * rng.normal());
      h.host_cap = Bandwidth::mbps(std::clamp(cap, 3.0, 300.0));
      h.tcp_buffer = config.host_tcp_buffer;
      h.rate_limited = rng.chance(kRateLimitedFraction);
      hosts.push_back(std::move(h));
    }
  }
  SyntheticGrid grid(std::move(hosts), seed);
  grid.rtt_base_ = kPlanetLabRttBase;
  grid.rtt_scale_ms_ = kPlanetLabRttScaleMs;
  grid.loss_median_ = kPlanetLabLossMedian;
  grid.loss_sigma_ = kPlanetLabLossSigma;
  return grid;
}

PlanetLabConfig scaled_planetlab_config(std::size_t pool_size) {
  PlanetLabConfig config;
  config.sites = std::clamp<std::size_t>(pool_size / 2, 1, 4096);
  return config;
}

SyntheticGrid SyntheticGrid::abilene_core(std::uint64_t seed) {
  // Rough unit-square placement of the 11 Abilene POPs (2004 topology).
  struct Pop {
    const char* name;
    double x, y;
  };
  static constexpr Pop kPops[] = {
      {"seattle", 0.08, 0.10},     {"sunnyvale", 0.04, 0.55},
      {"losangeles", 0.10, 0.78},  {"denver", 0.35, 0.45},
      {"kansascity", 0.52, 0.50},  {"houston", 0.48, 0.88},
      {"indianapolis", 0.64, 0.42},{"atlanta", 0.72, 0.74},
      {"chicago", 0.62, 0.28},     {"washington", 0.86, 0.45},
      {"newyork", 0.90, 0.28},
  };
  Rng rng(seed);
  std::vector<HostProfile> hosts;
  // University endpoints first, each homed near a random POP.
  for (std::size_t u = 0; u < kUniversities; ++u) {
    const Pop& pop = kPops[rng.pick_index(std::size(kPops))];
    HostProfile h;
    h.site = "univ" + std::to_string(u) + ".edu";
    h.name = "planetlab1." + h.site;
    h.x = std::clamp(pop.x + rng.uniform(-0.06, 0.06), 0.0, 1.0);
    h.y = std::clamp(pop.y + rng.uniform(-0.06, 0.06), 0.0, 1.0);
    h.access = Bandwidth::mbps(kUniversityAccessMbps);
    h.host_cap = Bandwidth::mbps(std::clamp(
        kUniversityCapMedianMbps * std::exp(kUniversityCapSigma * rng.normal()),
        4.0, 200.0));
    h.tcp_buffer = kUniversityTcpBuffer;
    hosts.push_back(std::move(h));
  }
  // Depot-grade observatory hosts at every POP.
  for (const Pop& pop : kPops) {
    HostProfile h;
    h.site = std::string(pop.name) + ".abilene.net";
    h.name = "depot." + h.site;
    h.x = pop.x;
    h.y = pop.y;
    h.access = Bandwidth::mbps(kCoreCapacityMbps);
    h.host_cap = Bandwidth::mbps(kCoreCapacityMbps);
    h.tcp_buffer = kCoreTcpBuffer;
    h.core = true;
    hosts.push_back(std::move(h));
  }
  SyntheticGrid grid(std::move(hosts), seed);
  grid.rtt_base_ = kAbileneRttBase;
  grid.rtt_scale_ms_ = kAbileneRttScaleMs;
  grid.loss_median_ = kAbileneLossMedian;
  grid.loss_sigma_ = kAbileneLossSigma;
  return grid;
}

}  // namespace lsl::testbed
