#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/time.hpp"
#include "util/units.hpp"

namespace lsl {
namespace {

using namespace lsl::time_literals;

TEST(SimTimeTest, ConstructorsAndAccessors) {
  EXPECT_EQ(SimTime::seconds(2).ns(), 2'000'000'000);
  EXPECT_EQ(SimTime::milliseconds(5).ns(), 5'000'000);
  EXPECT_EQ(SimTime::microseconds(7).ns(), 7'000);
  EXPECT_EQ(SimTime::nanoseconds(9).ns(), 9);
  EXPECT_DOUBLE_EQ(SimTime::seconds(3).to_seconds(), 3.0);
  EXPECT_DOUBLE_EQ(SimTime::milliseconds(46).to_milliseconds(), 46.0);
}

TEST(SimTimeTest, Literals) {
  EXPECT_EQ(3_s, SimTime::seconds(3));
  EXPECT_EQ(70_ms, SimTime::milliseconds(70));
  EXPECT_EQ(12_us, SimTime::microseconds(12));
  EXPECT_EQ(34_ns, SimTime::nanoseconds(34));
}

TEST(SimTimeTest, Arithmetic) {
  EXPECT_EQ(1_s + 500_ms, SimTime::milliseconds(1500));
  EXPECT_EQ(1_s - 250_ms, SimTime::milliseconds(750));
  EXPECT_EQ(10_ms * 3, 30_ms);
  EXPECT_EQ(100_ms / 4, 25_ms);
  EXPECT_EQ(1_s / 250_ms, 4);
}

TEST(SimTimeTest, Ordering) {
  EXPECT_LT(10_ms, 11_ms);
  EXPECT_GT(1_s, 999_ms);
  EXPECT_LE(SimTime::zero(), 0_ns);
}

TEST(SimTimeTest, FromSecondsRounds) {
  EXPECT_EQ(SimTime::from_seconds(0.5).ns(), 500'000'000);
  EXPECT_EQ(SimTime::from_seconds(1e-9).ns(), 1);
}

TEST(SimTimeTest, StringRendering) {
  EXPECT_EQ((2_s).str(), "2.000s");
  EXPECT_EQ((46_ms).str(), "46.000ms");
}

TEST(BandwidthTest, ConstructorsAndConversions) {
  EXPECT_DOUBLE_EQ(Bandwidth::mbps(100).bits_per_second(), 100e6);
  EXPECT_DOUBLE_EQ(Bandwidth::gbps(1).megabits_per_second(), 1000.0);
  EXPECT_DOUBLE_EQ(Bandwidth::mbps(8).bytes_per_second(), 1e6);
}

TEST(BandwidthTest, TransmitTime) {
  // 1500 bytes at 100 Mbit/s = 120 microseconds.
  EXPECT_EQ(Bandwidth::mbps(100).transmit_time(1500), 120_us);
}

TEST(BandwidthTest, ThroughputOf) {
  const Bandwidth bw = throughput_of(mib(1), 1_s);
  EXPECT_NEAR(bw.megabits_per_second(), 8.389, 0.01);
  EXPECT_DOUBLE_EQ(throughput_of(100, SimTime::zero()).bits_per_second(), 0.0);
}

TEST(UnitsTest, ByteFormatting) {
  EXPECT_EQ(format_bytes(mib(64)), "64MB");
  EXPECT_EQ(format_bytes(kib(512)), "512KB");
  EXPECT_EQ(format_bytes(100), "100B");
}

TEST(RngTest, Determinism) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a.next_u64() == b.next_u64()) ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(0, 6);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 6);
    saw_lo |= v == 0;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  OnlineStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.add(rng.normal(10.0, 2.0));
  }
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(3);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += rng.chance(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(RngTest, ForkIndependence) {
  Rng parent(5);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  EXPECT_NE(c1.next_u64(), c2.next_u64());
  // Forking does not perturb the parent stream.
  Rng parent_again(5);
  (void)parent_again.fork(1);
  Rng p_copy(5);
  EXPECT_EQ(parent_again.next_u64(), p_copy.next_u64());
}

TEST(RngTest, DiscardSkipsThatManyDraws) {
  for (const std::uint64_t n : {0u, 1u, 2u, 3u, 1533u}) {
    Rng drawn(29);
    for (std::uint64_t i = 0; i < n; ++i) {
      (void)drawn.next_u64();
    }
    Rng skipped(29);
    skipped.discard(n);
    EXPECT_EQ(skipped.next_u64(), drawn.next_u64()) << "n = " << n;
  }
}

TEST(RngTest, HashStable) {
  EXPECT_EQ(Rng::hash("abilene"), Rng::hash("abilene"));
  EXPECT_NE(Rng::hash("ucsb"), Rng::hash("uiuc"));
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(StatsTest, OnlineStatsBasics) {
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StatsTest, PercentileInterpolation) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.25), 1.75);
}

TEST(StatsTest, PercentileSingleElement) {
  const std::vector<double> xs{42.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.99), 42.0);
}

TEST(StatsTest, BoxStats) {
  std::vector<double> xs;
  for (int i = 1; i <= 101; ++i) {
    xs.push_back(static_cast<double>(i));
  }
  const BoxStats b = BoxStats::of(xs);
  EXPECT_DOUBLE_EQ(b.min, 1.0);
  EXPECT_DOUBLE_EQ(b.median, 51.0);
  EXPECT_DOUBLE_EQ(b.q25, 26.0);
  EXPECT_DOUBLE_EQ(b.q75, 76.0);
  EXPECT_DOUBLE_EQ(b.max, 101.0);
  EXPECT_EQ(b.count, 101u);
}

TEST(StatsTest, PercentileRankBelow) {
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) {
    xs.push_back(i < 40 ? 0.9 : 1.1);  // 40% below 1.0
  }
  EXPECT_DOUBLE_EQ(percentile_rank_below(xs, 1.0), 40.0);
}

TEST(TableTest, AlignedPrinting) {
  Table t({"size", "speedup"});
  t.add_row({"1MB", "1.05"});
  t.add_row({"64MB", "1.09"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("size"), std::string::npos);
  EXPECT_NE(out.find("64MB"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TableTest, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(FigureDataTest, SeriesOutput) {
  FigureData fig("Fig 2", "size_mb", {"direct", "lsl"});
  fig.add_point(1.0, {4.2, 5.3});
  fig.add_point(64.0, {10.1, 18.2});
  std::ostringstream os;
  fig.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("# Fig 2"), std::string::npos);
  EXPECT_NE(out.find("size_mb,direct,lsl"), std::string::npos);
  EXPECT_NE(out.find("64.000000,10.100000,18.200000"), std::string::npos);
}

}  // namespace
}  // namespace lsl
