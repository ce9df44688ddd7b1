// Observability layer: metrics registry semantics, histogram quantiles
// against the exact percentile in util/stats, and the span stream's Chrome
// trace_event export.
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace lsl {
namespace {

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON syntax checker, enough to assert that the
// exporters emit structurally valid documents (no external dependency).

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  [[nodiscard]] bool valid() {
    pos_ = 0;
    if (!value()) {
      return false;
    }
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(const char* word) {
    const std::size_t n = std::string(word).size();
    if (text_.compare(pos_, n, word) != 0) {
      return false;
    }
    pos_ += n;
    return true;
  }

  bool string() {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;  // accept any escaped character
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) {
      return false;
    }
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool digits = false;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      digits = true;
      ++pos_;
    }
    return digits && pos_ > start;
  }

  bool value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      return false;
    }
    switch (text_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) {
        return false;
      }
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return false;
      }
      ++pos_;
      if (!value()) {
        return false;
      }
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    if (pos_ >= text_.size() || text_[pos_] != '}') {
      return false;
    }
    ++pos_;
    return true;
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      if (!value()) {
        return false;
      }
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    if (pos_ >= text_.size() || text_[pos_] != ']') {
      return false;
    }
    ++pos_;
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Instruments

TEST(ObsMetricsTest, CounterSemantics) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  // Lazy registration returns the same instrument for the same name.
  EXPECT_EQ(&reg.counter("test.counter"), &c);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(ObsMetricsTest, GaugeTracksHighWater) {
  obs::Registry reg;
  obs::Gauge& g = reg.gauge("test.gauge");
  g.set(5.0);
  g.set(9.0);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(g.high_water(), 9.0);
  g.add(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), 0.5);
  EXPECT_DOUBLE_EQ(g.high_water(), 9.0);
}

TEST(ObsMetricsTest, HistogramBucketsAndMoments) {
  obs::Registry reg;
  obs::Histogram& h =
      reg.histogram("test.hist", obs::linear_buckets(0.0, 10.0, 3));
  // Bounds 10, 20, 30 plus an overflow bucket.
  h.observe(5.0);    // <= 10
  h.observe(10.0);   // <= 10 (bounds are upper-inclusive)
  h.observe(15.0);   // <= 20
  h.observe(100.0);  // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 130.0);
  EXPECT_DOUBLE_EQ(h.mean(), 32.5);
  EXPECT_DOUBLE_EQ(h.min(), 5.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 0u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
}

TEST(ObsMetricsTest, HistogramQuantileMatchesExactPercentile) {
  obs::Registry reg;
  const double width = 5.0;
  obs::Histogram& h =
      reg.histogram("test.quantiles", obs::linear_buckets(0.0, width, 40));
  std::vector<double> xs;
  // Deterministic, non-uniform sample spread across the bucket range.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 2000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double v = 1.0 + static_cast<double>(state % 19000) / 100.0;
    xs.push_back(v);
    h.observe(v);
  }
  // Bucketed quantiles are exact to within a bucket width of the true
  // order-statistic percentile (a second width absorbs the two methods'
  // boundary conventions).
  for (const double q : {0.10, 0.25, 0.50, 0.90, 0.99}) {
    EXPECT_NEAR(h.quantile(q), percentile(xs, q), 2 * width)
        << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.quantile(0.0), h.min());
  EXPECT_DOUBLE_EQ(h.quantile(1.0), h.max());
}

TEST(ObsMetricsTest, ExponentialHistogramLayoutAndTail) {
  obs::Registry reg;
  // Bounds 1, 2, 4, ..., 128 plus the overflow bucket.
  obs::Histogram& h = reg.histogram_exp("test.exp", 1.0, 8);
  ASSERT_EQ(h.bounds().size(), 8u);
  for (std::size_t i = 0; i < h.bounds().size(); ++i) {
    EXPECT_DOUBLE_EQ(h.bounds()[i], static_cast<double>(1u << i));
  }
  // Same name returns the same instrument regardless of constructor used.
  EXPECT_EQ(&reg.histogram_exp("test.exp", 1.0, 8), &h);
  EXPECT_EQ(&reg.histogram("test.exp", {}), &h);

  // A heavy-tailed sample: 990 fast observations, 10 slow outliers. The
  // tail quantiles must see the outliers even though the mean barely moves.
  for (int i = 0; i < 990; ++i) {
    h.observe(1.5);
  }
  for (int i = 0; i < 10; ++i) {
    h.observe(100.0);
  }
  EXPECT_LE(h.quantile(0.90), 2.0);
  EXPECT_GT(h.quantile(0.999), 64.0);
  EXPECT_LE(h.quantile(0.999), 128.0);
}

TEST(ObsMetricsTest, JsonExportsTailQuantiles) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram_exp("test.latency", 1.0, 6);
  for (int i = 0; i < 100; ++i) {
    h.observe(static_cast<double>(i % 10) + 1.0);
  }
  const std::string json = reg.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"p90\""), std::string::npos);
  EXPECT_NE(json.find("\"p999\""), std::string::npos);
}

TEST(ObsMetricsTest, RegistryResetKeepsRegistrations) {
  obs::Registry reg;
  reg.counter("a").inc(7);
  reg.gauge("b").set(3.0);
  reg.histogram("c", obs::linear_buckets(1.0, 1.0, 2)).observe(1.5);
  reg.reset_values();
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.counter("a").value(), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("b").value(), 0.0);
  EXPECT_DOUBLE_EQ(reg.gauge("b").high_water(), 0.0);
  EXPECT_EQ(reg.histogram("c", {}).count(), 0u);
}

TEST(ObsMetricsTest, RegistryJsonIsWellFormed) {
  obs::Registry reg;
  reg.counter("tcp.conn.retransmits").inc(3);
  reg.gauge("lsl.depot.buffer_occupancy").set(4096.0);
  reg.histogram("tcp.conn.rtt_ms", obs::exponential_buckets(1.0, 2.0, 4))
      .observe(7.5);
  const std::string json = reg.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"tcp.conn.retransmits\": 3"), std::string::npos);
}

TEST(ObsMetricsTest, JsonNumberRoundTripsEveryDouble) {
  const double awkward[] = {0.1,
                            1.0 / 3.0,
                            std::numeric_limits<double>::denorm_min() * 3,
                            std::nextafter(std::numeric_limits<double>::max(),
                                           0.0),
                            -2.5e-300,
                            0.0,
                            123456789.0};
  for (const double x : awkward) {
    const std::string text = obs::json_number(x);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), x) << text;
  }
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(obs::json_number(std::nan("")), "null");
}

TEST(ObsMetricsTest, JsonSeesTheLastBitOfAHistogramSum) {
  // The same three values in the opposite order: equal counts, buckets,
  // min and max, and sums one ulp apart ((0.1+0.2)+0.3 vs (0.3+0.2)+0.1).
  obs::Registry forward;
  obs::Registry backward;
  const auto bounds = obs::linear_buckets(0.0, 0.25, 4);
  for (const double v : {0.1, 0.2, 0.3}) {
    forward.histogram("h", bounds).observe(v);
  }
  for (const double v : {0.3, 0.2, 0.1}) {
    backward.histogram("h", bounds).observe(v);
  }
  ASSERT_NE(forward.histogram("h", bounds).sum(),
            backward.histogram("h", bounds).sum());
  EXPECT_NE(forward.to_json(), backward.to_json());
}

// ---------------------------------------------------------------------------
// Chrome trace export of the span stream

TEST(ObsTraceTest, ChromeTraceJsonShape) {
  // Every shape the stream can hold: a begin/end pair, a complete span, an
  // instant, spans left open, a follows-from link and session-less events.
  constexpr std::uint64_t kSession = 0xabcdef0123456789;
  obs::SpanRecorder spans(0);
  const auto fault =
      spans.begin(SimTime::microseconds(500), obs::SpanKind::kFaultWindow, 0,
                  0, 0, "depot-crash", 7.0);
  const auto session =
      spans.begin(SimTime::milliseconds(1), obs::SpanKind::kSession, kSession);
  const auto attempt = spans.begin(SimTime::milliseconds(1),
                                   obs::SpanKind::kAttempt, kSession, session);
  spans.complete(SimTime::milliseconds(2), SimTime::milliseconds(3),
                 obs::SpanKind::kStall, kSession, attempt, "stall");
  spans.end(SimTime::milliseconds(5), obs::SpanKind::kAttempt, attempt,
            kSession, "failed");
  const auto resume =
      spans.instant(SimTime::milliseconds(6), obs::SpanKind::kResume,
                    kSession, session, attempt, "retry", 1234.0);
  spans.begin(SimTime::milliseconds(6), obs::SpanKind::kAttempt, kSession,
              session, resume);
  spans.end(SimTime::milliseconds(7), obs::SpanKind::kFaultWindow, fault, 0);
  spans.instant(SimTime::milliseconds(8), obs::SpanKind::kRouteDecision, 0, 0,
                0, "keep");

  const std::string json = spans.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_EQ(json.front(), '[');

  // One line per Chrome event, in stream order: ts/dur in microseconds,
  // dur on complete ('X') events only, each span tree on the track named by
  // its root's id, parentless instants on track 0.
  const std::vector<std::string> want = {
      R"({"name": "fault_window", "cat": "span", "ph": "B", "ts": 500.000, )"
      R"("pid": 1, "tid": 1, "args": {"id": 1, "parent": 0, "follows": 0, )"
      R"("session": "0000000000000000", "reason": "depot-crash", "value": 7}})",
      R"({"name": "session", "cat": "span", "ph": "B", "ts": 1000.000, )"
      R"("pid": 1, "tid": 2, "args": {"id": 2, "parent": 0, "follows": 0, )"
      R"("session": "abcdef0123456789", "reason": "", "value": 0}})",
      R"({"name": "attempt", "cat": "span", "ph": "B", "ts": 1000.000, )"
      R"("pid": 1, "tid": 2, "args": {"id": 3, "parent": 2, "follows": 0, )"
      R"("session": "abcdef0123456789", "reason": "", "value": 0}})",
      R"({"name": "stall", "cat": "span", "ph": "X", "ts": 2000.000, )"
      R"("dur": 3000.000, )"
      R"("pid": 1, "tid": 2, "args": {"id": 4, "parent": 3, "follows": 0, )"
      R"("session": "abcdef0123456789", "reason": "stall", "value": 0}})",
      R"({"name": "attempt", "cat": "span", "ph": "E", "ts": 5000.000, )"
      R"("pid": 1, "tid": 2, "args": {"id": 3, "parent": 0, "follows": 0, )"
      R"("session": "abcdef0123456789", "reason": "failed", "value": 0}})",
      R"({"name": "resume", "cat": "span", "ph": "i", "ts": 6000.000, )"
      R"("pid": 1, "tid": 2, "args": {"id": 5, "parent": 2, "follows": 3, )"
      R"("session": "abcdef0123456789", "reason": "retry", "value": 1234}})",
      R"({"name": "attempt", "cat": "span", "ph": "B", "ts": 6000.000, )"
      R"("pid": 1, "tid": 2, "args": {"id": 6, "parent": 2, "follows": 5, )"
      R"("session": "abcdef0123456789", "reason": "", "value": 0}})",
      R"({"name": "fault_window", "cat": "span", "ph": "E", "ts": 7000.000, )"
      R"("pid": 1, "tid": 1, "args": {"id": 1, "parent": 0, "follows": 0, )"
      R"("session": "0000000000000000", "reason": "", "value": 0}})",
      R"({"name": "route_decision", "cat": "span", "ph": "i", "ts": 8000.000, )"
      R"("pid": 1, "tid": 0, "args": {"id": 7, "parent": 0, "follows": 0, )"
      R"("session": "0000000000000000", "reason": "keep", "value": 0}})",
  };
  std::vector<std::string> events;
  std::istringstream lines(json);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("  {", 0) == 0) {
      if (line.back() == ',') {
        line.pop_back();
      }
      events.push_back(line.substr(2));
    }
  }
  ASSERT_EQ(events.size(), spans.snapshot().size()) << json;
  EXPECT_EQ(events, want) << json;
}

// ---------------------------------------------------------------------------
// Kernel profile

const sim::Tag kTickTag{"test.tick", sim::Layer::kSim};

TEST(ObsKernelTest, ProfileCountsCategoriesAndHighWater) {
  sim::Simulator simulator;
  simulator.set_profiling(true);
  for (int i = 0; i < 5; ++i) {
    simulator.schedule_after(SimTime::milliseconds(i + 1), [] {}, kTickTag);
  }
  const auto cancelled =
      simulator.schedule_after(SimTime::seconds(1), [] {}, kTickTag);
  simulator.schedule_after(SimTime::milliseconds(10), [] {});  // untagged
  ASSERT_TRUE(simulator.cancel(cancelled));
  simulator.run();

  const auto profile = simulator.profile();
  EXPECT_EQ(profile.events_scheduled, 7u);
  EXPECT_EQ(profile.events_executed, 6u);
  EXPECT_EQ(profile.events_cancelled, 1u);
  EXPECT_GE(profile.queue_high_water, 7u);
  // The cancelled event is tombstoned, never dispatched: the clock stops at
  // the last executed event.
  EXPECT_EQ(profile.sim_time, SimTime::milliseconds(10));
  EXPECT_GT(profile.wall_seconds, 0.0);
  ASSERT_EQ(profile.category_counts.size(), 1u);
  EXPECT_EQ(profile.category_counts[0].first, "test.tick");
  EXPECT_EQ(profile.category_counts[0].second, 6u);
  EXPECT_FALSE(profile.str().empty());
}

TEST(ObsKernelTest, ProfileMergeAccumulates) {
  sim::KernelProfile a;
  a.events_scheduled = 10;
  a.events_executed = 8;
  a.queue_high_water = 4;
  a.sim_time = SimTime::seconds(2);
  a.wall_seconds = 0.5;
  a.category_counts = {{"net.link.tx", 6}, {"tcp.rto", 2}};
  sim::KernelProfile b;
  b.events_scheduled = 5;
  b.events_executed = 5;
  b.queue_high_water = 9;
  b.sim_time = SimTime::seconds(1);
  b.wall_seconds = 0.25;
  b.category_counts = {{"net.link.tx", 1}};

  a.merge_from(b);
  EXPECT_EQ(a.events_scheduled, 15u);
  EXPECT_EQ(a.events_executed, 13u);
  EXPECT_EQ(a.queue_high_water, 9u);
  EXPECT_EQ(a.sim_time, SimTime::seconds(3));
  EXPECT_DOUBLE_EQ(a.wall_seconds, 0.75);
  ASSERT_EQ(a.category_counts.size(), 2u);
  EXPECT_EQ(a.category_counts[0].first, "net.link.tx");
  EXPECT_EQ(a.category_counts[0].second, 7u);
}

TEST(ObsKernelTest, CountsNamedOnceEqualTheProfileFold) {
  // Three runs over four tags, with ties inside one run and across the
  // total, folded both ways: KernelProfile::merge_from of each run's
  // profile, and KernelCounts summed raw and named once.
  static const sim::Tag kA{"test.counts.a", sim::Layer::kNet};
  static const sim::Tag kB{"test.counts.b", sim::Layer::kTcp};
  static const sim::Tag kC{"test.counts.c", sim::Layer::kFlow};
  static const sim::Tag kD{"test.counts.d", sim::Layer::kLsl};
  const std::vector<std::vector<std::pair<const sim::Tag*, int>>> runs = {
      {{&kA, 3}, {&kB, 3}, {&kC, 1}},
      {{&kB, 2}, {&kD, 5}},
      {{&kA, 2}, {&kC, 4}, {&kD, 1}},
  };
  sim::KernelProfile fold;
  sim::KernelCounts counts;
  for (const auto& run : runs) {
    sim::Simulator simulator;
    for (const auto& [tag, n] : run) {
      for (int i = 0; i < n; ++i) {
        simulator.schedule_after(SimTime::milliseconds(i + 1), [] {}, *tag);
      }
    }
    simulator.schedule_after(SimTime::seconds(1), [] {});  // untagged
    simulator.run();
    fold.merge_from(simulator.profile());
    simulator.add_counts_to(counts);
  }
  const sim::KernelProfile named = counts.profile();
  EXPECT_EQ(named.category_counts, fold.category_counts);
  EXPECT_EQ(named.layer_counts, fold.layer_counts);
  EXPECT_EQ(named.queue_high_water, fold.queue_high_water);
  EXPECT_EQ(named.events_scheduled, fold.events_scheduled);
  EXPECT_EQ(named.events_executed, fold.events_executed);
  EXPECT_EQ(named.events_cancelled, fold.events_cancelled);
  EXPECT_EQ(named.sim_time, fold.sim_time);
  // The totals tie (a 5, b 5, d 6, c 5): the tie order is the fold's too.
  ASSERT_EQ(named.category_counts.size(), 4u);
  EXPECT_EQ(named.category_counts[0].first, "test.counts.d");
}

TEST(ObsKernelTest, ExportMetricsPublishesKernelGauges) {
  sim::Simulator simulator;
  simulator.schedule_after(SimTime::milliseconds(1), [] {});
  simulator.run();
  obs::Registry reg;
  simulator.profile().export_metrics(reg);
  EXPECT_DOUBLE_EQ(reg.gauge("sim.kernel.events_executed").value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.gauge("sim.kernel.sim_seconds").value(), 0.001);
  EXPECT_TRUE(JsonChecker(reg.to_json()).valid());
}

}  // namespace
}  // namespace lsl
