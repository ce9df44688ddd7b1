#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "util/assert.hpp"

namespace lsl::obs {

namespace {

bool g_metrics_enabled = true;

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string json_number(double v) {
  // JSON has no inf/nan; clamp to a value a loader will notice.
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

// ---------------------------------------------------------------------------
// Histogram

void HistogramTally::observe(const std::vector<double>& bounds, double v) {
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), v);
  ++buckets[static_cast<std::size_t>(it - bounds.begin())];
  if (count == 0) {
    min = v;
    max = v;
  } else {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  ++count;
}

void HistogramTally::merge(const HistogramTally& other) {
  LSL_ASSERT(buckets.size() == other.buckets.size());
  if (other.count == 0) {
    return;
  }
  if (count == 0) {
    min = other.min;
    max = other.max;
  } else {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
  count += other.count;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
}

Histogram::Histogram(std::string name, std::vector<double> bounds)
    : name_(std::move(name)),
      bounds_(std::move(bounds)),
      tally_(bounds_.size()) {
  LSL_ASSERT_MSG(!bounds_.empty(), "histogram needs at least one bucket");
  LSL_ASSERT_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                 "histogram bounds must ascend");
}

void Histogram::observe(double v) {
  tally_.observe(bounds_, v);
  sum_ += v;
}

void Histogram::add(const HistogramTally& tally,
                    std::span<const double> values) {
  LSL_ASSERT(tally.count == values.size());
  tally_.merge(tally);
  for (const double v : values) {
    sum_ += v;
  }
}

double Histogram::quantile(double q) const {
  const HistogramTally& t = tally_;
  if (t.count == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(t.count);
  double cum = 0.0;
  for (std::size_t i = 0; i < t.buckets.size(); ++i) {
    const double next = cum + static_cast<double>(t.buckets[i]);
    if (next >= target && t.buckets[i] > 0) {
      // Interpolate within bucket i: [lower, upper].
      const double lower = i == 0 ? t.min : bounds_[i - 1];
      const double upper = i < bounds_.size() ? bounds_[i] : t.max;
      const double frac =
          (target - cum) / static_cast<double>(t.buckets[i]);
      const double v = lower + frac * (upper - lower);
      return std::clamp(v, t.min, t.max);
    }
    cum = next;
  }
  return t.max;
}

std::vector<double> linear_buckets(double start, double width,
                                   std::size_t count) {
  LSL_ASSERT(count > 0 && width > 0.0);
  std::vector<double> bounds;
  bounds.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(start + width * static_cast<double>(i + 1));
  }
  return bounds;
}

std::vector<double> exponential_buckets(double start, double factor,
                                        std::size_t count) {
  LSL_ASSERT(count > 0 && start > 0.0 && factor > 1.0);
  std::vector<double> bounds;
  bounds.reserve(count);
  double v = start;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(v);
    v *= factor;
  }
  return bounds;
}

// ---------------------------------------------------------------------------
// Registry

Registry::Registry() {
  static std::atomic<std::uint64_t> next_uid{1};
  uid_ = next_uid.fetch_add(1, std::memory_order_relaxed);
}

const std::string& Registry::Entry::name() const {
  switch (kind) {
    case Kind::kCounter:
      return counter->name();
    case Kind::kGauge:
      return gauge->name();
    case Kind::kHistogram:
      return histogram->name();
  }
  LSL_ASSERT(false);
  return counter->name();
}

Registry::Entry* Registry::find(std::string_view name, Kind kind) {
  for (auto& entry : entries_) {
    if (entry.name() == name) {
      LSL_ASSERT_MSG(entry.kind == kind,
                     "metric re-registered with a different type");
      return &entry;
    }
  }
  return nullptr;
}

Counter& Registry::counter(std::string_view name) {
  if (Entry* e = find(name, Kind::kCounter)) {
    return *e->counter;
  }
  Entry entry;
  entry.kind = Kind::kCounter;
  entry.counter.reset(new Counter(std::string(name)));
  entries_.push_back(std::move(entry));
  return *entries_.back().counter;
}

Gauge& Registry::gauge(std::string_view name) {
  if (Entry* e = find(name, Kind::kGauge)) {
    return *e->gauge;
  }
  Entry entry;
  entry.kind = Kind::kGauge;
  entry.gauge.reset(new Gauge(std::string(name)));
  entries_.push_back(std::move(entry));
  return *entries_.back().gauge;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds) {
  if (Entry* e = find(name, Kind::kHistogram)) {
    return *e->histogram;
  }
  Entry entry;
  entry.kind = Kind::kHistogram;
  entry.histogram.reset(new Histogram(std::string(name), std::move(bounds)));
  entries_.push_back(std::move(entry));
  return *entries_.back().histogram;
}

Histogram& Registry::histogram_exp(std::string_view name, double base,
                                   std::size_t count) {
  return histogram(name, exponential_buckets(base, 2.0, count));
}

void Registry::reset_values() {
  for (auto& entry : entries_) {
    switch (entry.kind) {
      case Kind::kCounter:
        entry.counter->value_ = 0;
        break;
      case Kind::kGauge:
        entry.gauge->value_ = 0.0;
        entry.gauge->high_water_ = 0.0;
        break;
      case Kind::kHistogram: {
        auto& h = *entry.histogram;
        h.tally_ = HistogramTally(h.bounds_.size());
        h.sum_ = 0.0;
        break;
      }
    }
  }
}

std::string Registry::to_json() const {
  std::string counters;
  std::string gauges;
  std::string histograms;
  for (const auto& entry : entries_) {
    switch (entry.kind) {
      case Kind::kCounter: {
        if (!counters.empty()) {
          counters += ",";
        }
        counters += "\n    \"" + json_escape(entry.counter->name()) +
                    "\": " + std::to_string(entry.counter->value());
        break;
      }
      case Kind::kGauge: {
        if (!gauges.empty()) {
          gauges += ",";
        }
        gauges += "\n    \"" + json_escape(entry.gauge->name()) +
                  "\": {\"value\": " + json_number(entry.gauge->value()) +
                  ", \"high_water\": " +
                  json_number(entry.gauge->high_water()) + "}";
        break;
      }
      case Kind::kHistogram: {
        const auto& h = *entry.histogram;
        if (!histograms.empty()) {
          histograms += ",";
        }
        std::string buckets;
        for (std::size_t i = 0; i < h.bucket_counts().size(); ++i) {
          if (i > 0) {
            buckets += ", ";
          }
          const std::string le =
              i < h.bounds().size() ? json_number(h.bounds()[i]) : "\"+inf\"";
          buckets += "{\"le\": " + le +
                     ", \"n\": " + std::to_string(h.bucket_counts()[i]) + "}";
        }
        histograms += "\n    \"" + json_escape(h.name()) +
                      "\": {\"count\": " + std::to_string(h.count()) +
                      ", \"sum\": " + json_number(h.sum()) +
                      ", \"min\": " + json_number(h.min()) +
                      ", \"max\": " + json_number(h.max()) +
                      ", \"p50\": " + json_number(h.quantile(0.50)) +
                      ", \"p90\": " + json_number(h.quantile(0.90)) +
                      ", \"p99\": " + json_number(h.quantile(0.99)) +
                      ", \"p999\": " + json_number(h.quantile(0.999)) +
                      ", \"buckets\": [" + buckets + "]}";
        break;
      }
    }
  }
  std::string out = "{\n  \"counters\": {";
  out += counters;
  out += counters.empty() ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  out += gauges;
  out += gauges.empty() ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  out += histograms;
  out += histograms.empty() ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

bool Registry::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << to_json();
  return static_cast<bool>(out);
}

void Registry::merge_from(const Registry& other) {
  for (const auto& entry : other.entries_) {
    switch (entry.kind) {
      case Kind::kCounter:
        counter(entry.counter->name()).inc(entry.counter->value());
        break;
      case Kind::kGauge: {
        Gauge& g = gauge(entry.gauge->name());
        g.set(entry.gauge->value());
        if (entry.gauge->high_water() > g.high_water_) {
          g.high_water_ = entry.gauge->high_water();
        }
        break;
      }
      case Kind::kHistogram: {
        const Histogram& src = *entry.histogram;
        Histogram& dst = histogram(src.name(), src.bounds());
        LSL_ASSERT_MSG(dst.bounds_ == src.bounds_,
                       "histogram merged with different buckets");
        if (src.count() > 0) {
          dst.tally_.merge(src.tally_);
          dst.sum_ += src.sum_;
        }
        break;
      }
    }
  }
}

namespace {
// Per-thread redirect for Registry::global(); see ScopedRegistry.
thread_local Registry* t_scoped_registry = nullptr;
}  // namespace

Registry& Registry::global() {
  if (t_scoped_registry != nullptr) {
    return *t_scoped_registry;
  }
  return process_global();
}

Registry& Registry::process_global() {
  static Registry registry;
  return registry;
}

ScopedRegistry::ScopedRegistry(Registry& registry)
    : previous_(t_scoped_registry) {
  t_scoped_registry = &registry;
}

ScopedRegistry::~ScopedRegistry() { t_scoped_registry = previous_; }

// ---------------------------------------------------------------------------
// Enable switch

bool metrics_enabled() { return g_metrics_enabled; }

void set_metrics_enabled(bool enabled) { g_metrics_enabled = enabled; }

void init_metrics_from_env() {
  if (const char* v = std::getenv("LSL_METRICS")) {
    if (std::strcmp(v, "off") == 0 || std::strcmp(v, "0") == 0) {
      g_metrics_enabled = false;
    } else {
      g_metrics_enabled = true;
    }
  }
}

}  // namespace lsl::obs
