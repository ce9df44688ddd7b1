#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "util/assert.hpp"

namespace lsl::obs {

namespace {

bool g_metrics_enabled = true;

/// Doubles render shortest-round-trip; integers without a trailing ".0"
/// would also be valid JSON but %.17g keeps both cases readable.
std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  // JSON has no inf/nan; clamp to strings a loader will notice.
  if (std::strstr(buf, "inf") != nullptr || std::strstr(buf, "nan") != nullptr) {
    return "null";
  }
  return buf;
}

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

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::string name, std::vector<double> bounds)
    : name_(std::move(name)), bounds_(std::move(bounds)) {
  LSL_ASSERT_MSG(!bounds_.empty(), "histogram needs at least one bucket");
  LSL_ASSERT_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                 "histogram bounds must ascend");
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  double cum = 0.0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const double next = cum + static_cast<double>(buckets_[i]);
    if (next >= target && buckets_[i] > 0) {
      // Interpolate within bucket i: [lower, upper].
      const double lower = i == 0 ? min_ : bounds_[i - 1];
      const double upper = i < bounds_.size() ? bounds_[i] : max_;
      const double frac =
          (target - cum) / static_cast<double>(buckets_[i]);
      const double v = lower + frac * (upper - lower);
      return std::clamp(v, min_, max_);
    }
    cum = next;
  }
  return max_;
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
        std::fill(h.buckets_.begin(), h.buckets_.end(), 0);
        h.count_ = 0;
        h.sum_ = 0.0;
        h.min_ = 0.0;
        h.max_ = 0.0;
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
        if (src.count_ > 0) {
          if (dst.count_ == 0) {
            dst.min_ = src.min_;
            dst.max_ = src.max_;
          } else {
            dst.min_ = std::min(dst.min_, src.min_);
            dst.max_ = std::max(dst.max_, src.max_);
          }
          dst.count_ += src.count_;
          dst.sum_ += src.sum_;
          for (std::size_t i = 0; i < src.buckets_.size(); ++i) {
            dst.buckets_[i] += src.buckets_[i];
          }
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
