// The benchmark's own trace: wall-clock spans recorded around each call the
// benchmark makes into a layer of the simulator. Spans nest on one thread;
// each holds a name ("<layer>.<call>"), start, end, parent and the unit id
// shared by every span of one transfer or sweep phase. They stay in memory
// and are written out once, when the benchmark ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  const char* name = "";  ///< static string: "<layer>.<call>"
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t unit = 0;
  Clock::time_point start;
  Clock::time_point end;
};

class SpanLog {
 public:
  /// Open a span under the innermost open one.
  void open(const char* name, std::uint64_t unit);
  /// Close the innermost open span.
  void close();

  /// RAII span: closes on scope exit. A null log records nothing.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, std::uint64_t unit) : log_(log) {
      if (log_ != nullptr) {
        log_->open(name, unit);
      }
    }
    ~Scope() {
      if (log_ != nullptr) {
        log_->close();
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
  };

  /// Self time (duration minus direct children) summed per layer, the
  /// layer being the name's prefix before the first '.'.
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const;

  /// JSON array of {name, id, parent, unit, start_us, dur_us}.
  bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< indices into spans_
};

/// Print the self time per layer of `log` as a table on stdout.
void print_self_times(const SpanLog& log);

}  // namespace perfbench
