// Plain-text table and CSV writers used by the benchmark binaries to print
// the paper's tables and figure data series.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace lsl {

/// Column-aligned text table. Usage:
///   Table t({"size", "direct", "lsl", "speedup"});
///   t.add_row({"1MB", "4.21", "4.87", "1.16"});
///   t.print(std::cout);
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  /// Convenience: format doubles with the given precision.
  [[nodiscard]] static std::string num(double v, int precision = 3);
  [[nodiscard]] static std::string num_int(long long v);

  void print(std::ostream& os) const;
  void print_csv(std::ostream& os) const;

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// A named (x, series...) dataset for a figure; prints as CSV with a header
/// so the series can be re-plotted directly.
class FigureData {
 public:
  FigureData(std::string title, std::string x_label,
             std::vector<std::string> series_labels);

  void add_point(double x, std::vector<double> ys);

  void print(std::ostream& os) const;

 private:
  std::string title_;
  std::string x_label_;
  std::vector<std::string> series_labels_;
  std::vector<std::pair<double, std::vector<double>>> points_;
};

}  // namespace lsl
