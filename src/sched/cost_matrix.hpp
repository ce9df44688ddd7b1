// The scheduler's input: a fully connected "performance topology" -- an
// N x N matrix of edge costs, where cost is data transfer time per unit
// (1/bandwidth). The paper's key observation is that the input need not be
// the bandwidth available to long-lived flows; any order-preserving metric
// works.
//
// The matrix is plain data: a Scheduler takes it by value and never changes
// it, so fresh forecasts mean a fresh matrix and a fresh Scheduler.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace lsl::sched {

constexpr double kInfiniteCost = std::numeric_limits<double>::infinity();

class CostMatrix {
 public:
  explicit CostMatrix(std::size_t n);

  [[nodiscard]] std::size_t size() const { return n_; }

  /// Direct edge cost i -> j (seconds per megabit; any order-preserving
  /// unit works). Diagonal is 0; absent edges are infinite.
  [[nodiscard]] double cost(std::size_t i, std::size_t j) const;
  void set_cost(std::size_t i, std::size_t j, double cost);

  /// Raw row-major storage: row(i)[j] == cost(i, j). The MMP build's hot
  /// loop reads rows directly instead of paying per-edge bounds checks.
  [[nodiscard]] const double* row(std::size_t i) const {
    return costs_.data() + i * n_;
  }

  /// Convenience: cost = 1 / bandwidth.
  void set_bandwidth(std::size_t i, std::size_t j, Bandwidth bw);
  void set_bandwidth_symmetric(std::size_t i, std::size_t j, Bandwidth bw);

  /// Remove node i from the performance topology: every edge to or from it
  /// becomes infinite (failure blacklisting; the diagonal stays 0).
  void exclude_node(std::size_t i);

  [[nodiscard]] Bandwidth bandwidth(std::size_t i, std::size_t j) const;

  /// Node labels (host names / sites), for reporting and tree-shaping tests.
  void set_label(std::size_t i, std::string name, std::string site = {});
  [[nodiscard]] const std::string& name(std::size_t i) const;
  [[nodiscard]] const std::string& site(std::size_t i) const;

 private:
  std::size_t n_;
  std::vector<double> costs_;  ///< row-major n x n
  std::vector<std::string> names_;
  std::vector<std::string> sites_;
};

}  // namespace lsl::sched
