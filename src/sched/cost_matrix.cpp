#include "sched/cost_matrix.hpp"

#include <utility>

#include "util/assert.hpp"

namespace lsl::sched {

CostMatrix::CostMatrix(std::size_t n)
    : n_(n), costs_(n * n, kInfiniteCost), names_(n), sites_(n) {
  for (std::size_t i = 0; i < n; ++i) {
    costs_[i * n + i] = 0.0;
  }
}

double CostMatrix::cost(std::size_t i, std::size_t j) const {
  LSL_ASSERT(i < n_ && j < n_);
  return costs_[i * n_ + j];
}

void CostMatrix::set_cost(std::size_t i, std::size_t j, double cost) {
  LSL_ASSERT(i < n_ && j < n_);
  LSL_ASSERT_MSG(cost >= 0.0, "negative edge cost");
  costs_[i * n_ + j] = cost;
}

void CostMatrix::set_bandwidth(std::size_t i, std::size_t j, Bandwidth bw) {
  LSL_ASSERT_MSG(bw.bits_per_second() > 0.0, "zero bandwidth edge");
  set_cost(i, j, 1.0 / bw.megabits_per_second());
}

void CostMatrix::set_bandwidth_symmetric(std::size_t i, std::size_t j,
                                         Bandwidth bw) {
  set_bandwidth(i, j, bw);
  set_bandwidth(j, i, bw);
}

void CostMatrix::exclude_node(std::size_t i) {
  LSL_ASSERT(i < n_);
  for (std::size_t j = 0; j < n_; ++j) {
    if (j != i) {
      costs_[i * n_ + j] = kInfiniteCost;
      costs_[j * n_ + i] = kInfiniteCost;
    }
  }
}

Bandwidth CostMatrix::bandwidth(std::size_t i, std::size_t j) const {
  const double c = cost(i, j);
  if (c <= 0.0 || c == kInfiniteCost) {
    return Bandwidth{0.0};
  }
  return Bandwidth::mbps(1.0 / c);
}

void CostMatrix::set_label(std::size_t i, std::string name, std::string site) {
  LSL_ASSERT(i < n_);
  names_[i] = std::move(name);
  sites_[i] = std::move(site);
}

const std::string& CostMatrix::name(std::size_t i) const {
  LSL_ASSERT(i < n_);
  return names_[i];
}

const std::string& CostMatrix::site(std::size_t i) const {
  LSL_ASSERT(i < n_);
  return sites_[i];
}

}  // namespace lsl::sched
