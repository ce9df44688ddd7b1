#include "tcp/sack.hpp"

#include <algorithm>
#include <utility>

namespace lsl::tcp {

void SackScoreboard::add(std::uint64_t begin, std::uint64_t end) {
  if (begin >= end) {
    return;
  }
  // Absorb every range overlapping or adjacent to [begin, end).
  auto it = ranges_.lower_bound(begin);
  if (it != ranges_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= begin) {
      it = prev;
    }
  }
  if (it != ranges_.end() && it->first <= begin && end <= it->second) {
    return;  // already held: most blocks repeat what earlier ACKs reported
  }
  while (it != ranges_.end() && it->first <= end) {
    begin = std::min(begin, it->first);
    end = std::max(end, it->second);
    bytes_ -= it->second - it->first;
    it = ranges_.erase(it);
  }
  ranges_.emplace(begin, end);
  bytes_ += end - begin;
}

void SackScoreboard::prune_below(std::uint64_t seq) {
  auto it = ranges_.begin();
  while (it != ranges_.end() && it->first < seq) {
    if (it->second <= seq) {
      bytes_ -= it->second - it->first;
      it = ranges_.erase(it);
    } else {
      // Re-key the straddling range in its own node: no allocation.
      bytes_ -= seq - it->first;
      auto node = ranges_.extract(it);
      node.key() = seq;
      ranges_.insert(std::move(node));
      break;
    }
  }
}

void SackScoreboard::clear() {
  ranges_.clear();
  bytes_ = 0;
}

std::uint64_t SackScoreboard::bytes_below(std::uint64_t seq) const {
  std::uint64_t total = 0;
  for (const auto& [begin, end] : ranges_) {
    if (begin >= seq) {
      break;
    }
    total += std::min(end, seq) - begin;
  }
  return total;
}

bool SackScoreboard::covers(std::uint64_t seq) const {
  auto it = ranges_.upper_bound(seq);
  if (it == ranges_.begin()) {
    return false;
  }
  --it;
  return seq >= it->first && seq < it->second;
}

SackScoreboard::Hole SackScoreboard::next_hole(std::uint64_t from,
                                               std::uint64_t limit) const {
  std::uint64_t cursor = from;
  auto it = ranges_.upper_bound(cursor);
  if (it != ranges_.begin()) {
    auto prev = std::prev(it);
    if (cursor < prev->second) {
      cursor = prev->second;  // `from` sits inside a sacked range
    }
  }
  Hole hole;
  if (cursor >= limit) {
    return hole;
  }
  hole.begin = cursor;
  hole.end = limit;
  if (it != ranges_.end()) {
    if (it->first < limit) {
      hole.end = it->first;
    }
    hole.bounded = true;  // some SACKed range lies above this gap
  }
  hole.found = hole.begin < hole.end;
  return hole;
}

}  // namespace lsl::tcp
