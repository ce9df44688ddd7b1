#include "tcp/recv_buffer.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace lsl::tcp {

std::uint64_t RecvBuffer::window() const {
  // Advertised from the in-order frontier only: held out-of-order data does
  // not shrink the offered window (it lives within it), so duplicate ACKs
  // during loss recovery all carry the same advertisement -- real stacks
  // behave this way and Reno's dup-ack counting depends on it.
  const std::uint64_t held = rcv_nxt_ - delivered_;
  return held >= capacity_ ? 0 : capacity_ - held;
}

RecvBuffer::AcceptResult RecvBuffer::on_segment(
    std::uint64_t seq, std::uint64_t len, std::span<const std::byte> content) {
  AcceptResult result;
  if (len == 0) {
    return result;
  }
  std::uint64_t begin = seq;
  std::uint64_t end = seq + len;

  // Stash any real content immediately (idempotent; retransmits overwrite
  // with identical bytes). Content is only ever a prefix of the stream.
  if (!content.empty()) {
    const std::uint64_t content_end = seq + content.size();
    if (prefix_store_.size() < content_end) {
      prefix_store_.resize(content_end);
    }
    std::copy(content.begin(), content.end(),
              prefix_store_.begin() + static_cast<std::ptrdiff_t>(seq));
  }

  // Trim below the in-order frontier (duplicate data).
  begin = std::max(begin, rcv_nxt_);
  // Clamp to the window: never admit bytes beyond what we advertised.
  const std::uint64_t limit = delivered_ + capacity_;
  end = std::min(end, limit);
  if (begin >= end) {
    return result;
  }

  if (begin == rcv_nxt_) {
    rcv_nxt_ = end;
    result.accepted += end - begin;
    result.advanced = true;
    merge_ooo();
  } else {
    const std::uint64_t offset = begin;
    // Insert [begin, end) into the disjoint OOO set, clipping overlaps.
    auto it = ooo_.lower_bound(begin);
    if (it != ooo_.begin()) {
      auto prev = std::prev(it);
      const std::uint64_t prev_end = prev->first + prev->second;
      begin = std::max(begin, prev_end);
    }
    while (begin < end) {
      it = ooo_.lower_bound(begin);
      std::uint64_t piece_end = end;
      if (it != ooo_.end()) {
        piece_end = std::min(piece_end, it->first);
      }
      if (begin < piece_end) {
        ooo_.emplace_hint(it, begin, piece_end - begin);
        ooo_bytes_ += piece_end - begin;
        result.accepted += piece_end - begin;
      }
      if (it == ooo_.end()) {
        break;
      }
      begin = std::max(begin, it->first + it->second);
    }
    // Remember the held block this piece landed in, for SACK recency
    // ordering. The piece is covered now, and held blocks are never split
    // or merged, so the block stays as it is while held.
    const auto held = std::prev(ooo_.upper_bound(offset));
    recent_head_ = (recent_head_ + kRecentOoo - 1) % kRecentOoo;
    recent_ooo_[recent_head_] = {held->first, held->first + held->second};
    recent_count_ = std::min(recent_count_ + 1, kRecentOoo);
  }
  return result;
}

void RecvBuffer::merge_ooo() {
  auto it = ooo_.begin();
  while (it != ooo_.end() && it->first <= rcv_nxt_) {
    const std::uint64_t seg_end = it->first + it->second;
    if (seg_end > rcv_nxt_) {
      rcv_nxt_ = seg_end;
    }
    ooo_bytes_ -= it->second;
    it = ooo_.erase(it);
  }
}

std::size_t RecvBuffer::ooo_ranges(
    std::span<std::pair<std::uint64_t, std::uint64_t>> out) const {
  std::size_t n = 0;
  auto push_range = [&](std::uint64_t begin, std::uint64_t end) {
    for (std::size_t i = 0; i < n; ++i) {
      if (out[i].first == begin) {
        return;
      }
    }
    if (n < out.size()) {
      out[n++] = {begin, end};
    }
  };
  // Most recently changed blocks first (real SACK option ordering). Every
  // held block starts above rcv_nxt_, and merge_ooo() drops a block as soon
  // as rcv_nxt_ reaches its start, so a recent block is still held iff it
  // starts above rcv_nxt_.
  for (std::size_t i = 0; i < recent_count_; ++i) {
    if (n == out.size()) {
      break;
    }
    const auto& block = recent_ooo_[(recent_head_ + i) % kRecentOoo];
    if (block.first > rcv_nxt_) {
      push_range(block.first, block.second);
    }  // else stale: merged into the in-order stream
  }
  // Fill any remaining slots lowest-first.
  for (const auto& [start, len] : ooo_) {
    if (n == out.size()) {
      break;
    }
    push_range(start, start + len);
  }
  return n;
}

RecvBuffer::ReadResult RecvBuffer::read(std::uint64_t max) {
  ReadResult r;
  r.n = std::min(max, readable());
  if (r.n == 0) {
    return r;
  }
  if (delivered_ < prefix_store_.size()) {
    const std::uint64_t stop =
        std::min<std::uint64_t>(prefix_store_.size(), delivered_ + r.n);
    r.real_bytes.assign(
        prefix_store_.begin() + static_cast<std::ptrdiff_t>(delivered_),
        prefix_store_.begin() + static_cast<std::ptrdiff_t>(stop));
  }
  delivered_ += r.n;
  return r;
}

}  // namespace lsl::tcp
