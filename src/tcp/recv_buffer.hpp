// Receiver-side socket buffer with out-of-order segment reassembly.
//
// Tracks three frontiers over absolute stream offsets:
//   delivered_  -- next byte the application will read,
//   rcv_nxt_    -- next byte expected from the network (in-order frontier),
//   OOO ranges  -- segments above rcv_nxt_ held for reassembly.
// The advertised window is the buffer space not occupied by undelivered
// in-order data or held out-of-order data.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

namespace lsl::tcp {

class RecvBuffer {
 public:
  explicit RecvBuffer(std::uint64_t capacity) : capacity_(capacity) {}

  struct AcceptResult {
    /// Bytes newly admitted (after trimming overlap and window clamping).
    std::uint64_t accepted = 0;
    /// Whether rcv_nxt advanced (caller delivers readable-notification).
    bool advanced = false;
  };

  /// Offer segment [seq, seq+len) with optional real content bytes aligned
  /// at `seq`. Data beyond the window is trimmed; duplicates are ignored.
  AcceptResult on_segment(std::uint64_t seq, std::uint64_t len,
                          std::span<const std::byte> content);

  struct ReadResult {
    std::uint64_t n = 0;                ///< bytes consumed
    std::vector<std::byte> real_bytes;  ///< real content at the front, if any
  };

  /// Consume up to `max` in-order bytes.
  ReadResult read(std::uint64_t max);

  [[nodiscard]] std::uint64_t readable() const { return rcv_nxt_ - delivered_; }
  [[nodiscard]] std::uint64_t rcv_nxt() const { return rcv_nxt_; }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }

  /// Current advertised window: free buffer space above rcv_nxt.
  [[nodiscard]] std::uint64_t window() const;

  [[nodiscard]] std::uint64_t ooo_bytes() const { return ooo_bytes_; }

  /// The receiver's SACK report: up to out.size() held out-of-order
  /// ranges, as (begin, end) data offsets, written to the front of `out`;
  /// returns how many. Ordered like the real option: the block containing
  /// the most recently arrived segment first, then other recently changed
  /// blocks, then lowest-first fill.
  std::size_t ooo_ranges(
      std::span<std::pair<std::uint64_t, std::uint64_t>> out) const;

 private:
  static constexpr std::size_t kRecentOoo = 8;

  void merge_ooo();

  std::uint64_t capacity_;
  std::uint64_t delivered_ = 0;
  std::uint64_t rcv_nxt_ = 0;
  std::map<std::uint64_t, std::uint64_t> ooo_;  ///< start -> length, disjoint
  std::uint64_t ooo_bytes_ = 0;
  /// The held blocks the last kRecentOoo OOO pieces landed in, as (begin,
  /// end), a ring read most recent first from recent_head_ (for SACK block
  /// ordering). Stale entries are filtered lazily.
  std::array<std::pair<std::uint64_t, std::uint64_t>, kRecentOoo>
      recent_ooo_{};
  std::size_t recent_head_ = 0;
  std::size_t recent_count_ = 0;
  std::vector<std::byte> prefix_store_;  ///< real bytes for offsets [0, size())
};

}  // namespace lsl::tcp
