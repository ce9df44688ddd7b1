#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "tcp/recv_buffer.hpp"
#include "tcp/rtt_estimator.hpp"
#include "tcp/send_buffer.hpp"
#include "util/rng.hpp"

namespace lsl::tcp {
namespace {

using namespace lsl::time_literals;

std::vector<std::byte> bytes_of(const char* s) {
  std::vector<std::byte> v(std::strlen(s));
  std::memcpy(v.data(), s, v.size());
  return v;
}

TEST(SendBufferTest, SyntheticAccounting) {
  SendBuffer buf(1000);
  EXPECT_EQ(buf.append_synthetic(600), 600u);
  EXPECT_EQ(buf.used(), 600u);
  EXPECT_EQ(buf.free_space(), 400u);
  EXPECT_EQ(buf.append_synthetic(600), 400u);  // clipped to capacity
  EXPECT_EQ(buf.free_space(), 0u);
}

TEST(SendBufferTest, ReleaseFreesSpace) {
  SendBuffer buf(1000);
  buf.append_synthetic(1000);
  buf.release_through(250);
  EXPECT_EQ(buf.head(), 250u);
  EXPECT_EQ(buf.free_space(), 250u);
  // Releasing backwards is a no-op.
  buf.release_through(100);
  EXPECT_EQ(buf.head(), 250u);
}

TEST(SendBufferTest, RealPrefixThenSynthetic) {
  SendBuffer buf(1000);
  const auto header = bytes_of("HDR!");
  EXPECT_EQ(buf.append_bytes(header), 4u);
  EXPECT_EQ(buf.append_synthetic(100), 100u);
  const auto slice = buf.content_slice(0, 4);
  ASSERT_EQ(slice.size(), 4u);
  EXPECT_EQ(std::memcmp(slice.data(), "HDR!", 4), 0);
}

TEST(SendBufferTest, ContentSlicePartialOverlap) {
  SendBuffer buf(1000);
  buf.append_bytes(bytes_of("ABCDEFGH"));
  buf.append_synthetic(92);
  const auto mid = buf.content_slice(4, 100);
  ASSERT_EQ(mid.size(), 4u);  // only EFGH is real
  EXPECT_EQ(std::memcmp(mid.data(), "EFGH", 4), 0);
  EXPECT_TRUE(buf.content_slice(8, 10).empty());
  EXPECT_TRUE(buf.content_slice(50, 10).empty());
}

TEST(RecvBufferTest, InOrderDelivery) {
  RecvBuffer buf(1000);
  const auto r = buf.on_segment(0, 100, {});
  EXPECT_TRUE(r.advanced);
  EXPECT_EQ(buf.readable(), 100u);
  EXPECT_EQ(buf.read(60).n, 60u);
  EXPECT_EQ(buf.readable(), 40u);
  EXPECT_EQ(buf.read(1000).n, 40u);
}

TEST(RecvBufferTest, OutOfOrderReassembly) {
  RecvBuffer buf(10000);
  EXPECT_FALSE(buf.on_segment(100, 100, {}).advanced);
  EXPECT_EQ(buf.readable(), 0u);
  EXPECT_EQ(buf.ooo_bytes(), 100u);
  const auto r = buf.on_segment(0, 100, {});
  EXPECT_TRUE(r.advanced);
  EXPECT_EQ(buf.readable(), 200u);  // hole filled, OOO merged
  EXPECT_EQ(buf.ooo_bytes(), 0u);
}

TEST(RecvBufferTest, DuplicateSegmentsIgnored) {
  RecvBuffer buf(10000);
  buf.on_segment(0, 100, {});
  const auto dup = buf.on_segment(0, 100, {});
  EXPECT_FALSE(dup.advanced);
  EXPECT_EQ(dup.accepted, 0u);
  EXPECT_EQ(buf.readable(), 100u);
}

TEST(RecvBufferTest, OverlappingRetransmitTrimmed) {
  RecvBuffer buf(10000);
  buf.on_segment(0, 150, {});
  const auto r = buf.on_segment(100, 100, {});  // 100 old + 100 new? no: 50 old
  EXPECT_TRUE(r.advanced);
  EXPECT_EQ(buf.readable(), 200u);
}

TEST(RecvBufferTest, MultipleOooRangesMergeInOrder) {
  RecvBuffer buf(100000);
  buf.on_segment(200, 100, {});
  buf.on_segment(400, 100, {});
  buf.on_segment(100, 100, {});
  EXPECT_EQ(buf.readable(), 0u);
  buf.on_segment(0, 100, {});
  EXPECT_EQ(buf.readable(), 300u);  // 0..300 contiguous; 400..500 still OOO
  EXPECT_EQ(buf.ooo_bytes(), 100u);
  buf.on_segment(300, 100, {});
  EXPECT_EQ(buf.readable(), 500u);
  EXPECT_EQ(buf.ooo_bytes(), 0u);
}

TEST(RecvBufferTest, WindowShrinksWithUnreadData) {
  RecvBuffer buf(1000);
  EXPECT_EQ(buf.window(), 1000u);
  buf.on_segment(0, 400, {});
  EXPECT_EQ(buf.window(), 600u);
  buf.read(400);
  EXPECT_EQ(buf.window(), 1000u);
}

TEST(RecvBufferTest, DataBeyondWindowClamped) {
  RecvBuffer buf(1000);
  const auto r = buf.on_segment(0, 5000, {});
  EXPECT_TRUE(r.advanced);
  EXPECT_EQ(r.accepted, 1000u);
  EXPECT_EQ(buf.readable(), 1000u);
  EXPECT_EQ(buf.window(), 0u);
}

TEST(RecvBufferTest, OooDataDoesNotShrinkAdvertisedWindow) {
  // Held out-of-order data lives *within* the offered window; advertising
  // from the in-order frontier keeps dup-ACK windows stable during loss.
  RecvBuffer buf(1000);
  buf.on_segment(500, 300, {});
  EXPECT_EQ(buf.window(), 1000u);
  EXPECT_EQ(buf.ooo_bytes(), 300u);
}

TEST(RecvBufferTest, OooRangesRecencyOrdering) {
  RecvBuffer buf(100000);
  buf.on_segment(100, 50, {});
  buf.on_segment(300, 50, {});
  buf.on_segment(500, 50, {});
  std::pair<std::uint64_t, std::uint64_t> ranges[4];
  ASSERT_EQ(buf.ooo_ranges(ranges), 3u);
  // Most recently arrived block first.
  EXPECT_EQ(ranges[0].first, 500u);
  EXPECT_EQ(ranges[1].first, 300u);
  EXPECT_EQ(ranges[2].first, 100u);
}

TEST(RecvBufferTest, OooRangesCapped) {
  RecvBuffer buf(1000000);
  for (int i = 0; i < 10; ++i) {
    buf.on_segment(100 + 200 * static_cast<std::uint64_t>(i), 50, {});
  }
  std::pair<std::uint64_t, std::uint64_t> ranges[4];
  EXPECT_EQ(buf.ooo_ranges(ranges), 4u);
}

/// The out-of-order bookkeeping and SACK report of RecvBuffer as they were
/// when the report came back as a fresh vector per ACK: the reference the
/// in-place fill must reproduce block for block. Never reads, so the window
/// limit stays at `capacity`.
class VectorSackReference {
 public:
  explicit VectorSackReference(std::uint64_t capacity) : capacity_(capacity) {}

  void on_segment(std::uint64_t seq, std::uint64_t len) {
    if (len == 0) {
      return;
    }
    std::uint64_t begin = std::max(seq, rcv_nxt_);
    const std::uint64_t end = std::min(seq + len, capacity_);
    if (begin >= end) {
      return;
    }
    if (begin == rcv_nxt_) {
      rcv_nxt_ = end;
      auto it = ooo_.begin();
      while (it != ooo_.end() && it->first <= rcv_nxt_) {
        rcv_nxt_ = std::max(rcv_nxt_, it->first + it->second);
        it = ooo_.erase(it);
      }
      return;
    }
    recent_.push_front(begin);
    if (recent_.size() > 8) {
      recent_.pop_back();
    }
    auto it = ooo_.lower_bound(begin);
    if (it != ooo_.begin()) {
      const auto prev = std::prev(it);
      begin = std::max(begin, prev->first + prev->second);
    }
    while (begin < end) {
      it = ooo_.lower_bound(begin);
      std::uint64_t piece_end = end;
      if (it != ooo_.end()) {
        piece_end = std::min(piece_end, it->first);
      }
      if (begin < piece_end) {
        ooo_.emplace(begin, piece_end - begin);
      }
      if (it == ooo_.end()) {
        break;
      }
      begin = std::max(begin, it->first + it->second);
    }
  }

  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges(
      std::size_t max_blocks) const {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    auto push_range = [&](std::uint64_t begin, std::uint64_t end) {
      for (const auto& r : out) {
        if (r.first == begin) {
          return;
        }
      }
      if (out.size() < max_blocks) {
        out.emplace_back(begin, end);
      }
    };
    for (const std::uint64_t offset : recent_) {
      if (out.size() == max_blocks) {
        break;
      }
      auto it = ooo_.upper_bound(offset);
      if (it == ooo_.begin()) {
        continue;
      }
      --it;
      if (offset >= it->first && offset < it->first + it->second) {
        push_range(it->first, it->first + it->second);
      }
    }
    for (const auto& [start, len] : ooo_) {
      if (out.size() == max_blocks) {
        break;
      }
      push_range(start, start + len);
    }
    return out;
  }

 private:
  std::uint64_t capacity_;
  std::uint64_t rcv_nxt_ = 0;
  std::map<std::uint64_t, std::uint64_t> ooo_;
  std::deque<std::uint64_t> recent_;
};

TEST(RecvBufferTest, InPlaceSackFillMatchesVectorReport) {
  // Seeded arrival orders with holes: whole segments shuffled, some lost
  // for good, some resent (duplicates), plus overlapping odd-sized pieces
  // that exercise the clipping. After every arrival the in-place report
  // must equal the old per-ACK vector, block for block and in order.
  constexpr std::uint64_t kSeg = 1000;
  constexpr std::uint64_t kSegments = 200;
  std::size_t compared_blocks = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> arrivals;
    for (std::uint64_t i = 0; i < kSegments; ++i) {
      if (!rng.chance(0.1)) {  // ~10% never arrive: permanent holes
        arrivals.emplace_back(i * kSeg, kSeg);
      }
      if (rng.chance(0.05)) {
        arrivals.emplace_back(i * kSeg, kSeg);  // a retransmission
      }
      if (rng.chance(0.05)) {
        const std::uint64_t start = i * kSeg + rng.next_below(kSeg);
        const std::uint64_t len = 1 + rng.next_below(3 * kSeg);
        arrivals.emplace_back(start, len);
      }
    }
    for (std::size_t i = arrivals.size(); i > 1; --i) {
      std::swap(arrivals[i - 1], arrivals[rng.next_below(i)]);
    }
    const std::uint64_t capacity = (kSegments - 20) * kSeg;  // clamps some
    RecvBuffer buf(capacity);
    VectorSackReference ref(capacity);
    for (const auto& [seq, len] : arrivals) {
      buf.on_segment(seq, len, {});
      ref.on_segment(seq, len);
      std::pair<std::uint64_t, std::uint64_t> got[4];
      const std::size_t n = buf.ooo_ranges(got);
      const auto want = ref.ranges(4);
      ASSERT_EQ(n, want.size()) << "seed " << seed;
      for (std::size_t b = 0; b < n; ++b) {
        ASSERT_EQ(got[b], want[b]) << "seed " << seed << " block " << b;
      }
      compared_blocks += n;
    }
  }
  EXPECT_GT(compared_blocks, 1000u);
}

TEST(RecvBufferTest, ContentPrefixSurvivesReassembly) {
  RecvBuffer buf(10000);
  // Content arrives out of order in two pieces.
  auto part2 = bytes_of("WORLD");
  buf.on_segment(5, 5, part2);
  auto part1 = bytes_of("HELLO");
  buf.on_segment(0, 5, part1);
  const auto r = buf.read(10);
  ASSERT_EQ(r.n, 10u);
  ASSERT_EQ(r.real_bytes.size(), 10u);
  EXPECT_EQ(std::memcmp(r.real_bytes.data(), "HELLOWORLD", 10), 0);
}

TEST(RecvBufferTest, ReadPastContentReturnsOnlyRealPart) {
  RecvBuffer buf(10000);
  auto hdr = bytes_of("HDR");
  buf.on_segment(0, 500, hdr);  // 3 real bytes + 497 synthetic
  const auto r = buf.read(500);
  EXPECT_EQ(r.n, 500u);
  ASSERT_EQ(r.real_bytes.size(), 3u);
  EXPECT_EQ(std::memcmp(r.real_bytes.data(), "HDR", 3), 0);
  // Subsequent reads have no real content.
  buf.on_segment(500, 100, {});
  EXPECT_TRUE(buf.read(100).real_bytes.empty());
}

TEST(RttEstimatorTest, FirstSampleInitializes) {
  RttEstimator est;
  EXPECT_FALSE(est.has_sample());
  est.add_sample(100_ms);
  EXPECT_TRUE(est.has_sample());
  EXPECT_EQ(est.srtt(), 100_ms);
  EXPECT_EQ(est.rttvar(), 50_ms);
  // rto = srtt + 4*rttvar = 300ms
  EXPECT_EQ(est.rto(), 300_ms);
}

TEST(RttEstimatorTest, SmoothingConverges) {
  RttEstimator est;
  for (int i = 0; i < 100; ++i) {
    est.add_sample(80_ms);
  }
  EXPECT_NEAR(est.srtt().to_milliseconds(), 80.0, 1.0);
  // With zero variance the RTO clamps to kMinRto... srtt + small var.
  EXPECT_GE(est.rto(), kMinRto);
}

TEST(RttEstimatorTest, BackoffDoubles) {
  RttEstimator est;
  est.add_sample(100_ms);
  const SimTime before = est.rto();
  est.backoff();
  EXPECT_EQ(est.rto(), before * 2);
  est.backoff();
  EXPECT_EQ(est.rto(), before * 4);
}

TEST(RttEstimatorTest, BackoffClampsAtMax) {
  RttEstimator est;
  est.add_sample(1_s);
  for (int i = 0; i < 20; ++i) {
    est.backoff();
  }
  EXPECT_EQ(est.rto(), kMaxRto);
}

TEST(RttEstimatorTest, NewSampleResetsBackoff) {
  RttEstimator est;
  est.add_sample(100_ms);
  est.backoff();
  est.backoff();
  est.add_sample(100_ms);
  EXPECT_LT(est.rto(), 1_s);
}

}  // namespace
}  // namespace lsl::tcp
