#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "tcp/recv_buffer.hpp"
#include "tcp/rtt_estimator.hpp"
#include "tcp/send_buffer.hpp"

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
  const auto ranges = buf.ooo_ranges(4);
  ASSERT_EQ(ranges.size(), 3u);
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
  EXPECT_EQ(buf.ooo_ranges(4).size(), 4u);
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
