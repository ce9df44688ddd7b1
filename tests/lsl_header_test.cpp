#include <gtest/gtest.h>

#include <algorithm>

#include "lsl/header.hpp"
#include "tcp/recv_buffer.hpp"
#include "util/rng.hpp"

namespace lsl::session {
namespace {

SessionHeader sample_header() {
  Rng rng(77);
  SessionHeader h;
  h.session_id = SessionId::random(rng);
  h.src = 3;
  h.src_port = 40000;
  h.dst = 9;
  h.dst_port = kLslPort;
  h.payload_bytes = 64ULL * 1024 * 1024;
  return h;
}

TEST(SessionIdTest, RandomIdsDiffer) {
  Rng rng(1);
  const auto a = SessionId::random(rng);
  const auto b = SessionId::random(rng);
  EXPECT_NE(a, b);
}

TEST(SessionIdTest, StringIs32HexChars) {
  Rng rng(2);
  const auto id = SessionId::random(rng);
  EXPECT_EQ(id.str().size(), 32u);
}

TEST(SessionIdTest, HashConsistent) {
  Rng rng(3);
  const auto id = SessionId::random(rng);
  SessionId copy = id;
  EXPECT_EQ(SessionIdHash{}(id), SessionIdHash{}(copy));
}

TEST(HeaderCodecTest, FixedHeaderRoundTrip) {
  const auto h = sample_header();
  const auto bytes = encode(h);
  EXPECT_EQ(bytes.size(), kFixedHeaderBytes);
  const auto back = decode(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, h);
}

TEST(HeaderCodecTest, LooseSourceRouteRoundTrip) {
  auto h = sample_header();
  h.loose_route = {4, 5, 6};
  const auto bytes = encode(h);
  EXPECT_EQ(bytes.size(), kFixedHeaderBytes + 4 + 12);
  const auto back = decode(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->loose_route, h.loose_route);
  EXPECT_EQ(*back, h);
}

TEST(HeaderCodecTest, MulticastTreeRoundTrip) {
  auto h = sample_header();
  MulticastTree tree;
  tree.entries = {{10, 0}, {11, 0}, {12, 0}, {13, 1}, {14, 1}};
  h.multicast = tree;
  const auto back = decode(encode(h));
  ASSERT_TRUE(back.has_value());
  ASSERT_TRUE(back->multicast.has_value());
  EXPECT_EQ(back->multicast->entries.size(), 5u);
  EXPECT_EQ(*back, h);
}

TEST(HeaderCodecTest, AsyncFlagRoundTrip) {
  auto h = sample_header();
  h.async_session = true;
  const auto back = decode(encode(h));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->async_session);
}

TEST(HeaderCodecTest, AllOptionsTogether) {
  auto h = sample_header();
  h.loose_route = {1, 2};
  h.async_session = true;
  MulticastTree tree;
  tree.entries = {{7, 0}, {8, 0}};
  h.multicast = tree;
  h.type = SessionType::kData;
  const auto bytes = encode(h);
  EXPECT_EQ(bytes.size(), h.encoded_size());
  const auto back = decode(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, h);
}

TEST(HeaderCodecTest, FetchTypeRoundTrip) {
  auto h = sample_header();
  h.type = SessionType::kFetch;
  const auto back = decode(encode(h));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, SessionType::kFetch);
}

TEST(HeaderCodecTest, PeekLengthNeedsPreamble) {
  const auto bytes = encode(sample_header());
  EXPECT_FALSE(peek_header_length({bytes.data(), 7}).has_value());
  const auto len = peek_header_length({bytes.data(), 8});
  ASSERT_TRUE(len.has_value());
  EXPECT_EQ(*len, bytes.size());
}

TEST(HeaderCodecTest, BadMagicRejected) {
  auto bytes = encode(sample_header());
  bytes[0] = std::byte{'X'};
  EXPECT_FALSE(peek_header_length(bytes).has_value());
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(HeaderCodecTest, TruncatedHeaderRejected) {
  const auto bytes = encode(sample_header());
  EXPECT_FALSE(decode({bytes.data(), bytes.size() - 1}).has_value());
}

TEST(HeaderCodecTest, CorruptOptionLengthRejected) {
  auto h = sample_header();
  h.loose_route = {4};
  auto bytes = encode(h);
  // Option length field says 8 bytes but only 4 remain.
  bytes[kFixedHeaderBytes + 2] = std::byte{0};
  bytes[kFixedHeaderBytes + 3] = std::byte{8};
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(HeaderCodecTest, UnknownOptionSkipped) {
  auto h = sample_header();
  auto bytes = encode(h);
  // Append an unknown TLV (type 99, length 4) and patch header_length.
  const std::size_t new_len = bytes.size() + 8;
  bytes[6] = std::byte{static_cast<unsigned char>(new_len >> 8)};
  bytes[7] = std::byte{static_cast<unsigned char>(new_len & 0xFF)};
  bytes.push_back(std::byte{0});
  bytes.push_back(std::byte{99});
  bytes.push_back(std::byte{0});
  bytes.push_back(std::byte{4});
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(std::byte{0xAB});
  }
  const auto back = decode(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->dst, h.dst);
}

/// A byte stream whose bytes arrive in slices: read(max) consumes up to
/// `max` of the bytes delivered so far, as tcp::Connection::read does, and
/// records each `max` asked for.
struct SlicedStream {
  std::vector<std::byte> bytes;
  std::size_t delivered = 0;
  std::size_t consumed = 0;
  std::vector<std::uint64_t> asks;

  tcp::RecvBuffer::ReadResult read(std::uint64_t max) {
    asks.push_back(max);
    const std::size_t n = std::min<std::size_t>(max, delivered - consumed);
    tcp::RecvBuffer::ReadResult r;
    r.n = n;
    r.real_bytes.assign(bytes.begin() + static_cast<std::ptrdiff_t>(consumed),
                        bytes.begin() +
                            static_cast<std::ptrdiff_t>(consumed + n));
    consumed += n;
    return r;
  }
};

TEST(HeaderReadTest, ReassemblesSplitHeadersAndRejectsBadOnes) {
  auto h = sample_header();
  h.loose_route = {4, 5};
  SlicedStream s;
  s.bytes = encode(h);
  const std::size_t len = s.bytes.size();
  s.bytes.resize(len + 100);  // payload behind the header
  const auto read = [&s](std::uint64_t max) { return s.read(max); };
  std::vector<std::byte> buf;
  SessionHeader out;

  // The preamble split across reads, then the rest of the header.
  s.delivered = 3;
  EXPECT_EQ(read_header(read, buf, out), HeaderRead::kNeedMore);
  s.delivered = 10;
  EXPECT_EQ(read_header(read, buf, out), HeaderRead::kNeedMore);
  s.delivered = len - 1;
  EXPECT_EQ(read_header(read, buf, out), HeaderRead::kNeedMore);
  s.delivered = s.bytes.size();
  ASSERT_EQ(read_header(read, buf, out), HeaderRead::kHeader);
  EXPECT_EQ(out, h);
  EXPECT_EQ(s.consumed, len);  // the payload stays unread
  const std::vector<std::uint64_t> asks{8, 5, 5, len - 8, len - 10,
                                        len - 10, 1, 1};
  EXPECT_EQ(s.asks, asks);

  // A length below the fixed header: rejected after the preamble alone.
  SlicedStream bad_length;
  bad_length.bytes = encode(h);
  bad_length.bytes[6] = std::byte{0};
  bad_length.bytes[7] = std::byte{10};
  bad_length.delivered = bad_length.bytes.size();
  const auto read_bad_length = [&bad_length](std::uint64_t max) {
    return bad_length.read(max);
  };
  buf.clear();
  EXPECT_EQ(read_header(read_bad_length, buf, out), HeaderRead::kMalformed);
  EXPECT_EQ(bad_length.consumed, kHeaderPreambleBytes);

  // A whole header whose body does not decode: its option overruns it.
  SlicedStream bad_body;
  bad_body.bytes = encode(h);
  bad_body.bytes[kFixedHeaderBytes + 2] = std::byte{0};
  bad_body.bytes[kFixedHeaderBytes + 3] = std::byte{12};
  bad_body.delivered = bad_body.bytes.size();
  const auto read_bad_body = [&bad_body](std::uint64_t max) {
    return bad_body.read(max);
  };
  buf.clear();
  EXPECT_EQ(read_header(read_bad_body, buf, out), HeaderRead::kMalformed);
  EXPECT_EQ(bad_body.consumed, bad_body.bytes.size());
}

TEST(MulticastTreeTest, ChildrenOf) {
  MulticastTree tree;
  tree.entries = {{10, 0}, {11, 0}, {12, 0}, {13, 1}, {14, 1}};
  EXPECT_EQ(tree.children_of(0), (std::vector<net::NodeId>{11, 12}));
  EXPECT_EQ(tree.children_of(1), (std::vector<net::NodeId>{13, 14}));
  EXPECT_TRUE(tree.children_of(2).empty());
}

TEST(MulticastTreeTest, Find) {
  MulticastTree tree;
  tree.entries = {{10, 0}, {11, 0}};
  EXPECT_EQ(tree.find(11).value(), 1u);
  EXPECT_FALSE(tree.find(99).has_value());
}

}  // namespace
}  // namespace lsl::session
