// LSL session header codec.
//
// Wire layout (big-endian), mirroring the paper's description: a 128-bit
// session id, source/destination address and 16-bit port, 16-bit Version and
// Type fields, and a header-length field because the size varies with
// options. Options are TLVs; currently defined are the loose source route
// (the initiator-specified path through session-layer routers), the
// synchronous multicast staging tree, and the asynchronous-session flag.
//
//   offset  size  field
//   0       2     magic "LS"
//   2       2     version
//   4       2     type
//   6       2     header_length (total bytes including options)
//   8       16    session id
//   24      4     source address (IPv4-sized node id)
//   28      2     source port
//   30      4     destination address
//   34      2     destination port
//   36      8     payload length (bytes following the header)
//   44      ...   options (TLV: u16 type, u16 value length, value)
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "lsl/session_id.hpp"
#include "net/packet.hpp"
#include "util/assert.hpp"

namespace lsl::session {

constexpr std::uint16_t kHeaderVersion = 1;
/// The well-known LSL session-layer port.
constexpr net::Port kLslPort = 4911;
constexpr std::size_t kFixedHeaderBytes = 44;
/// Bytes needed before the total header length is known.
constexpr std::size_t kHeaderPreambleBytes = 8;

enum class SessionType : std::uint16_t {
  kData = 1,   ///< synchronous point-to-point stream
  kFetch = 2,  ///< asynchronous retrieval of a stored session
  /// Recovery probe: "how many bytes of this session did you commit?" The
  /// sink answers with a kOffsetQuery header whose resume_offset carries its
  /// committed byte count, then closes. Carries no payload.
  kOffsetQuery = 3,
};

enum OptionType : std::uint16_t {
  kOptLooseSourceRoute = 1,
  kOptMulticastTree = 2,
  kOptAsyncSession = 3,
  kOptStripe = 4,
  kOptResumeOffset = 5,
};

/// Striped session: this connection carries stripe `index` of `count`
/// parallel serial-socket streams sharing one session id (PSockets-style
/// parallelism composed with logistical forwarding).
struct StripeInfo {
  std::uint16_t index = 0;
  std::uint16_t count = 1;

  friend bool operator==(const StripeInfo&, const StripeInfo&) = default;
};

/// Multicast staging tree: nodes in preorder with parent indices;
/// entry 0 is the root (the first depot) with parent_index == 0.
struct MulticastTree {
  struct Entry {
    net::NodeId node = net::kInvalidNode;
    std::uint16_t parent_index = 0;

    friend bool operator==(const Entry&, const Entry&) = default;
  };
  std::vector<Entry> entries;

  /// Children of the entry at `index`.
  [[nodiscard]] std::vector<net::NodeId> children_of(std::size_t index) const;
  /// Index of `node` in the tree, or nullopt.
  [[nodiscard]] std::optional<std::size_t> find(net::NodeId node) const;

  friend bool operator==(const MulticastTree&, const MulticastTree&) = default;
};

struct SessionHeader {
  std::uint16_t version = kHeaderVersion;
  SessionType type = SessionType::kData;
  SessionId session_id;
  net::NodeId src = net::kInvalidNode;
  net::Port src_port = 0;
  net::NodeId dst = net::kInvalidNode;
  net::Port dst_port = 0;
  std::uint64_t payload_bytes = 0;

  /// Remaining relay hops (not including the final destination).
  std::vector<net::NodeId> loose_route;
  std::optional<MulticastTree> multicast;
  bool async_session = false;
  std::optional<StripeInfo> stripe;
  /// Resumed session: payload starts at this byte of the original stream
  /// (the sink's committed offset); in kOffsetQuery replies, the committed
  /// byte count itself. Zero means a fresh session and is not encoded.
  std::uint64_t resume_offset = 0;

  [[nodiscard]] std::size_t encoded_size() const;

  friend bool operator==(const SessionHeader&, const SessionHeader&) = default;
};

/// Serialize to wire bytes.
[[nodiscard]] std::vector<std::byte> encode(const SessionHeader& header);

/// Total header length from a preamble of >= kHeaderPreambleBytes bytes;
/// nullopt if the magic/version is unrecognizable.
[[nodiscard]] std::optional<std::size_t> peek_header_length(
    std::span<const std::byte> preamble);

/// Parse a complete header; nullopt on malformed input.
[[nodiscard]] std::optional<SessionHeader> decode(
    std::span<const std::byte> bytes);

enum class HeaderRead {
  kNeedMore,   ///< the stream holds no more bytes yet; call again later
  kHeader,     ///< a whole header was read and decoded
  kMalformed,  ///< bad magic, length or body
};

/// Reads one session header off the front of a byte stream. `read(max)`
/// consumes up to `max` bytes and returns {n, real_bytes}, as
/// tcp::Connection::read does. The preamble is read first, then exactly the
/// rest of the header, so payload behind it stays unread. Bytes accumulate
/// in `buf` across calls; on kHeader, `out` holds the decoded header.
template <typename ReadFn>
[[nodiscard]] HeaderRead read_header(ReadFn&& read, std::vector<std::byte>& buf,
                                     SessionHeader& out) {
  while (true) {
    std::size_t want = kHeaderPreambleBytes;
    if (buf.size() >= kHeaderPreambleBytes) {
      const auto total = peek_header_length(buf);
      if (!total.has_value()) {
        return HeaderRead::kMalformed;
      }
      want = *total;
    }
    if (buf.size() >= want) {
      break;
    }
    auto r = read(want - buf.size());
    if (r.n == 0) {
      return HeaderRead::kNeedMore;
    }
    LSL_ASSERT_MSG(r.real_bytes.size() == r.n,
                   "session header bytes must be real content");
    buf.insert(buf.end(), r.real_bytes.begin(), r.real_bytes.end());
  }
  auto parsed = decode(buf);
  if (!parsed.has_value()) {
    return HeaderRead::kMalformed;
  }
  out = std::move(*parsed);
  return HeaderRead::kHeader;
}

}  // namespace lsl::session
