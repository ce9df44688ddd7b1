#include "lsl/endpoint.hpp"

#include <utility>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace lsl::session {

LslSource::Ptr LslSource::start(tcp::TcpStack& stack, const TransferSpec& spec,
                                Rng& rng) {
  LSL_ASSERT_MSG(spec.dst != net::kInvalidNode || spec.multicast.has_value(),
                 "transfer needs a destination or a multicast tree");
  LSL_ASSERT_MSG(spec.streams >= 1, "streams must be positive");
  LSL_ASSERT_MSG(spec.streams == 1 ||
                     (!spec.async_session && !spec.multicast.has_value()),
                 "striping composes with unicast sessions only");
  LSL_ASSERT_MSG(spec.resume_offset == 0 ||
                     (spec.streams == 1 && !spec.async_session &&
                      !spec.multicast.has_value()),
                 "resume composes with single-stream unicast sessions only");

  auto source = Ptr(new LslSource());
  source->id_ = spec.session_id.value_or(SessionId::random(rng));

  SessionHeader base_header;
  base_header.session_id = source->id_;
  base_header.src = stack.node_id();
  base_header.src_port = 0;
  base_header.dst = spec.dst;
  base_header.dst_port = kLslPort;
  base_header.payload_bytes = spec.payload_bytes;
  base_header.async_session = spec.async_session;
  base_header.multicast = spec.multicast;
  base_header.resume_offset = spec.resume_offset;

  net::NodeId first_hop = spec.dst;
  if (spec.multicast.has_value()) {
    LSL_ASSERT_MSG(!spec.multicast->entries.empty(), "empty multicast tree");
    first_hop = spec.multicast->entries.front().node;
  } else if (!spec.via.empty()) {
    first_hop = spec.via.front();
    base_header.loose_route.assign(spec.via.begin() + 1, spec.via.end());
  }

  const std::uint64_t per_stripe = spec.payload_bytes / spec.streams;
  for (std::uint16_t s = 0; s < spec.streams; ++s) {
    SessionHeader header = base_header;
    Stripe stripe;
    stripe.remaining = (s + 1 == spec.streams)
                           ? spec.payload_bytes - per_stripe * (spec.streams - 1)
                           : per_stripe;
    header.payload_bytes = stripe.remaining;
    if (spec.streams > 1) {
      header.stripe = StripeInfo{s, spec.streams};
    }
    stripe.conn = stack.connect(first_hop, kLslPort, spec.tcp);
    auto* conn = stripe.conn.get();
    const std::size_t index = source->stripes_.size();
    // The source object stays alive through the socket callbacks.
    conn->on_connected = [source, conn, header, index] {
      const auto bytes = encode(header);
      const std::uint64_t n = conn->write_bytes(bytes);
      LSL_ASSERT_MSG(n == bytes.size(),
                     "send buffer must accommodate the session header");
      source->pump(index);
    };
    conn->on_writable = [source, index] { source->pump(index); };
    source->stripes_.push_back(std::move(stripe));
  }
  return source;
}

void LslSource::pump(std::size_t stripe_index) {
  Stripe& stripe = stripes_[stripe_index];
  if (stripe.finished) {
    return;
  }
  while (stripe.remaining > 0) {
    const std::uint64_t sent = stripe.conn->write_synthetic(stripe.remaining);
    if (sent == 0) {
      return;
    }
    stripe.remaining -= sent;
  }
  stripe.finished = true;
  stripe.conn->close();
  stripe.conn->on_writable = nullptr;
  if (++stripes_finished_ == stripes_.size() && on_sent) {
    on_sent();
  }
}

AsyncFetcher::Ptr AsyncFetcher::start(tcp::TcpStack& stack, net::NodeId depot,
                                      const SessionId& id,
                                      const tcp::TcpOptions& options) {
  auto fetcher = Ptr(new AsyncFetcher());
  fetcher->started_at_ = stack.simulator().now();

  SessionHeader request;
  request.type = SessionType::kFetch;
  request.session_id = id;
  request.src = stack.node_id();
  request.dst = depot;
  request.dst_port = kLslPort;

  fetcher->sim_ = &stack.simulator();
  fetcher->conn_ = stack.connect(depot, kLslPort, options);
  auto* conn = fetcher->conn_.get();
  conn->on_connected = [conn, request] {
    const auto bytes = encode(request);
    conn->write_bytes(bytes);
    conn->close();  // request fully stated; response flows back
  };
  conn->on_readable = [fetcher] { fetcher->on_readable(); };
  conn->on_eof = [fetcher] {
    fetcher->on_readable();
    if (fetcher->header_.has_value()) {
      if (fetcher->on_complete) {
        Result result;
        result.header = *fetcher->header_;
        result.bytes = fetcher->payload_;
        result.elapsed = fetcher->sim_->now() - fetcher->started_at_;
        fetcher->on_complete(result);
      }
    } else if (fetcher->on_error) {
      fetcher->on_error();
    }
  };
  // Abnormal teardown (depot reset, connect timeout) is reported directly;
  // on_closed additionally catches local aborts on malformed responses.
  conn->on_error = [fetcher](tcp::ConnectionError e) {
    LSL_DEBUG("fetch: connection %s", tcp::to_string(e));
    if (fetcher->on_error) {
      fetcher->on_error();
      fetcher->on_error = nullptr;
    }
  };
  conn->on_closed = [fetcher] {
    if (!fetcher->header_.has_value() && fetcher->on_error) {
      fetcher->on_error();
      fetcher->on_error = nullptr;
    }
  };
  return fetcher;
}

void AsyncFetcher::on_readable() {
  if (!header_.has_value()) {
    SessionHeader header;
    const auto read = [this](std::uint64_t max) { return conn_->read(max); };
    switch (read_header(read, hdr_buf_, header)) {
      case HeaderRead::kNeedMore:
        return;
      case HeaderRead::kHeader:
        header_ = std::move(header);
        break;
      case HeaderRead::kMalformed:
        conn_->abort();
        return;
    }
  }
  while (true) {
    if (conn_->readable_bytes() == 0) {
      return;
    }
    const auto r = conn_->read(conn_->readable_bytes());
    if (r.n == 0) {
      return;
    }
    payload_ += r.n;
  }
}

}  // namespace lsl::session
