// One direction of a connection's payload at flow fidelity.
//
// A FluidChannel is the fluid stand-in for a TCP byte stream between two
// sockets: one engine flow (FluidNetwork) plus three levels that change
// linearly between events. The send level holds bytes the application
// queued and the flow has not transmitted, at most the send buffer; a byte
// transmitted at t arrives at t + latency; the receive level holds bytes
// arrived and not yet consumed. Kernel events fire only at rate changes and
// at the level boundaries the two applications care about, so a transfer's
// event count does not grow with its payload.
//
// The sending application either states its intent once (write_stream: n
// synthetic bytes, queued as the send buffer drains) or writes what fits
// (write / write_content) and hears `writable` when the send buffer empties.
// Content bytes (session headers, probe answers) are a prefix of the stream
// and become readable through one arrival marker once the last of them has
// arrived.
//
// The receiving application either states its intent (read_stream: consume
// every synthetic byte as it arrives, reported lazily -- at the stream's
// end, on failure, and whenever the owner asks), hands the stream to a relay
// splice, or reads what is readable: synthetic bytes then become readable in
// steps of a quantum, one arrival marker each. A stepwise reader that takes
// nothing at a step while its unread bytes fill the receive buffer stops the
// sender until it reads again.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "flow/fluid.hpp"

namespace lsl::flow {

class FluidChannel : public std::enable_shared_from_this<FluidChannel> {
 public:
  /// The connection ends' hooks. Each end clears its own when it goes away;
  /// the channel never calls a cleared hook.
  struct SenderHooks {
    /// The send buffer took the application's bytes: after a short write
    /// it emptied, and after write_stream the stream's last byte entered.
    std::function<void()> writable;
    /// Every queued byte has left the sender (arm_drained).
    std::function<void()> drained;
  };
  struct ReceiverHooks {
    /// Content or a step of synthetic bytes became readable.
    std::function<void()> readable;
    /// Every byte through hold_fin's offset has arrived.
    std::function<void()> arrived;
  };

  /// A channel over a new flow of `net`; `spec.latency` is the one-way
  /// latency of a data byte.
  static std::shared_ptr<FluidChannel> open(FluidNetwork& net,
                                            FluidFlowSpec spec,
                                            std::uint64_t send_buffer,
                                            std::uint64_t recv_buffer);

  FluidChannel(const FluidChannel&) = delete;
  FluidChannel& operator=(const FluidChannel&) = delete;

  SenderHooks sender;
  ReceiverHooks receiver;

  // ---- sender ------------------------------------------------------------
  /// Queue real bytes (before any synthetic byte); returns accepted.
  std::uint64_t write_content(std::span<const std::byte> bytes);
  /// Queue up to `n` synthetic bytes, as the send buffer has room; returns
  /// accepted. A short write arms `writable` for when the buffer empties.
  std::uint64_t write(std::uint64_t n);
  /// Queue `n` synthetic bytes as the send buffer drains. True when the
  /// last of them fits now; otherwise `writable` fires once it enters.
  bool write_stream(std::uint64_t n);
  /// Fire `drained` once every byte queued so far has left (once).
  void arm_drained();
  /// Stream offset past the last queued byte.
  [[nodiscard]] std::uint64_t queued() const { return queued_; }
  [[nodiscard]] std::uint64_t transmitted() const;
  [[nodiscard]] bool all_transmitted() const {
    return transmitted() >= queued_;
  }
  /// The sending end is gone: end the flow (bytes in flight are lost).
  void close_sender();

  // ---- receiver ----------------------------------------------------------
  [[nodiscard]] std::uint64_t readable() const;
  /// Consume up to `max` readable bytes; real content lands in `content`.
  std::uint64_t read(std::uint64_t max, std::vector<std::byte>& content);
  /// Consume every synthetic byte as it arrives, reporting counts to `fn`
  /// lazily (sync_stream, reveal). Bytes already readable are reported now.
  void read_stream(std::function<void(std::uint64_t)> fn);
  /// Report every byte arrived by now to the stream reader.
  void sync_stream();
  /// Stop reporting to the stream reader (its owner is going away).
  void drop_reader() { stream_fn_ = nullptr; }
  /// True once every byte before `end` has arrived; they are then revealed
  /// (readable, reported, or handed to the splice). Otherwise `arrived`
  /// fires when they have, after the same reveal.
  bool hold_fin(std::uint64_t end);
  /// The receiving end is gone: the sender stalls once its last window past
  /// what had arrived is out.
  void close_receiver();

  // ---- relay splices -----------------------------------------------------
  /// Hand the rest of the stream, past what was read, to a relay buffer of
  /// `capacity` bytes; returns the splice. `payload` gets the bytes left.
  FluidSpliceId splice_upstream(std::uint64_t capacity,
                                std::uint64_t& payload);
  /// Queue `payload` synthetic bytes supplied by `splice`'s upstream, as
  /// write_stream does: true when the last of them fits the send buffer
  /// now, otherwise `writable` fires once it does.
  bool splice_downstream(FluidSpliceId splice, std::uint64_t payload);

 private:
  FluidChannel(FluidNetwork& net, FluidFlowSpec spec,
               std::uint64_t send_buffer, std::uint64_t recv_buffer);

  enum class Reader { kSteps, kStream, kSpliced };

  [[nodiscard]] std::uint64_t free_space() const;
  void offer(std::uint64_t n);
  void arm_writable(std::uint64_t at);
  /// Make every byte before `end` readable / reported / spliced.
  void reveal(std::uint64_t end);
  /// Keep one arrival marker pending for the next step the reader sees.
  void arm_step();
  void on_step(std::uint64_t end);
  void resume_sender();
  /// Run `fn` on this channel from an engine marker, if it still exists.
  template <typename Fn>
  std::function<void()> guarded(Fn fn) {
    return [weak = weak_from_this(), fn] {
      if (const auto self = weak.lock()) {
        fn(*self);
      }
    };
  }

  FluidNetwork& net_;
  FluidFlowId flow_ = kInvalidFluidFlow;
  std::uint64_t window_;
  std::uint64_t send_buffer_;
  std::uint64_t recv_buffer_;
  std::uint64_t quantum_;  ///< step size: clamp(window, 64 KiB, 4 MiB)

  // Sender side.
  std::uint64_t queued_ = 0;
  std::vector<std::byte> content_;  ///< real bytes, stream offsets [0, n)
  std::uint64_t writable_generation_ = 0;  ///< the live `writable` marker
  bool drained_armed_ = false;
  bool sender_open_ = true;

  // Receiver side.
  Reader reader_ = Reader::kSteps;
  std::function<void(std::uint64_t)> stream_fn_;
  std::uint64_t revealed_ = 0;  ///< bytes readable or consumed
  std::uint64_t consumed_ = 0;  ///< bytes read, reported or spliced
  bool step_armed_ = false;
  bool fin_armed_ = false;
  bool paused_ = false;  ///< the sender waits for the reader
  bool receiver_open_ = true;
};

}  // namespace lsl::flow
