// Packet storage for one simulation: a slab of pinned packet slots, shared
// by all links of a topology, whose slots also link the links' FIFOs.
//
// A link moves each packet it accepts into the slab once and from then on
// queues, serializes, drops and delays it by 4-byte handle. Its drop-tail
// queue and its in-flight FIFO are lists threaded through the slots, as is
// the free list, so a link owns no packet storage of its own. The slab grows
// one chunk at a time and hands out freed slots before fresh ones: it holds
// at most the peak number of packets alive in the simulation, whichever
// links they are on, plus one chunk, and it allocates nothing until the
// first packet is sent. Slots never move.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "util/time.hpp"

namespace lsl::net {

class PacketSlab {
 public:
  using Handle = std::uint32_t;
  static constexpr std::size_t kChunkSize = 64;

  /// A FIFO of stored packets, linked through their slots.
  struct List {
    Handle head = kNil;
    Handle tail = kNil;
    std::size_t size = 0;

    [[nodiscard]] bool empty() const { return size == 0; }
  };

  /// Store `packet` in a free slot.
  Handle put(Packet&& packet) {
    if (free_ == kNil) {
      grow();
    }
    const Handle h = free_;
    Slot& s = slot(h);
    free_ = s.next;
    s.next = kNil;
    s.packet = std::move(packet);
    return h;
  }

  /// Return `h`'s slot to the free list. Real content bytes still held by
  /// the slot are freed now rather than at its next use.
  void release(Handle h) {
    Slot& s = slot(h);
    if (s.packet.content.capacity() != 0) {
      std::vector<std::byte>().swap(s.packet.content);
    }
    s.next = free_;
    free_ = h;
  }

  [[nodiscard]] Packet& packet(Handle h) { return slot(h).packet; }
  /// When the packet reaches the far end of the link it is in flight on.
  [[nodiscard]] SimTime& arrival(Handle h) { return slot(h).arrival; }

  void push_back(List& list, Handle h) {
    if (list.empty()) {
      list.head = h;
    } else {
      slot(list.tail).next = h;
    }
    list.tail = h;
    ++list.size;
  }

  Handle pop_front(List& list) {
    const Handle h = list.head;
    list.head = slot(h).next;
    slot(h).next = kNil;
    if (--list.size == 0) {
      list.tail = kNil;
    }
    return h;
  }

  /// Insert `h` after every packet of `list` arriving no later than it
  /// does: the list stays sorted by arrival, ties in insertion order.
  void insert_by_arrival(List& list, Handle h) {
    const SimTime at = arrival(h);
    if (list.empty() || !(at < arrival(list.tail))) {
      push_back(list, h);
      return;
    }
    Handle prev = kNil;
    Handle cur = list.head;
    while (!(at < arrival(cur))) {  // stops before the tail at the latest
      prev = cur;
      cur = slot(cur).next;
    }
    slot(h).next = cur;
    if (prev == kNil) {
      list.head = h;
    } else {
      slot(prev).next = h;
    }
    ++list.size;
  }

  /// Slots allocated so far: the slab's high water.
  [[nodiscard]] std::size_t capacity() const {
    return chunks_.size() * kChunkSize;
  }

 private:
  static constexpr Handle kNil = ~Handle{0};

  struct Slot {
    Packet packet;
    SimTime arrival;
    Handle next = kNil;  ///< successor in a link's list or the free list
  };

  [[nodiscard]] Slot& slot(Handle h) {
    return chunks_[h / kChunkSize][h % kChunkSize];
  }

  void grow() {
    const auto first = static_cast<Handle>(capacity());
    chunks_.emplace_back(new Slot[kChunkSize]);
    // Thread the fresh chunk onto the free list in address order.
    for (std::size_t i = kChunkSize; i-- > 0;) {
      chunks_.back()[i].next = free_;
      free_ = first + static_cast<Handle>(i);
    }
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  Handle free_ = kNil;  ///< head of the free list
};

}  // namespace lsl::net
