#include "sim/tag.hpp"

#include <array>
#include <atomic>
#include <cstring>
#include <mutex>

#include "util/assert.hpp"

namespace lsl::sim {

namespace {

struct TagInfo {
  const char* name = nullptr;
  Layer layer = Layer::kSim;
};

// Constant-initialized, so tags interned during static initialization of
// any translation unit find the table ready. Entries below g_count are
// written once, before the release store that publishes them.
constinit std::array<TagInfo, Tag::kMaxTags> g_tags{};
constinit std::atomic<std::size_t> g_count{1};
constinit std::mutex g_intern_mutex;

}  // namespace

const char* to_string(Layer layer) {
  constexpr std::array<const char*, kLayerCount> kNames = {
      "sim", "net", "tcp", "lsl", "fault", "flow", "obs"};
  return kNames[static_cast<std::size_t>(layer)];
}

Tag::Tag(const char* name, Layer layer) {
  LSL_ASSERT(name != nullptr);
  const std::lock_guard<std::mutex> lock(g_intern_mutex);
  const std::size_t count = g_count.load(std::memory_order_relaxed);
  for (std::size_t id = 1; id < count; ++id) {
    if (std::strcmp(g_tags[id].name, name) == 0) {
      LSL_ASSERT_MSG(g_tags[id].layer == layer,
                     "one tag name interned in two layers");
      id_ = static_cast<std::uint8_t>(id);
      return;
    }
  }
  LSL_ASSERT_MSG(count < kMaxTags, "too many event tags");
  g_tags[count] = TagInfo{name, layer};
  g_count.store(count + 1, std::memory_order_release);
  id_ = static_cast<std::uint8_t>(count);
}

const char* Tag::name() const { return g_tags[id_].name; }

Layer Tag::layer() const { return g_tags[id_].layer; }

std::size_t Tag::id_count() { return g_count.load(std::memory_order_acquire); }

Tag Tag::from_id(std::uint8_t id) {
  LSL_ASSERT(id < id_count());
  Tag tag;
  tag.id_ = id;
  return tag;
}

}  // namespace lsl::sim
