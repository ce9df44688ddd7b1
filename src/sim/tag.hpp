// Event category tags: what the kernel profile counts schedules by.
//
// A tag is a static name ("net.link.propagate") plus the layer that owns it.
// Each call site interns its tag once, as a namespace-scope constant, and
// gets a small process-wide id; the kernel then counts schedules in a fixed
// array indexed by that id, so schedule_at does no hashing and no lookup.
// Interning the same name twice yields the same id, so one tag may be
// declared in several translation units.
#pragma once

#include <cstddef>
#include <cstdint>

namespace lsl::sim {

/// The layer an event belongs to, for the profile's per-layer breakdown.
enum class Layer : std::uint8_t { kSim, kNet, kTcp, kLsl, kFault, kFlow, kObs };

inline constexpr std::size_t kLayerCount = 7;

/// "sim", "net", "tcp", "lsl", "fault", "flow" or "obs".
[[nodiscard]] const char* to_string(Layer layer);

class Tag {
 public:
  /// Ids 1..kMaxTags-1 name interned tags; id 0 is "untagged".
  static constexpr std::size_t kMaxTags = 64;

  /// The untagged tag: the event is counted in no category.
  constexpr Tag() = default;

  /// Intern `name` (a string with static storage duration) in `layer`.
  /// Declare once per call site, at namespace scope:
  ///   const sim::Tag kPropagate{"net.link.propagate", sim::Layer::kNet};
  Tag(const char* name, Layer layer);

  [[nodiscard]] std::uint8_t id() const { return id_; }
  [[nodiscard]] bool tagged() const { return id_ != 0; }
  /// The interned name, or nullptr when untagged.
  [[nodiscard]] const char* name() const;
  [[nodiscard]] Layer layer() const;

  /// Number of ids in use so far, counting the untagged id 0.
  [[nodiscard]] static std::size_t id_count();
  [[nodiscard]] static Tag from_id(std::uint8_t id);

 private:
  std::uint8_t id_ = 0;
};

}  // namespace lsl::sim
