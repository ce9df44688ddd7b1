// Whole-string number parsing for command-line values: an unchecked
// strtoull/strtod would quietly read "banana" as 0.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>
#include <type_traits>

namespace lsl {

/// The whole of `text` as a T, or nullopt. Unsigned values take no sign;
/// floating values must be finite.
template <typename T>
[[nodiscard]] std::optional<T> parse_number(const std::string& text,
                                            int base = 10) {
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  T value{};
  bool ok = false;
  if constexpr (std::is_floating_point_v<T>) {
    value = std::strtod(begin, &end);
    ok = std::isfinite(value);
  } else {
    value = std::strtoull(begin, &end, base);
    ok = std::isxdigit(static_cast<unsigned char>(text[0])) != 0;
  }
  if (!ok || errno != 0 || end == begin || *end != '\0') {
    return std::nullopt;
  }
  return value;
}

}  // namespace lsl
