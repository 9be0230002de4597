#pragma once

#include <charconv>
#include <optional>
#include <string_view>
#include <type_traits>

/// The one parser for unsigned numbers typed by a user — CLI flags, spec
/// text, policy names, host entries and MFLUSH_* variables.
namespace mflush {

/// All of `text` as a decimal integer that fits `T`: no sign, no space, no
/// trailing character, and no value above T's maximum (a value the caller
/// would truncate is a typo, not a request). nullopt otherwise.
template <class T>
[[nodiscard]] std::optional<T> parse_unsigned(std::string_view text) {
  static_assert(std::is_unsigned_v<T>);
  T v{};
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || ptr != text.data() + text.size())
    return std::nullopt;
  return v;
}

}  // namespace mflush
