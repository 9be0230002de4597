#pragma once

#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/number.h"

/// Environment-variable parsing shared by every MFLUSH_* knob.
///
/// One policy for the whole tree: an *unset* variable means "use the
/// built-in default", but a *malformed* value (empty, non-numeric, trailing
/// junk, or below the minimum) is a hard error naming the variable — a typo
/// in MFLUSH_BENCH_CYCLES must never silently shorten a campaign.
namespace mflush::env {

/// Parse `var` as an unsigned integer in [min, max]. Returns `fallback`
/// when the variable is unset; throws std::runtime_error on any malformed
/// or out-of-range value (from_chars overflow included — a value the
/// caller would truncate is a typo, not a request).
[[nodiscard]] inline std::uint64_t u64_or(
    const char* var, std::uint64_t fallback, std::uint64_t min = 1,
    std::uint64_t max = ~std::uint64_t{0}) {
  const char* raw = std::getenv(var);
  if (raw == nullptr) return fallback;
  const auto v = parse_unsigned<std::uint64_t>(raw);
  if (!v || *v < min || *v > max) {
    throw std::runtime_error(std::string(var) +
                             ": expected an integer in [" +
                             std::to_string(min) + ", " +
                             std::to_string(max) + "], got '" + raw + "'");
  }
  return *v;
}

/// Parse `var` as a boolean flag. Returns `fallback` when the variable is
/// unset; accepts exactly "0"/"false" and "1"/"true" (throws on anything
/// else — "MFLUSH_NO_EVENT_SKIP=yes" silently meaning *unset* is precisely
/// the failure mode this header exists to kill).
[[nodiscard]] inline bool flag_or(const char* var, bool fallback) {
  const char* raw = std::getenv(var);
  if (raw == nullptr) return fallback;
  const std::string_view s(raw);
  if (s == "1" || s == "true") return true;
  if (s == "0" || s == "false") return false;
  throw std::runtime_error(std::string(var) +
                           ": expected 0/1/true/false, got '" +
                           std::string(s) + "'");
}

/// Read `var` as a string. Returns `fallback` when the variable is unset.
/// Strings have no malformed form; any content validation (paths, host
/// lists) stays at the call site — the point of routing through here is
/// that *every* env read is findable and lint-enforced.
[[nodiscard]] inline std::string str_or(const char* var,
                                        const std::string& fallback = {}) {
  const char* raw = std::getenv(var);
  return raw == nullptr ? fallback : std::string(raw);
}

}  // namespace mflush::env
