#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

/// The paper's workload table (Fig. 1): 5 workloads per size for 2/4/6/8
/// threads, named xWy, plus the Fig. 5(b) special bzip2/twolf mix.
namespace mflush {

struct Workload {
  std::string name;         ///< e.g. "8W3"
  std::vector<char> codes;  ///< one benchmark code per thread, in core order

  [[nodiscard]] std::uint32_t num_threads() const noexcept {
    return static_cast<std::uint32_t>(codes.size());
  }
  /// Number of 2-context SMT cores this workload occupies (Fig. 1: each
  /// workload of size x runs on x/2 cores).
  [[nodiscard]] std::uint32_t num_cores() const noexcept {
    return num_threads() / 2;
  }
  /// Human-readable benchmark list, e.g. "mcf+gzip".
  [[nodiscard]] std::string describe() const;

  template <class Ar>
  void fields(Ar& ar) {
    ar.io(name, codes);
  }
};

namespace workloads {

/// All 20 xWy workloads in Fig. 1 order (2W1..2W5, 4W1..4W5, ...).
[[nodiscard]] std::span<const Workload> all();

/// Lookup by name ("6W2"); nullopt when unknown. The Fig. 5(b) special is
/// reachable as both "bzip2-twolf" and its own name "8Wbt", so every
/// catalog workload's name round-trips through by_name (spec files depend
/// on this).
[[nodiscard]] std::optional<Workload> by_name(std::string_view name);

/// Resolve a CLI / spec-file token: catalog name first, then an
/// even-length string of valid benchmark codes (two per core, validated
/// against the SPEC2000 catalog). nullopt when neither fits — the shared
/// front door for `mflushsim --workload` and `workload` spec lines.
[[nodiscard]] std::optional<Workload> resolve(std::string_view token);

/// The five workloads of a given thread count (2, 4, 6 or 8).
[[nodiscard]] std::vector<Workload> of_size(std::uint32_t num_threads);

/// Fig. 5(b): 8 threads of bzip2 and twolf where instances of the two
/// applications never share a core: (k,k)(l,l)(k,k)(l,l).
[[nodiscard]] Workload bzip2_twolf_special();

}  // namespace workloads
}  // namespace mflush
