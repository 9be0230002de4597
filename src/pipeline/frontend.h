#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.h"
#include "pipeline/uop.h"

namespace mflush {

/// Per-thread fetch-engine state: where to fetch next (right path vs the
/// wrong path after an unresolved mispredicted branch), I-cache waits, and
/// the policy stall machinery.
struct ThreadFetchState {
  // Right-path cursor into the thread's trace.
  SeqNo next_seq = 0;

  // Wrong-path mode (entered when a mispredicted control op is fetched;
  // cleared by recovery or any squash-restart).
  bool wrong_path = false;
  Addr wp_base = 0;         ///< wrong-path region base pc
  std::uint64_t wp_k = 0;   ///< next wrong-path instruction index

  // I-cache line tracking.
  Addr last_fetch_line = ~Addr{0};
  bool icache_wait = false;
  std::uint64_t icache_token = 0;

  // Policy gating (MFLUSH preventive state).
  bool gated = false;

  // Fetch stalled until these loads resolve (FLUSH / STALL response).
  std::vector<std::uint64_t> stall_tokens;

  // Monotonic per-thread program order (right + wrong path interleaved).
  std::uint64_t next_local_order = 0;

  template <class Ar>
  void fields(Ar& ar) {
    ar.io(next_seq);
    ar.flag(wrong_path, "ThreadFetchState::wrong_path");
    ar.io(wp_base, wp_k, last_fetch_line);
    ar.flag(icache_wait, "ThreadFetchState::icache_wait");
    ar.io(icache_token);
    ar.flag(gated, "ThreadFetchState::gated");
    ar.io(stall_tokens, next_local_order);
  }

  [[nodiscard]] bool hard_blocked() const noexcept {
    return icache_wait || !stall_tokens.empty();
  }
  [[nodiscard]] bool can_fetch() const noexcept {
    return !hard_blocked() && !gated;
  }

  /// Reset speculation state back to the right path at `seq`.
  void resume_right_path(SeqNo seq) noexcept {
    next_seq = seq;
    wrong_path = false;
    wp_base = 0;
    wp_k = 0;
    last_fetch_line = ~Addr{0};
  }
};

/// Per-thread in-order front-end: a delay line between fetch and
/// rename/dispatch. A uop is dispatchable once it has spent
/// fetch+decode+rename stages in the queue.
using FrontEndQueue = std::deque<UopHandle>;

}  // namespace mflush
