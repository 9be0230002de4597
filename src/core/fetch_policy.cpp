#include "core/fetch_policy.h"

namespace mflush {

void icount_order(const CoreView& view,
                  std::array<ThreadId, kMaxContexts>& order) {
  // Insertion sort on (icount, thread id): a strict total order, so the
  // result is the unique sorted permutation — what a stable sort by icount
  // over ascending ids gives — without a sort's temporary buffer.
  for (ThreadId t = 0; t < view.num_threads; ++t) {
    std::uint32_t j = t;
    while (j > 0 && view.icount[order[j - 1]] > view.icount[t]) {
      order[j] = order[j - 1];
      --j;
    }
    order[j] = t;
  }
}

}  // namespace mflush
