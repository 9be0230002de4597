#pragma once

#include <cstdint>
#include <vector>

#include "common/archive.h"
#include "common/types.h"

namespace mflush {

/// Perceptron conditional-branch predictor (Fig. 1: "perceptron, 4K local,
/// 256 perceps.").
///
/// 256 perceptrons are indexed by a pc hash; each perceptron weighs a
/// combined history of global outcome bits and a per-pc local history read
/// from a 4096-entry local history table. Weights are saturating int8; the
/// training threshold follows Jiménez & Lin (theta = 1.93 h + 14).
class PerceptronPredictor {
 public:
  PerceptronPredictor(std::uint32_t num_perceptrons,
                      std::uint32_t local_entries, std::uint32_t history_bits);

  /// Predict direction for `pc` in hardware context `tid` (histories are
  /// per-context to avoid cross-thread aliasing noise).
  [[nodiscard]] bool predict(ThreadId tid, Addr pc) const;

  /// Train with the resolved outcome. `history` must be the global history
  /// the prediction was made with (captured at fetch) — training against
  /// the drifted in-flight history would teach the perceptron noise.
  void update(ThreadId tid, Addr pc, bool taken, bool predicted,
              std::uint64_t history);

  /// Speculative history update at fetch; `restore_history` undoes it on a
  /// squash (checkpoint = value returned from `history_checkpoint`).
  void push_history(ThreadId tid, bool taken);
  [[nodiscard]] std::uint64_t history_checkpoint(ThreadId tid) const;
  void restore_history(ThreadId tid, std::uint64_t checkpoint);

  [[nodiscard]] std::uint64_t predictions() const noexcept { return preds_; }
  [[nodiscard]] std::uint64_t mispredictions() const noexcept {
    return mispreds_;
  }

  template <class Ar>
  void fields(Ar& ar) {
    for (auto& w : weights_) ar.io(w);
    ar.io(global_history_, local_history_, preds_, mispreds_);
  }

 private:
  [[nodiscard]] std::int32_t dot(Addr pc, std::uint64_t history) const;
  [[nodiscard]] std::size_t table_index(Addr pc) const noexcept;
  [[nodiscard]] std::size_t local_index(Addr pc) const noexcept;

  std::uint32_t history_bits_;  // lint: transient — ctor geometry
  std::int32_t theta_;          // lint: transient — ctor threshold
  std::uint32_t local_bits_;    // lint: transient — ctor geometry

  /// weights[perceptron][0] = bias, then history_bits global + local_bits
  /// local weights.
  std::vector<std::vector<std::int8_t>> weights_;
  std::vector<std::uint64_t> global_history_;  ///< per context
  std::vector<std::uint64_t> local_history_;   ///< per local-table entry

  mutable std::uint64_t preds_ = 0;
  std::uint64_t mispreds_ = 0;
};

}  // namespace mflush
