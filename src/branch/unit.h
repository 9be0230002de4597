#pragma once

#include <cstdint>
#include <vector>

#include "branch/btb.h"
#include "branch/perceptron.h"
#include "branch/ras.h"
#include "common/archive.h"
#include "common/config.h"
#include "trace/instr.h"

namespace mflush {

/// Direction + target produced at fetch.
struct BranchPrediction {
  bool taken = false;
  Addr target = 0;
};

/// Per-core branch machinery: perceptron direction predictor + BTB +
/// per-context RAS, with checkpoint/restore for squash recovery.
class BranchUnit {
 public:
  explicit BranchUnit(const CoreConfig& cfg);

  /// Predict the control instruction `ins` fetched by context `tid`;
  /// speculatively updates direction history and the RAS.
  [[nodiscard]] BranchPrediction predict(ThreadId tid, const TraceInstr& ins);

  /// Train at resolution with the architectural outcome. `history` is the
  /// global-history value captured in the op's pre-predict checkpoint.
  void resolve(ThreadId tid, const TraceInstr& ins, bool predicted_taken,
               std::uint64_t history);

  /// Mispredict recovery: after restoring the pre-predict checkpoint,
  /// re-apply the op's architectural effect to the speculative structures
  /// (history push / RAS push / RAS pop).
  void apply_resolved(ThreadId tid, const TraceInstr& ins);

  struct Checkpoint {
    std::uint64_t history = 0;
    Ras::Checkpoint ras{0, 0};
  };
  [[nodiscard]] Checkpoint checkpoint(ThreadId tid) const;
  void restore(ThreadId tid, const Checkpoint& c);

  [[nodiscard]] const PerceptronPredictor& direction() const noexcept {
    return perceptron_;
  }
  [[nodiscard]] const Btb& btb() const noexcept { return btb_; }

  template <class Ar>
  void fields(Ar& ar) {
    ar.io(perceptron_, btb_);
    for (Ras& r : ras_) ar.io(r);
  }

 private:
  PerceptronPredictor perceptron_;
  Btb btb_;
  std::vector<Ras> ras_;  ///< one per hardware context
};

}  // namespace mflush
