#pragma once

#include <cstdint>
#include <vector>

#include "branch/unit.h"
#include "common/archive.h"
#include "common/types.h"
#include "trace/instr.h"

namespace mflush {

/// Handle into a core's micro-op pool.
using UopHandle = std::uint32_t;
inline constexpr UopHandle kNoUop = 0xffffffff;

/// One in-flight instruction inside an SMT core.
struct MicroOp {
  TraceInstr ins;      ///< architectural payload (trace copy)
  SeqNo seq = 0;       ///< trace position (right path); bbdict k (wrong path)
  std::uint64_t local_order = 0;  ///< per-thread program order incl. wrong path
  ThreadId tid = 0;

  PipeStage stage = PipeStage::Fetch;
  // Explicit zero-initialized padding throughout: the pool is serialized
  // by raw memcpy, which only accepts records without implicit holes
  // (RawArchivable, common/archive.h).
  std::uint8_t _pad0[3] = {};
  Cycle fetch_cycle = 0;

  PhysReg src_phys[2] = {kNoPhysReg, kNoPhysReg};
  PhysReg dst_phys = kNoPhysReg;
  PhysReg prev_dst_phys = kNoPhysReg;  ///< overwritten mapping (unwind/commit)

  bool wrong_path = false;
  bool issued = false;
  bool completed = false;
  std::uint8_t _pad1[5] = {};
  Cycle ready_at = kNeverCycle;  ///< execution completion time (non-loads)

  // Control state (branches/calls/returns).
  bool pred_taken = false;
  std::uint8_t _pad2[7] = {};
  Addr pred_target = 0;
  bool mispredicted = false;  ///< known at fetch (trace-driven), acted at exec
  std::uint8_t _pad3[7] = {};
  BranchUnit::Checkpoint bp_checkpoint{};

  // Memory state (loads).
  std::uint64_t mem_token = 0;  ///< hierarchy token once issued

  bool in_use = false;
  std::uint8_t _pad4[7] = {};

  [[nodiscard]] bool is_load() const noexcept {
    return ins.cls == InstrClass::Load;
  }
  [[nodiscard]] bool is_store() const noexcept {
    return ins.cls == InstrClass::Store;
  }
  [[nodiscard]] bool is_control() const noexcept { return ins.is_control(); }
};

/// Fixed pool of micro-ops with a free list (no allocation in steady state).
///
/// Each slot carries an allocation generation so stale handles (e.g. wakeup
/// wheel entries whose uop was squashed and whose slot was re-allocated) can
/// be detected and discarded instead of acting on the wrong instruction.
class UopPool {
 public:
  explicit UopPool(std::size_t capacity) {
    pool_.resize(capacity);
    gen_.assign(capacity, 0);
    free_.reserve(capacity);
    for (std::size_t i = capacity; i > 0; --i)
      free_.push_back(static_cast<UopHandle>(i - 1));
  }

  [[nodiscard]] UopHandle alloc() {
    UopHandle h;
    if (free_.empty()) {
      pool_.emplace_back();
      gen_.push_back(0);
      h = static_cast<UopHandle>(pool_.size() - 1);
    } else {
      h = free_.back();
      free_.pop_back();
      static const MicroOp kFresh{};  // one copy, no temporary per fetch
      pool_[h] = kFresh;
    }
    ++gen_[h];
    pool_[h].in_use = true;
    return h;
  }

  void release(UopHandle h) {
    pool_[h].in_use = false;
    free_.push_back(h);
  }

  [[nodiscard]] MicroOp& operator[](UopHandle h) { return pool_[h]; }
  [[nodiscard]] const MicroOp& operator[](UopHandle h) const {
    return pool_[h];
  }
  [[nodiscard]] std::size_t live() const noexcept {
    return pool_.size() - free_.size();
  }
  /// Slots allocated so far (handles are below this).
  [[nodiscard]] std::size_t slots() const noexcept { return pool_.size(); }
  [[nodiscard]] std::uint32_t generation(UopHandle h) const noexcept {
    return gen_[h];
  }

  template <class Ar>
  void fields(Ar& ar) {
    ar.io(pool_, gen_, free_);
  }

 private:
  std::vector<MicroOp> pool_;
  std::vector<std::uint32_t> gen_;  ///< bumped per alloc of the slot
  std::vector<UopHandle> free_;
};

}  // namespace mflush
