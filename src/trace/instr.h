#pragma once

#include <array>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace mflush {

/// One dynamic instruction of the correct (architectural) path.
///
/// This is the unit produced by trace sources and consumed by the core
/// front-end. Register identifiers are *logical*; renaming happens in the
/// pipeline. Memory addresses are effective byte addresses in the thread's
/// private address space.
struct TraceInstr {
  Addr pc = 0;
  Addr eff_addr = 0;  ///< loads/stores: effective address
  Addr target = 0;    ///< control: actual (architectural) target
  InstrClass cls = InstrClass::IntAlu;
  LogReg dst = kNoLogReg;
  std::array<LogReg, 2> src{kNoLogReg, kNoLogReg};
  bool taken = false;  ///< control: actual direction
  // Explicit tail padding: TraceInstr is embedded in the memcpy-serialized
  // MicroOp pool, so an implicit hole would put uninitialized bytes in the
  // snapshot and break canonical-bytes equality across processes.
  std::uint8_t _pad[3] = {};

  [[nodiscard]] bool has_dst() const noexcept { return dst != kNoLogReg; }
  [[nodiscard]] bool is_memory() const noexcept {
    return mflush::is_memory(cls);
  }
  [[nodiscard]] bool is_control() const noexcept {
    return mflush::is_control(cls);
  }
};

/// Abstract rewindable instruction stream for one thread.
///
/// The consumer addresses instructions by monotonic sequence number. A call
/// to `retire_up_to(s)` promises that no sequence number `< s` will ever be
/// requested again, allowing bounded buffering. FLUSH re-fetch is expressed
/// by the consumer simply re-reading sequence numbers it has already seen —
/// sources must keep at least `window` instructions of history beyond the
/// retire point.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Random access within [retire_point, retire_point + window).
  [[nodiscard]] virtual const TraceInstr& at(SeqNo seq) = 0;

  /// Slide the history window: sequence numbers below `seq` are dead.
  virtual void retire_up_to(SeqNo seq) = 0;

  /// Human-readable identity (benchmark name).
  [[nodiscard]] virtual const char* name() const noexcept = 0;
};

/// TraceSource over an in-memory instruction vector. Finite traces wrap
/// around (the simulator runs for a fixed cycle budget, as in the paper).
class VectorTraceSource final : public TraceSource {
 public:
  VectorTraceSource(std::vector<TraceInstr> instrs, std::string name)
      : instrs_(std::move(instrs)), name_(std::move(name)) {
    if (instrs_.empty())
      throw std::invalid_argument("VectorTraceSource: empty trace");
  }

  [[nodiscard]] const TraceInstr& at(SeqNo seq) override {
    return instrs_[seq % instrs_.size()];
  }
  void retire_up_to(SeqNo /*seq*/) override {}
  [[nodiscard]] const char* name() const noexcept override {
    return name_.c_str();
  }

  [[nodiscard]] std::size_t size() const noexcept { return instrs_.size(); }

 private:
  std::vector<TraceInstr> instrs_;
  std::string name_;
};

}  // namespace mflush
