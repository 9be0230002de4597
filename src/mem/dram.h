#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/wheel.h"
#include "mem/memory.h"

namespace mflush {

/// Banked DRAM main memory: channels x banks with per-bank row-buffer
/// state and a channel-level ready-time arbiter, plus an optional far
/// latency class by address range (DramConfig, common/config.h).
///
/// Timing is an eager reservation model, fully determined at issue time:
///
///   start = max(now, bank.busy_until, channel.busy_until)
///   lat   = t_row_hit       if the bank's open row matches
///         | t_row_miss      if the bank has no open row
///         | t_row_conflict  if a different row is open (precharge first)
///   lat  += far_extra       if the line falls in the far range
///   done  = start + lat
///   bank.busy_until    = done          (banks are single-ported)
///   channel.busy_until = start + channel_gap
///
/// Both reservations are monotone, so accesses to one bank are served in
/// arrival order (the per-bank in-order queue is represented by the bank's
/// ready time: arrival order IS service order) and accesses sharing a
/// channel serialize on the command/data bus by channel_gap — while
/// completion times across banks are NOT monotone in issue order, which is
/// the whole point: a row hit issued after a row conflict returns first.
/// Completions are scheduled on a WakeupWheel; next_event_cycle is the
/// wheel's cached next_due, and per-core horizon queries take the
/// earliest due matching entry (never "first in flight").
///
/// Writes (dirty L2 victims) reserve the bank/channel and move the row
/// buffer like reads but schedule no completion.
class BankedDramMemory final : public MemoryModel {
 public:
  explicit BankedDramMemory(const MemConfig& cfg)
      : dram_(cfg.dram),
        line_shift_(static_cast<std::uint32_t>(
            std::countr_zero(std::uint64_t{cfg.line_bytes}))),
        chan_bits_(static_cast<std::uint32_t>(
            std::countr_zero(std::uint64_t{cfg.dram.channels}))),
        bank_bits_(static_cast<std::uint32_t>(
            std::countr_zero(std::uint64_t{cfg.dram.banks_per_channel}))),
        row_bits_(static_cast<std::uint32_t>(std::countr_zero(
            std::uint64_t{cfg.dram.row_bytes / cfg.line_bytes}))),
        banks_(std::size_t{cfg.dram.channels} * cfg.dram.banks_per_channel),
        channels_(cfg.dram.channels, Cycle{0}) {}

  void start_read(Addr line, std::uint64_t payload, Cycle now) override {
    ++stats_.reads;
    wheel_.schedule(reserve(line, now), now, payload);
  }

  void start_write(Addr line, Cycle now) override {
    ++stats_.writes;
    (void)reserve(line, now);
  }

  void tick(Cycle now, std::vector<std::uint64_t>& done) override {
    wheel_.pop_due(now, done);
  }

  [[nodiscard]] Cycle next_event_cycle() const override {
    return wheel_.next_due();
  }

  [[nodiscard]] Cycle next_done_if(PayloadPred pred) const override {
    return wheel_.next_due_if(pred);
  }

  [[nodiscard]] std::size_t outstanding() const override {
    return wheel_.size();
  }
  [[nodiscard]] const MemModelStats& stats() const override { return stats_; }
  void reset_stats() override { stats_.reset(); }

  void save_state(ArchiveWriter& ar) const override { ar.walk(*this); }
  void load_state(ArchiveReader& ar) override { ar.walk(*this); }
  /// Geometry is ctor config, so the bank count is implied and checked on
  /// load via the snapshot's config echo.
  template <class Ar>
  void fields(Ar& ar) {
    for (Bank& b : banks_) ar.io(b);
    ar.io(channels_, wheel_, stats_);
  }

  /// Per-bank row-buffer + reservation state (serialized field-wise).
  struct Bank {
    Cycle busy_until = 0;        ///< current service window ends here
    std::uint64_t open_row = 0;  ///< valid when row_valid
    bool row_valid = false;      ///< false until the bank's first access

    template <class Ar>
    void fields(Ar& ar) {
      ar.io(busy_until, open_row);
      ar.flag(row_valid, "BankedDramMemory::Bank::row_valid");
    }
  };

  // Geometry/state accessors (tests).
  [[nodiscard]] std::uint32_t channel_of(Addr line) const noexcept {
    const std::uint64_t block = line >> line_shift_;
    return static_cast<std::uint32_t>(block & (channels_.size() - 1));
  }
  [[nodiscard]] std::uint32_t bank_of(Addr line) const noexcept {
    const std::uint64_t block = line >> line_shift_;
    return static_cast<std::uint32_t>((block >> chan_bits_) &
                                      (dram_.banks_per_channel - 1));
  }
  [[nodiscard]] std::uint64_t row_of(Addr line) const noexcept {
    const std::uint64_t block = line >> line_shift_;
    return block >> (chan_bits_ + bank_bits_ + row_bits_);
  }
  [[nodiscard]] const Bank& bank_state(std::uint32_t channel,
                                       std::uint32_t bank) const {
    return banks_[std::size_t{channel} * dram_.banks_per_channel + bank];
  }

 private:
  /// Classify against the bank's row buffer, reserve the bank + channel,
  /// and return the completion cycle. The single timing path shared by
  /// reads and writes.
  Cycle reserve(Addr line, Cycle now) {
    const std::uint32_t ch = channel_of(line);
    Bank& bank =
        banks_[std::size_t{ch} * dram_.banks_per_channel + bank_of(line)];
    const std::uint64_t row = row_of(line);

    Cycle start = now;
    if (bank.busy_until > start) start = bank.busy_until;
    if (channels_[ch] > start) start = channels_[ch];

    std::uint64_t lat;
    if (!bank.row_valid) {
      lat = dram_.t_row_miss;
      ++stats_.row_misses;
    } else if (bank.open_row == row) {
      lat = dram_.t_row_hit;
      ++stats_.row_hits;
    } else {
      lat = dram_.t_row_conflict;
      ++stats_.row_conflicts;
    }
    if (dram_.far_bytes != 0 && line >= dram_.far_base &&
        line - dram_.far_base < dram_.far_bytes) {
      lat += dram_.far_extra;
      ++stats_.far_accesses;
    }

    bank.row_valid = true;
    bank.open_row = row;
    bank.busy_until = start + lat;
    channels_[ch] = start + dram_.channel_gap;
    stats_.bank_busy_cycles += lat;
    stats_.chan_busy_cycles += dram_.channel_gap;
    return start + lat;
  }

  DramConfig dram_;           // lint: transient — ctor config
  std::uint32_t line_shift_;  // lint: transient — ctor geometry
  std::uint32_t chan_bits_;   // lint: transient — ctor geometry
  std::uint32_t bank_bits_;   // lint: transient — ctor geometry
  std::uint32_t row_bits_;    // lint: transient — ctor geometry

  std::vector<Bank> banks_;      ///< [channel * banks_per_channel + bank]
  std::vector<Cycle> channels_;  ///< per-channel busy_until
  /// Scheduled read completions (payloads). Span covers the largest
  /// unqueued latency (t_row_conflict + far_extra with default knobs);
  /// deeply queued completions overflow to the wheel's far queue. Strict:
  /// the event kernel bounds every jump by next_event_cycle().
  WakeupWheel<std::uint64_t> wheel_{2048, /*strict_release=*/true};
  MemModelStats stats_;
};

}  // namespace mflush
