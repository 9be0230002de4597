#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/backend.h"
#include "sim/cmp.h"
#include "sim/experiment.h"
#include "sim/warmstore.h"

/// Bench-output helpers: paper-style tables over RunResults — fed either a
/// pre-shaped workload-row grid or, for backend-driven sweeps, the flat
/// job-id-ordered vector a ResultSink collects.
namespace mflush::report {

/// Reshape a flat backend result vector (ExperimentSpec::expand order,
/// policies minor) into workload rows of `columns` policies each. Throws
/// when the size is not a multiple of `columns`.
[[nodiscard]] std::vector<std::vector<RunResult>> as_grid(
    std::vector<RunResult> flat, std::size_t columns);

/// ResultSink callback printing one progress line per finished job
/// ("[done/total] workload policy: IPC …") — long sweeps report
/// incrementally instead of going silent until the batch drains. Pass
/// total == 0 when the job count is open-ended (adaptive sampled runs);
/// the denominator prints as "?".
[[nodiscard]] ResultSink::OnResult progress_printer(std::ostream& os,
                                                    std::size_t total);

/// Scheduler-event logger for RemoteBackend::Options::on_event: one
/// "remote: ..." line per batch failure, re-queue, or host retirement, so
/// a long distributed sweep narrates its fault handling on stderr instead
/// of going silent until the batch drains.
[[nodiscard]] std::function<void(const std::string&)> event_printer(
    std::ostream& os);

/// Same logger with a caller-chosen line prefix (e.g. "campaign: " for
/// CampaignStore::Options::on_event), so each event source stays
/// distinguishable when several narrate the same stream.
[[nodiscard]] std::function<void(const std::string&)> event_printer(
    std::ostream& os, std::string prefix);

/// Detailed component dump of a finished simulation (caches, predictor,
/// queues, per-thread commit) — the debugging view.
void print_debug(std::ostream& os, const CmpSimulator& sim);

/// Throughput table: one row per workload, one column per policy, plus a
/// final average row (arithmetic mean of IPCs, as the paper's "average"
/// bars).
void print_throughput(std::ostream& os,
                      const std::vector<std::vector<RunResult>>& by_workload);

/// Sink-fed overload: flat job-id-ordered results, `columns` policies per
/// workload row.
void print_throughput(std::ostream& os, const std::vector<RunResult>& flat,
                      std::size_t columns);

/// Wasted-energy table (Fig. 11): wasted units per 1000 committed
/// instructions, per workload × policy, plus averages.
void print_wasted_energy(
    std::ostream& os, const std::vector<std::vector<RunResult>>& by_workload);

/// Sink-fed overload of the wasted-energy table.
void print_wasted_energy(std::ostream& os,
                         const std::vector<RunResult>& flat,
                         std::size_t columns);

/// One-line run summary (examples/quickstart), including the simulator's
/// own throughput (wall-clock and simulated cycles per second) when the
/// run was timed.
[[nodiscard]] std::string summarize(const RunResult& r);

/// One-line warm-store summary ("warm store: N hit(s), ...") for the end
/// of a sampled run — reuse, new entries written (with byte volume), and
/// corrupt entries healed.
[[nodiscard]] std::string summarize(const WarmStore::Stats& stats);

/// One-line simulator-throughput footer over a set of finished runs:
/// total wall-clock work, simulated cycles, and aggregate cycles/second.
/// Empty string when none of the runs carry timing.
[[nodiscard]] std::string throughput_footer(
    const std::vector<RunResult>& runs);
[[nodiscard]] std::string throughput_footer(
    const std::vector<std::vector<RunResult>>& by_workload);

}  // namespace mflush::report
