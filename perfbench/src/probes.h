#pragma once

#include <vector>

#include "benchlib.h"
#include "sim/experiment_spec.h"
#include "workloads.h"

/// Standalone layer probes: each drives one layer's public functions with
/// the workload's own inputs, outside the end-to-end timing.
namespace perfbench {

struct ProbeInput {
  mflush::ExperimentSpec spec;               ///< the workload's spec
  std::vector<mflush::JobSpec> jobs;         ///< its expanded jobs
  std::vector<mflush::RunResult> reference;  ///< serial results, job order
  mflush::JobSpec kernel_job;  ///< representative point (largest chip)
  bool daemon_probe = true;    ///< false when the workload is the daemon
};

/// Runs every probe and sets the layer metrics they own (cmp.skip_frac,
/// cmp.lockstep_ratio, pipeline.ns_per_committed, mem.model_ns_per_read,
/// trace.ns_per_instr, snapshot.*, warmstore.put_ms/lookup_ms, remote.*,
/// campaign.record_done_ms_*, campaign.cached_ms, wire.*, and — when
/// daemon_probe — daemon.ready_ms / daemon.submit_ack_ms_*). Each probe
/// records one span under the "probe" group.
void run_probes(const ProbeInput& in, const RunArgs& args, Tracer& tracer,
                Metrics& layers);

/// Simulated-machine counters summed over `results` (core.*, branch.*,
/// mem.* except model_ns_per_read, pipeline.committed).
void simulated_counts(const std::vector<mflush::JobSpec>& jobs,
                      const std::vector<mflush::RunResult>& results,
                      Metrics& layers);

/// Spawn `mflushsim --serve` on `address` with a fresh data dir and wait
/// until it answers a LIST request. Returns spawn-to-ready seconds.
double start_daemon(const RunArgs& args, const std::string& address,
                    const std::string& data_dir, unsigned slots,
                    std::unique_ptr<Child>& out);

/// SHUTDOWN the daemon and reap it; returns its peak RSS in MiB.
double stop_daemon(const std::string& address, Child& child);

}  // namespace perfbench
