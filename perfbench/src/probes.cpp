#include "probes.h"

#include <sys/socket.h>

#include <chrono>
#include <filesystem>
#include <random>
#include <stdexcept>
#include <thread>

#include "common/config.h"
#include "common/sockio.h"
#include "mem/memory.h"
#include "sim/campaign.h"
#include "sim/cmp.h"
#include "sim/daemon.h"
#include "sim/snapshot.h"
#include "sim/warmstore.h"
#include "sim/wire.h"
#include "trace/generator.h"
#include "trace/spec2000.h"

namespace perfbench {

using namespace mflush;
namespace fs = std::filesystem;

namespace {

/// Median seconds of `reps` timed calls.
template <class F>
double median_seconds(int reps, F&& fn) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn(i);
    s.push_back(now_s() - t0);
  }
  return median(std::move(s));
}

SimConfig config_of(const JobSpec& job) {
  SimConfig cfg = SimConfig::paper_default(job.workload.num_cores(), job.seed);
  cfg.mem.memory_model = job.mem_model;
  cfg.mem.dram = job.dram;
  return cfg;
}

/// sim/cmp, pipeline and sim/snapshot: one representative point run
/// directly through CmpSimulator::run, with and without event skip, and
/// its warmed state captured and restored. Returns the captured bytes.
std::shared_ptr<const std::vector<std::uint8_t>> kernel_probe(
    const JobSpec& job, Tracer& tracer, Metrics& m) {
  const ScopedSpan span(tracer, "cmp.probe", -1, "probe");
  const SimConfig cfg = config_of(job);
  const double cores = job.workload.num_cores();

  CmpSimulator sim(cfg, job.workload, job.policy);
  sim.set_event_skip(true);
  const double t0 = now_s();
  sim.run(job.warmup);
  const double t_warm = now_s() - t0;

  std::vector<std::uint8_t> bytes;
  const double capture_s = median_seconds(
      5, [&](int) { bytes = snapshot::capture(sim); });
  std::vector<double> restore;
  for (int i = 0; i < 5; ++i) {
    CmpSimulator fresh(cfg, job.workload, job.policy);
    const double r0 = now_s();
    snapshot::restore(fresh, bytes);
    restore.push_back(now_s() - r0);
  }

  sim.reset_stats();
  const double m0 = now_s();
  sim.run(job.measure);
  const double t_measure = now_s() - m0;
  const SimMetrics met = sim.metrics();
  const double skipped = static_cast<double>(sim.idle_cycles_skipped());
  const double core_cycles = static_cast<double>(sim.now()) * cores;

  CmpSimulator lock(cfg, job.workload, job.policy);
  lock.set_event_skip(false);
  const double l0 = now_s();
  lock.run(job.warmup + job.measure);
  const double t_lock = now_s() - l0;

  m.set("cmp.skip_frac", skipped / core_cycles, "fraction");
  m.set("cmp.lockstep_ratio", t_lock / (t_warm + t_measure), "ratio");
  m.set("pipeline.ns_per_committed",
        met.committed ? t_measure / static_cast<double>(met.committed) * 1e9
                      : 0.0,
        "ns");
  m.set("snapshot.bytes", static_cast<double>(bytes.size()), "bytes");
  m.set("snapshot.capture_ms", capture_s * 1e3, "ms");
  m.set("snapshot.restore_ms", median(restore) * 1e3, "ms");
  return std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
}

/// sim/warmstore: durable put and a cold (fresh-instance) lookup of the
/// warmed snapshot.
void warmstore_probe(const std::string& dir,
                     const std::shared_ptr<const std::vector<std::uint8_t>>&
                         bytes,
                     Tracer& tracer, Metrics& m) {
  const ScopedSpan span(tracer, "warmstore.probe", -1, "probe");
  WarmStore store(dir);
  const double put_s = median_seconds(
      5, [&](int i) { store.put(0x9e3779b97f4a7c15ull + i, bytes); });
  const double lookup_s = median_seconds(5, [&](int i) {
    WarmStore cold(dir);  // no memo: the entry comes off disk
    if (!cold.lookup(0x9e3779b97f4a7c15ull + i))
      throw std::runtime_error("warm-store probe: entry missing");
  });
  m.set("warmstore.put_ms", put_s * 1e3, "ms");
  m.set("warmstore.lookup_ms", lookup_s * 1e3, "ms");
  fs::remove_all(dir);
}

/// mem: the workload's main-memory model alone, fed a seeded line stream
/// spread over every thread's address space (so the far tier is hit when
/// the workload configures one).
void memory_probe(const JobSpec& job, Tracer& tracer, Metrics& m) {
  const ScopedSpan span(tracer, "mem.probe", -1, "probe");
  const SimConfig cfg = config_of(job);
  constexpr int kReads = 20'000;
  // One read per 200 cycles: well inside the banked model's service rate
  // (its queue explodes near one per 64), so the probe times the model.
  constexpr Cycle kIssueGap = 200;
  const double s = median_seconds(3, [&](int) {
    std::unique_ptr<MemoryModel> mem = make_memory_model(cfg.mem);
    std::mt19937_64 rng(job.seed);
    std::vector<std::uint64_t> done;
    std::size_t served = 0;
    // Ticked every cycle, as the busy kernel does; a read every kIssueGap.
    int issued = 0;
    for (Cycle now = 0; served < kReads; ++now) {
      if (issued < kReads && now % kIssueGap == 0) {
        const Addr space = (rng() % job.workload.num_threads() + 1) << 40;
        mem->start_read(space | ((rng() % (1u << 22)) * 64), issued++, now);
      }
      mem->tick(now, done);
      served += done.size();
      done.clear();
      if (now > Cycle{kReads} * kIssueGap * 4)
        throw std::runtime_error("memory probe: reads lost");
    }
    if (served != kReads)
      throw std::runtime_error("memory probe: reads lost");
  });
  m.set("mem.model_ns_per_read", s / kReads * 1e9, "ns");
}

/// trace: SyntheticTraceSource over the workload's profiles.
void trace_probe(const JobSpec& job, Tracer& tracer, Metrics& m) {
  const ScopedSpan span(tracer, "trace.probe", -1, "probe");
  const SimConfig cfg = config_of(job);
  constexpr SeqNo kInstrs = 100'000;
  std::vector<double> per;
  for (std::size_t t = 0; t < job.workload.codes.size(); ++t) {
    const BenchmarkProfile p = *spec2000::by_code(job.workload.codes[t]);
    SyntheticTraceSource src(p, job.seed, cfg.rewind_window(), t);
    std::uint64_t sink = 0;
    const double t0 = now_s();
    for (SeqNo seq = 0; seq < kInstrs; ++seq) {
      sink += src.at(seq).pc;
      if (seq % 32 == 31) src.retire_up_to(seq);
    }
    per.push_back((now_s() - t0) / static_cast<double>(kInstrs));
    if (sink == 1) per.back() += 0.0;  // keep the reads observable
  }
  m.set("trace.ns_per_instr", median(per) * 1e9, "ns");
}

/// sim/remote: job/result encoding over the workload's own jobs, and the
/// spawn cost of a one-job `mflushsim --worker` beyond its job time.
void remote_probe(const ProbeInput& in, const RunArgs& a,
                  const std::string& dir, Tracer& tracer, Metrics& m) {
  const ScopedSpan span(tracer, "remote.probe", -1, "probe");
  fs::create_directories(dir);
  const std::string jobs_path = dir + "/jobs.mfj";
  const double enc_s = median_seconds(
      5, [&](int) { worker::write_job_file(jobs_path, in.jobs); });
  m.set("remote.job_bytes", static_cast<double>(fs::file_size(jobs_path)),
        "bytes");
  m.set("remote.job_encode_ms", enc_s * 1e3, "ms");

  std::vector<std::pair<std::uint32_t, RunResult>> pairs;
  for (std::size_t i = 0; i < in.reference.size(); ++i)
    pairs.emplace_back(static_cast<std::uint32_t>(i), in.reference[i]);
  const std::vector<std::uint8_t> bytes = worker::encode_results(pairs);
  const double dec_s = median_seconds(
      5, [&](int) { (void)worker::decode_results(bytes, "probe"); });
  m.set("remote.result_bytes", static_cast<double>(bytes.size()), "bytes");
  m.set("remote.result_decode_ms", dec_s * 1e3, "ms");

  JobSpec one = in.kernel_job;
  one.id = 0;
  one.warmup = 0;
  one.measure = 1'000;
  const std::string one_path = dir + "/one.mfj";
  const std::string res_path = dir + "/one.mfr";
  worker::write_job_file(one_path, {one});
  std::vector<double> spawn;
  for (int i = 0; i < 3; ++i) {
    const double t0 = now_s();
    const int rc = proc::spawn_and_wait(
        a.mflushsim, {"--worker", one_path, "--worker-out", res_path},
        "remote probe", 60);
    const double wall = now_s() - t0;
    if (rc != 0) throw std::runtime_error("remote probe: worker failed");
    const auto res = worker::read_result_file(res_path);
    spawn.push_back(wall - res.at(0).second.wall_seconds);
  }
  m.set("remote.spawn_ms", median(spawn) * 1e3, "ms");
  fs::remove_all(dir);
}

/// sim/campaign: durable record_done (cache publish + journal fsync) and
/// cache reads, over the workload's reference results.
void campaign_probe(const ProbeInput& in, const std::string& dir,
                    Tracer& tracer, Metrics& m) {
  const ScopedSpan span(tracer, "campaign.probe", -1, "probe");
  fs::remove_all(dir);
  CampaignStore store = CampaignStore::create(dir, in.spec);
  constexpr std::size_t kRecords = 110;  // p90 with ten samples beyond
  std::vector<JobSpec> jobs;
  std::vector<double> done_ms;
  for (std::size_t i = 0; i < kRecords; ++i) {
    JobSpec j = in.jobs[i % in.jobs.size()];
    j.id = static_cast<std::uint32_t>(i);
    j.seed = 0x70be0000ull + i;  // distinct content key per record
    const double t0 = now_s();
    store.record_done(j, in.reference[i % in.reference.size()]);
    done_ms.push_back((now_s() - t0) * 1e3);
    jobs.push_back(std::move(j));
  }
  const double cached_s = median_seconds(20, [&](int i) {
    if (!store.cached(jobs[static_cast<std::size_t>(i)]))
      throw std::runtime_error("campaign probe: cache miss");
  });
  m.set("campaign.record_done_ms_p50", median(done_ms), "ms");
  m.set("campaign.record_done_ms_p90", percentile_rule(done_ms, 90).value,
        "ms");
  m.set("campaign.cached_ms", cached_s * 1e3, "ms");
  fs::remove_all(dir);
}

/// sim/wire: RESULT-shaped frames over a socketpair.
void wire_probe(const ProbeInput& in, Tracer& tracer, Metrics& m) {
  const ScopedSpan span(tracer, "wire.probe", -1, "probe");
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
    throw std::runtime_error("wire probe: socketpair failed");
  std::vector<double> enc, dec;
  double frame_bytes = 0.0;
  std::vector<std::uint8_t> buffer;
  for (std::size_t i = 0; i < 60; ++i) {
    daemon::Message msg;
    msg.type = daemon::MsgType::kResult;
    msg.job_id = static_cast<std::uint32_t>(i);
    msg.blob = worker::encode_results(
        {{msg.job_id, in.reference[i % in.reference.size()]}});
    frame_bytes = static_cast<double>(daemon::encode_frame(msg).size());
    const double t0 = now_s();
    daemon::send_frame(fds[0], msg);
    const double t1 = now_s();
    const auto got = daemon::read_frame(fds[1], buffer);
    const double t2 = now_s();
    if (!got || got->job_id != msg.job_id)
      throw std::runtime_error("wire probe: frame lost");
    enc.push_back((t1 - t0) * 1e6);
    dec.push_back((t2 - t1) * 1e6);
  }
  sockio::close_fd(fds[0]);
  sockio::close_fd(fds[1]);
  m.set("wire.frame_bytes", frame_bytes, "bytes");
  m.set("wire.encode_us", median(enc), "us");
  m.set("wire.decode_us", median(dec), "us");
}

/// sim/daemon on a workload that does not go through it: spawn, ready,
/// one SUBMIT of the workload's spec (acknowledged, then cancelled).
void daemon_probe(const ProbeInput& in, const RunArgs& a,
                  const std::string& dir, Tracer& tracer, Metrics& m) {
  const ScopedSpan span(tracer, "daemon.probe", -1, "probe");
  const std::string address = "unix:" + dir + ".sock";
  std::unique_ptr<Child> child;
  const double ready_s = start_daemon(a, address, dir, 1, child);
  const double t0 = now_s();
  const daemon::SubmitOutcome sub = daemon::submit(address, in.spec, false);
  const double ack_s = now_s() - t0;
  // A CANCEL that lands before the campaign has queued its jobs drops
  // nothing, so repeat it until the campaign reports it is not running.
  daemon::Message cancel;
  cancel.type = daemon::MsgType::kCancel;
  cancel.campaign = sub.campaign;
  while (daemon::request(address, cancel).type == daemon::MsgType::kOk)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  (void)stop_daemon(address, *child);
  fs::remove_all(dir);
  m.set("daemon.ready_ms", ready_s * 1e3, "ms");
  m.set("daemon.submit_ack_ms_p50", ack_s * 1e3, "ms");
  m.set("daemon.submit_ack_ms_p90", ack_s * 1e3, "ms");
}

}  // namespace

double start_daemon(const RunArgs& a, const std::string& address,
                    const std::string& data_dir, unsigned slots,
                    std::unique_ptr<Child>& out) {
  const double t0 = now_s();
  out = std::make_unique<Child>(
      a.mflushsim,
      std::vector<std::string>{"--serve", address, "--data", data_dir,
                               "--jobs", std::to_string(slots)},
      data_dir + ".log");
  daemon::Message list;
  list.type = daemon::MsgType::kList;
  for (;;) {
    try {
      (void)daemon::request(address, list);
      return now_s() - t0;
    } catch (const std::exception&) {
      if (now_s() - t0 > 60)
        throw std::runtime_error("daemon did not come up on " + address);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

double stop_daemon(const std::string& address, Child& child) {
  const double rss = child.peak_rss_mb();
  daemon::Message shutdown;
  shutdown.type = daemon::MsgType::kShutdown;
  (void)daemon::request(address, shutdown);
  if (child.wait() != 0) throw std::runtime_error("daemon exited nonzero");
  return rss;
}

void simulated_counts(const std::vector<JobSpec>& jobs,
                      const std::vector<RunResult>& results, Metrics& m) {
  double committed = 0, flushes = 0, flushed = 0, on_hit = 0, on_any = 0,
         stalls = 0, gate = 0, branches = 0, mispredicts = 0, l2h = 0,
         l2m = 0, p90 = 0, row_hits = 0, row_all = 0, bank_busy = 0,
         bank_cycles = 0, far = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SimMetrics& s = results[i].metrics;
    committed += static_cast<double>(s.committed);
    flushes += static_cast<double>(s.flush_events);
    flushed += static_cast<double>(s.flushed_instructions);
    on_hit += static_cast<double>(s.policy_flushes_on_hit);
    on_any += static_cast<double>(s.policy_flushes_on_hit +
                                  s.policy_flushes_on_miss +
                                  s.policy_flushes_on_l1);
    stalls += static_cast<double>(s.policy_stall_events);
    gate += static_cast<double>(s.policy_gate_cycles);
    branches += static_cast<double>(s.branches_resolved);
    mispredicts += static_cast<double>(s.mispredicts);
    l2h += static_cast<double>(s.l2_hits_observed);
    l2m += static_cast<double>(s.l2_misses_observed);
    p90 += s.l2_hit_time_p90;
    row_hits += static_cast<double>(s.dram_row_hits);
    row_all += static_cast<double>(s.dram_row_hits + s.dram_row_misses +
                                   s.dram_row_conflicts);
    bank_busy += static_cast<double>(s.dram_bank_busy_cycles);
    bank_cycles += static_cast<double>(s.cycles) * jobs[i].dram.channels *
                   jobs[i].dram.banks_per_channel;
    far += static_cast<double>(s.dram_far_accesses);
  }
  auto frac = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double n = static_cast<double>(results.size());
  m.set("pipeline.committed", committed, "count");
  m.set("core.flush_events", flushes, "count");
  m.set("core.flushed_per_kinstr", frac(flushed, committed) * 1e3,
        "instr/kinstr");
  m.set("core.false_miss_frac", frac(on_hit, on_any), "fraction");
  m.set("core.stall_events", stalls, "count");
  m.set("core.gate_cycles", gate, "count");
  m.set("branch.mispredict_rate", frac(mispredicts, branches), "fraction");
  m.set("mem.l2_hits", l2h, "count");
  m.set("mem.l2_misses", l2m, "count");
  m.set("mem.l2_miss_frac", frac(l2m, l2h + l2m), "fraction");
  m.set("mem.l2_hit_time_p90", frac(p90, n), "cycles");
  m.set("mem.dram_row_hit_frac", frac(row_hits, row_all), "fraction");
  m.set("mem.dram_bank_busy_frac",
        row_all > 0 ? frac(bank_busy, bank_cycles) : 0.0, "fraction");
  m.set("mem.dram_far_accesses", far, "count");
}

void run_probes(const ProbeInput& in, const RunArgs& a, Tracer& tracer,
                Metrics& m) {
  {
    const ScopedSpan span(tracer, "experiment.probe", -1, "probe");
    const double s = median_seconds(9, [&](int) { (void)in.spec.expand(); });
    m.set("experiment.expand_ms", s * 1e3, "ms");
  }
  const auto snap = kernel_probe(in.kernel_job, tracer, m);
  warmstore_probe(a.run_dir + "/probe_warm", snap, tracer, m);
  memory_probe(in.kernel_job, tracer, m);
  trace_probe(in.kernel_job, tracer, m);
  remote_probe(in, a, a.run_dir + "/probe_remote", tracer, m);
  campaign_probe(in, a.run_dir + "/probe_campaign", tracer, m);
  wire_probe(in, tracer, m);
  if (in.daemon_probe) daemon_probe(in, a, a.run_dir + "/probe_d", tracer, m);
}

}  // namespace perfbench
