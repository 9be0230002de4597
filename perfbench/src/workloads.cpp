#include "workloads.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/archive.h"
#include "common/sockio.h"
#include "probes.h"
#include "sim/campaign.h"
#include "sim/daemon.h"
#include "sim/parallel.h"
#include "sim/remote.h"
#include "sim/warmstore.h"
#include "sim/wire.h"
#include "sim/workloads.h"

extern char** environ;

namespace perfbench {

using namespace mflush;
namespace fs = std::filesystem;

// ------------------------------------------------------------ the inputs
//
// Every workload is a pure function of the seed: the seed becomes each
// spec's simulation seed and, for served_mix, drives the submission draw.

namespace {

Workload wl(const char* name) { return *workloads::by_name(name); }

/// `k` simulation seeds derived from the benchmark seed, disjoint across
/// benchmark seeds. A synthetic program's behaviour (and so its IPC and
/// host cost) differs strongly from one simulation seed to the next, so a
/// run averages over several to keep run-to-run spread low.
std::vector<std::uint64_t> seed_set(std::uint64_t seed, std::uint64_t k) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t i = 0; i < k; ++i) out.push_back(seed * 1000 + i + 1);
  return out;
}

/// grid_fixed: the paper's Fig. 8 study, one catalog workload per chip
/// size under the four fetch policies, fixed 250-cycle memory. Largest
/// chip first within each seed, so small jobs fill the batch's tail.
ExperimentSpec grid_spec(std::uint64_t seed) {
  ExperimentSpec s;
  s.name = "grid_fixed";
  s.workloads = {wl("8W3"), wl("4W2"), wl("2W3")};
  s.policies = {PolicySpec::icount(), PolicySpec::flush_spec(30),
                PolicySpec::stall(30), PolicySpec::mflush()};
  s.seeds = seed_set(seed, 8);
  s.warmup = 5'000;
  s.measure = 15'000;
  return s;
}

/// sampled_dram: one small and one 8-thread memory-bound chip under
/// FLUSH-S30 and MFLUSH, forked off warmed parents on banked DRAM. Thread
/// 0's private address space (trace/generator.cpp salts thread t's
/// addresses with (t+1) << 40) is the far-memory tier, so real accesses
/// pay the far latency class.
ExperimentSpec sampled_spec(std::uint64_t seed) {
  ExperimentSpec s;
  s.name = "sampled_dram";
  s.workloads = {wl("8W1"), wl("2W3")};
  s.policies = {PolicySpec::flush_spec(30), PolicySpec::mflush()};
  s.seeds = seed_set(seed, 6);
  s.warmup = 15'000;
  s.measure = 4'000;
  s.mode = RunMode::Sampled;
  s.sampled.forks = 4;
  s.sampled.fork_stride = 2'000;
  s.sampled.target_half_width = 0.0;
  s.mem_model = MemModelKind::BankedDram;
  s.dram.far_base = Addr{1} << 40;
  s.dram.far_bytes = std::uint64_t{1} << 40;
  return s;
}

/// served_mix: the pool every submission is drawn from — each small
/// workload under each of its six policy pairs, so distinct specs share
/// jobs. Spec w * kPairs + j is pair j of workload w, pairs in the order
/// (0,1) (0,2) (0,3) (1,2) (1,3) (2,3).
constexpr std::size_t kServedWorkloads = 8, kPairs = 6;

std::vector<ExperimentSpec> served_pool(std::uint64_t seed) {
  const std::vector<PolicySpec> policies = {
      PolicySpec::icount(), PolicySpec::flush_spec(30), PolicySpec::stall(30),
      PolicySpec::mflush()};
  std::vector<ExperimentSpec> pool;
  for (const char* name : {"2W1", "2W2", "2W3", "2W4", "2W5", "4W1", "4W2",
                           "4W3"}) {
    for (std::size_t a = 0; a < policies.size(); ++a) {
      for (std::size_t b = a + 1; b < policies.size(); ++b) {
        ExperimentSpec s;
        s.name = "served";
        s.workloads = {wl(name)};
        s.policies = {policies[a], policies[b]};
        s.seeds = {seed};
        s.warmup = 2'000;
        s.measure = 6'000;
        pool.push_back(std::move(s));
      }
    }
  }
  return pool;
}

/// One closed-loop session: enough submissions for a true p90.
constexpr std::size_t kSessionSubmissions = 100;

/// Set-up is milliseconds or less, so each run takes many samples of it.
constexpr int kSetupSamples = 200;
constexpr std::size_t kDaemonSetupSamples = 40;  ///< a spawn each

/// One session's submissions, as indices into served_pool. The mix is
/// fixed so a session's work does not depend on the draw: every pool job
/// executes once. Per workload, two disjoint policy pairs covering its
/// four jobs come first (16 new specs: journal fsync + cache writes), then
/// two of its other pairs, which overlap them at job level (16 specs
/// served from the cache); the other 68 submissions resubmit an earlier
/// spec verbatim (attach). Every submission delivers two results. The
/// median submission is an attach and the p90 one that executes. The seed
/// picks the covering pairs, the overlapping pairs, the interleaving of
/// workloads, and the resubmits.
std::vector<std::size_t> served_plan(std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x5e7ed5eedull);
  auto shuffle = [&](auto& v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[rng() % i]);
  };
  // Pairs j and 5 - j are disjoint and together cover all four policies.
  std::vector<std::vector<std::size_t>> order(kServedWorkloads);
  for (std::size_t w = 0; w < kServedWorkloads; ++w) {
    const std::size_t c = rng() % 3;
    std::vector<std::size_t> overlap;
    for (std::size_t j = 0; j < kPairs; ++j)
      if (j != c && j != 5 - c) overlap.push_back(j);
    shuffle(overlap);
    order[w] = {c, 5 - c, overlap[0], overlap[1]};
  }
  std::vector<std::size_t> slots;
  for (std::size_t w = 0; w < kServedWorkloads; ++w)
    slots.insert(slots.end(), order[w].size(), w);
  shuffle(slots);
  std::vector<std::size_t> next(kServedWorkloads, 0);
  std::vector<std::size_t> plan;
  for (const std::size_t w : slots)
    plan.push_back(w * kPairs + order[w][next[w]++]);
  while (plan.size() < kSessionSubmissions) {
    const std::size_t pos = 1 + rng() % plan.size();
    const std::size_t again = plan[rng() % pos];
    plan.insert(plan.begin() + static_cast<std::ptrdiff_t>(pos), again);
  }
  return plan;
}

// --------------------------------------------------------- shared pieces

struct SimFigures {
  double ipc_mflush = 0.0;
  double gain_pct = 0.0;
};

/// ipc_mflush: mean chip IPC over MFLUSH points; mflush_gain_pct: 100 x
/// the geometric mean over points of MFLUSH IPC / FLUSH-S30 IPC (100 =
/// parity). A point's IPC is the mean over its results (sampled forks).
SimFigures sim_figures(const std::vector<JobSpec>& jobs,
                       const std::vector<RunResult>& results) {
  const std::string mf = PolicySpec::mflush().label();
  const std::string fl = PolicySpec::flush_spec(30).label();
  std::map<std::pair<std::string, std::string>, std::pair<double, int>> pts;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::string point =
        results[i].workload + "/" + std::to_string(jobs[i].seed);
    auto& [sum, n] = pts[{point, results[i].policy}];
    sum += results[i].metrics.ipc;
    ++n;
  }
  SimFigures f;
  double mf_sum = 0.0;
  int mf_n = 0;
  double log_sum = 0.0;
  int ratios = 0;
  for (const auto& [key, v] : pts) {
    if (key.second != mf) continue;
    const double ipc = v.first / v.second;
    mf_sum += ipc;
    ++mf_n;
    const auto it = pts.find({key.first, fl});
    if (it != pts.end() && it->second.first > 0.0) {
      log_sum += std::log(ipc / (it->second.first / it->second.second));
      ++ratios;
    }
  }
  f.ipc_mflush = mf_n ? mf_sum / mf_n : 0.0;
  f.gain_pct = ratios ? 100.0 * std::exp(log_sum / ratios) : 0.0;
  return f;
}

/// The end-to-end table, filled the same way on every workload.
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> makespan_s;
  std::vector<double> first_result_ms;  ///< per submission
  std::vector<double> campaign_ms;      ///< per submission
  double core_cycles = 0.0;             ///< delivered per makespan
  double jobs = 0.0;                    ///< delivered per makespan
  double peak_rss_mb = 0.0;
  SimFigures sim;
};

void fill_end_to_end(const EndToEnd& e, Outcome& o) {
  const double mk = median(e.makespan_s);
  Metrics& m = o.end_to_end;
  m.set("setup_s", median(e.setup_s), "s");
  m.set("makespan_s", mk, "s");
  m.set("sim_kcps", e.core_cycles / mk / 1e3, "kcycles/s");
  m.set("jobs_per_s", e.jobs / mk, "1/s");
  const Percentile f90 = percentile_rule(e.first_result_ms, 90);
  const Percentile c90 = percentile_rule(e.campaign_ms, 90);
  m.set("first_result_ms_p50", median(e.first_result_ms), "ms");
  m.set("first_result_ms_p90", f90.value, "ms");
  m.set("campaign_ms_p50", median(e.campaign_ms), "ms");
  m.set("campaign_ms_p90", c90.value, "ms");
  m.set("peak_rss_mb", e.peak_rss_mb, "MiB");
  m.set("ipc_mflush", e.sim.ipc_mflush, "instr/cycle");
  m.set("mflush_gain_pct", e.sim.gain_pct, "%");
  std::ostringstream os;
  os << "samples: " << e.makespan_s.size() << " makespans, "
     << e.setup_s.size() << " set-ups, " << e.campaign_ms.size()
     << " submissions (p90 figures report percentile " << c90.pct
     << (c90.supported ? "" : ", too few samples: median") << ")";
  o.notes.push_back(os.str());
  for (const auto& [name, v] : {std::pair{"setup_s", &e.setup_s},
                                std::pair{"makespan_s", &e.makespan_s}}) {
    if (v->size() < 2) continue;
    const std::vector<double> q = quartiles(*v);
    std::ostringstream qs;
    qs << name << " quartiles: " << q[0] << ' ' << q[1] << ' ' << q[2];
    o.notes.push_back(qs.str());
  }
}

/// Layer metrics every workload derives from one traced iteration.
struct TracedIteration {
  std::vector<Span> spans;
  double lo = 0.0, hi = 0.0;  ///< the makespan window
  double job_host_s = 0.0;    ///< sum of RunResult::wall_seconds
  double core_cycles = 0.0;   ///< simulated core-cycles of those jobs
  double resolve_s = 0.0;
  double warm_jobs = 0.0;
  double width = 1.0;
};

void fill_traced_layers(const TracedIteration& t, double untraced_makespan,
                        double traced_makespan, Outcome& o) {
  Metrics& m = o.layers;
  const double mk = t.hi - t.lo;
  m.set("cmp.host_s", t.job_host_s, "s");
  m.set("cmp.ns_per_core_cycle",
        t.core_cycles > 0 ? t.job_host_s / t.core_cycles * 1e9 : 0.0, "ns");
  m.set("experiment.warm_resolve_s", t.resolve_s, "s");
  m.set("experiment.warm_jobs", t.warm_jobs, "count");
  m.set("backend.busy_frac", t.job_host_s / (mk * t.width), "fraction");
  m.set("backend.straggler_s", mk - t.job_host_s / t.width, "s");
  m.set("bench.trace_overhead_frac", traced_makespan / untraced_makespan - 1.0,
        "fraction");
  m.set("bench.unattributed_frac", unattributed_frac(t.spans, t.lo, t.hi),
        "fraction");
  std::ostringstream os;
  os << "self time per layer over the traced iteration (s):";
  for (const auto& [layer, s] : self_time_by_layer(t.spans))
    os << ' ' << layer << '=' << s;
  o.notes.push_back(os.str());
}

void write_spans(const RunArgs& a, const std::vector<Span>& spans,
                 Outcome& o) {
  fs::create_directories(a.out_dir);
  const std::string path = a.out_dir + "/trace_" + a.workload + "_seed" +
                           std::to_string(a.seed) + ".json";
  std::ofstream(path) << spans_json(spans);
  o.notes.push_back("spans: " + path);
}

/// Counts that are not exercised on a workload still print (as zero), so
/// every workload reports the full per-layer table.
void default_layers(Metrics& m) {
  for (const char* name :
       {"warmstore.hits", "warmstore.misses", "warmstore.stored",
        "campaign.executed", "campaign.cached", "campaign.cache_hit_frac",
        "daemon.attach_frac"})
    if (!m.has(name)) m.set(name, 0.0, std::string(name).ends_with("frac")
                                           ? "fraction"
                                           : "count");
}

double error_rate(const Outcome& o) {
  return o.attempted ? static_cast<double>(o.failed) /
                           static_cast<double>(o.attempted)
                     : 0.0;
}

void count_mismatches(const std::vector<RunResult>& got,
                      const std::vector<RunResult>& ref, Outcome& o) {
  o.attempted += ref.size();
  std::size_t bad = ref.size();
  if (got.size() == ref.size()) {
    bad = 0;
    for (std::size_t i = 0; i < ref.size(); ++i)
      if (!same_result(got[i], ref[i])) ++bad;
  }
  o.failed += bad;
  o.mismatched += bad;
}

JobSpec largest_mflush_job(const std::vector<JobSpec>& jobs) {
  const JobSpec* best = &jobs.front();
  for (const JobSpec& j : jobs) {
    if (j.policy.label() != PolicySpec::mflush().label()) continue;
    if (best->policy.label() != PolicySpec::mflush().label() ||
        j.workload.num_cores() > best->workload.num_cores())
      best = &j;
  }
  JobSpec k = *best;
  k.snapshot.reset();
  k.parent_key = 0;
  return k;
}

}  // namespace

// ------------------------------------------------------- shared helpers

std::vector<RunResult> serial_reference(const std::vector<JobSpec>& jobs) {
  std::vector<RunResult> out;
  out.reserve(jobs.size());
  for (const JobSpec& j : jobs) out.push_back(run_job(j));
  return out;
}

bool same_result(const RunResult& a, const RunResult& b) {
  return a.workload == b.workload && a.policy == b.policy &&
         a.metrics == b.metrics;
}

std::string results_digest(const std::vector<RunResult>& results) {
  std::vector<std::pair<std::uint32_t, RunResult>> canon;
  for (std::size_t i = 0; i < results.size(); ++i) {
    RunResult r = results[i];
    r.wall_seconds = 0.0;
    r.payload.reset();
    canon.emplace_back(static_cast<std::uint32_t>(i), std::move(r));
  }
  const std::vector<std::uint8_t> bytes = worker::encode_results(canon);
  return campaign::key_hex(fnv1a(bytes));
}

double core_cycles(const JobSpec& job) {
  const Cycle lead = job.parent_key != 0 || job.snapshot ? job.fork_advance
                                                          : job.warmup;
  return static_cast<double>(lead + job.measure) * job.workload.num_cores();
}

TimedBackend::TimedBackend(ExperimentBackend& inner, Tracer& tracer,
                           std::string batch_span, std::string warm_span,
                           int parent)
    : inner_(inner),
      tracer_(tracer),
      batch_span_(std::move(batch_span)),
      parent_(parent) {
  if (!warm_span.empty())
    warm_ = std::make_unique<TimedBackend>(inner.warmup_backend(), tracer,
                                           std::move(warm_span), "", parent);
}

TimedBackend::~TimedBackend() = default;

void TimedBackend::set_parent(int parent) noexcept {
  parent_ = parent;
  if (warm_) warm_->set_parent(parent);
}

void TimedBackend::run(const std::vector<JobSpec>& jobs, ResultSink& sink) {
  const ScopedSpan batch(tracer_, batch_span_, parent_);
  ResultSink timed([&](const JobSpec& job, const RunResult& r) {
    const double t = now_s();
    tracer_.add("cmp.job", t - r.wall_seconds, t, batch.id(),
                batch_span_ + "#" + std::to_string(job.id));
    job_s_ += r.wall_seconds;
    sink.push(job, r);
  });
  inner_.run(jobs, timed);
}

ExperimentBackend& TimedBackend::warmup_backend() noexcept {
  return warm_ ? static_cast<ExperimentBackend&>(*warm_) : *this;
}

Child::Child(const std::string& bin, const std::vector<std::string>& args,
             const std::string& log_path) {
  std::vector<std::string> argv_s{bin};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&fa, 1, 2);
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, bin.c_str(), &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0)
    throw std::runtime_error("cannot spawn " + bin + ": " +
                             std::strerror(rc));
  pid_ = pid;
}

Child::~Child() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    (void)wait();
  }
}

double Child::peak_rss_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

int Child::wait() {
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0) {
    if (errno != EINTR) {
      pid_ = -1;
      return -1;
    }
  }
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double children_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ================================================================ grid_fixed

namespace {

struct GridIteration {
  double setup_s = 0.0;
  double lo = 0.0, hi = 0.0, first = -1.0;
  std::vector<JobSpec> jobs;
  std::vector<RunResult> results;
};

/// The grid with its seed list rotated by `i`: the same jobs, but each
/// iteration's first results come from another simulation seed, so the
/// run's median first-result time does not rest on one seed's jobs.
ExperimentSpec rotated(ExperimentSpec spec, std::size_t i) {
  std::rotate(spec.seeds.begin(),
              spec.seeds.begin() +
                  static_cast<std::ptrdiff_t>(i % spec.seeds.size()),
              spec.seeds.end());
  return spec;
}

/// `got` (results of `jobs`) reordered to follow `base`, matched by job
/// content key; unchanged when the two job lists do not line up.
std::vector<RunResult> in_order_of(const std::vector<JobSpec>& base,
                                   const std::vector<JobSpec>& jobs,
                                   std::vector<RunResult> got) {
  if (jobs.size() != base.size() || got.size() != base.size()) return got;
  std::map<std::uint64_t, std::size_t> slot;
  for (std::size_t i = 0; i < base.size(); ++i)
    slot[campaign::job_key(base[i])] = i;
  std::vector<RunResult> out(base.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto it = slot.find(campaign::job_key(jobs[i]));
    if (it == slot.end()) return got;
    out[it->second] = std::move(got[i]);
  }
  return out;
}

/// One submission of the grid spec: pool start + backend + expand is the
/// set-up users pay on every run; the batch is the makespan.
GridIteration grid_iteration(const ExperimentSpec& spec, unsigned width,
                             Tracer* tracer, TracedIteration* traced) {
  GridIteration it;
  const double t0 = now_s();
  ParallelRunner pool(width);
  InProcessBackend inproc(pool);
  std::vector<JobSpec> jobs = spec.expand();
  const double t_expand = now_s();
  it.lo = t_expand;
  it.setup_s = it.lo - t0;
  ResultSink sink([&](const JobSpec&, const RunResult&) {
    if (it.first < 0) it.first = now_s();
  });
  if (tracer == nullptr) {
    resolve_parent_snapshots(jobs, inproc);
    inproc.run(jobs, sink);
    it.hi = now_s();
  } else {
    tracer->add("experiment.expand", t0, t_expand);
    TimedBackend timed(inproc, *tracer, "backend.run", "backend.warm_run");
    const double r0 = now_s();
    {
      const ScopedSpan s(*tracer, "experiment.resolve");
      timed.set_parent(s.id());
      resolve_parent_snapshots(jobs, timed);
    }
    traced->resolve_s = now_s() - r0;
    timed.set_parent(-1);
    timed.run(jobs, sink);
    it.hi = now_s();
    traced->job_host_s = timed.job_seconds();
  }
  it.results = sink.collect();
  it.jobs = std::move(jobs);
  return it;
}

}  // namespace

Outcome run_grid_fixed(const RunArgs& a) {
  const ExperimentSpec spec = grid_spec(a.seed);
  const std::vector<JobSpec> jobs = spec.expand();
  const std::vector<RunResult> ref = serial_reference(jobs);

  Outcome o;
  EndToEnd e;
  for (const JobSpec& j : jobs) e.core_cycles += core_cycles(j);
  e.jobs = static_cast<double>(jobs.size());
  e.sim = sim_figures(jobs, ref);

  const double deadline = now_s() + (a.trace ? a.seconds / 2 : a.seconds);
  std::vector<RunResult> last;
  std::size_t iter = 0;
  while (now_s() < deadline || e.makespan_s.size() < 3) {
    GridIteration it =
        grid_iteration(rotated(spec, iter++), a.width, nullptr, nullptr);
    e.setup_s.push_back(it.setup_s);
    e.makespan_s.push_back(it.hi - it.lo);
    e.first_result_ms.push_back((it.first - it.lo) * 1e3);
    e.campaign_ms.push_back((it.hi - it.lo) * 1e3);
    last = in_order_of(jobs, it.jobs, std::move(it.results));
    count_mismatches(last, ref, o);
  }
  // More set-up samples than iterations: set-up is short, so its median
  // needs them to be steady.
  for (int i = 0; i < kSetupSamples; ++i) {
    const double t0 = now_s();
    ParallelRunner pool(a.width);
    InProcessBackend inproc(pool);
    const std::vector<JobSpec> j = spec.expand();
    e.setup_s.push_back(now_s() - t0);
  }
  e.peak_rss_mb = self_peak_rss_mb();
  fill_end_to_end(e, o);
  o.digest = results_digest(last);

  if (a.trace) {
    Tracer tracer(true);
    std::vector<double> traced_mk;
    TracedIteration t;
    for (int i = 0; i < 3; ++i) {
      Tracer iter_tracer(true);
      TracedIteration ti;
      GridIteration it = grid_iteration(rotated(spec, iter++), a.width,
                                        &iter_tracer, &ti);
      count_mismatches(in_order_of(jobs, it.jobs, std::move(it.results)),
                       ref, o);
      traced_mk.push_back(it.hi - it.lo);
      ti.spans = iter_tracer.spans();
      ti.lo = it.lo;
      ti.hi = it.hi;
      t = std::move(ti);
    }
    t.core_cycles = e.core_cycles;
    t.width = a.width;
    fill_traced_layers(t, median(e.makespan_s), median(traced_mk), o);
    tracer.merge(t.spans, -1);
    simulated_counts(jobs, ref, o.layers);
    ProbeInput in{spec, jobs, ref, largest_mflush_job(jobs), true};
    run_probes(in, a, tracer, o.layers);
    default_layers(o.layers);
    write_spans(a, tracer.spans(), o);
  }
  o.layers.set("error_rate", error_rate(o), "fraction");
  return o;
}

// ============================================================ sampled_dram
//
// Each iteration runs in a fresh coordinator process: the warm phase
// publishes parent snapshots into a process-wide registry, so a second
// iteration in the same process would find every parent warm and skip
// the cold cost a user pays on each new spec.

namespace {

struct CoordinatorReport {
  std::map<std::string, double> values;
  std::vector<Span> spans;
  std::vector<RunResult> results;
};

CoordinatorReport read_report(const std::string& out) {
  CoordinatorReport r;
  std::ifstream in(out);
  std::string key;
  while (in >> key) {
    if (key == "span") {
      Span s;
      in >> s.name >> s.start >> s.end >> s.id >> s.parent >> s.group;
      if (s.group == "-") s.group.clear();
      r.spans.push_back(std::move(s));
    } else {
      double v = 0.0;
      in >> v;
      r.values[key] = v;
    }
  }
  for (auto& [id, res] : worker::read_result_file(out + ".mfr")) {
    if (r.results.size() <= id) r.results.resize(id + 1);
    r.results[id] = std::move(res);
  }
  return r;
}

/// What a sampled_dram user sets up on every run: a fresh warm store, the
/// remote backend over a local pool (`mflushsim --worker` slots), and the
/// expanded by-reference fork jobs.
struct SampledSetup {
  WarmStore store;
  RemoteBackend backend;
  std::vector<JobSpec> jobs;

  SampledSetup(const ExperimentSpec& spec, const std::string& dir,
               unsigned width, const std::string& worker)
      : store(dir + "/warm"), backend(options(dir, width, worker, store)) {
    jobs = spec.expand();
  }

  static RemoteBackend::Options options(const std::string& dir,
                                        unsigned width,
                                        const std::string& worker,
                                        WarmStore& store) {
    fs::create_directories(dir + "/scratch");
    remote::HostSpec host;
    host.name = "local";
    host.slots = width;
    RemoteBackend::Options ro;
    ro.hosts = {host};
    ro.worker_binary = worker;
    ro.scratch_dir = dir + "/scratch";
    ro.warm_store = &store;
    return ro;
  }
};

CoordinatorReport coordinator_iteration(const RunArgs& a, int k,
                                        bool trace) {
  const std::string dir = a.run_dir + "/it" + std::to_string(k);
  fs::create_directories(dir);
  const std::string out = dir + ".out";
  const int rc = proc::spawn_and_wait(
      a.self_exe,
      {"--coordinator", "--seed", std::to_string(a.seed), "--width",
       std::to_string(a.width), "--dir", dir, "--out", out, "--mflushsim",
       a.mflushsim, "--trace", trace ? "1" : "0"},
      "sampled_dram coordinator", 170);
  if (rc != 0)
    throw std::runtime_error("sampled_dram coordinator exited " +
                             std::to_string(rc));
  CoordinatorReport r = read_report(out);
  fs::remove_all(dir);
  fs::remove(out);
  fs::remove(out + ".mfr");
  return r;
}

}  // namespace

int sampled_coordinator(int argc, char** argv) {
  std::map<std::string, std::string> opt;
  for (int i = 2; i + 1 < argc; i += 2) opt[argv[i]] = argv[i + 1];
  const std::uint64_t seed = std::stoull(opt.at("--seed"));
  const auto width = static_cast<unsigned>(std::stoul(opt.at("--width")));
  const std::string dir = opt.at("--dir");
  const bool trace = opt.at("--trace") == "1";
  const ExperimentSpec spec = sampled_spec(seed);
  Tracer tracer(trace);

  const double t0 = now_s();
  SampledSetup setup(spec, dir, width, opt.at("--mflushsim"));
  const double lo = now_s();
  tracer.add("remote.setup", t0, lo);
  WarmStore& store = setup.store;
  RemoteBackend& remote = setup.backend;
  std::vector<JobSpec>& jobs = setup.jobs;

  double first = -1.0;
  ResultSink sink([&](const JobSpec&, const RunResult&) {
    if (first < 0) first = now_s();
  });
  TimedBackend timed(remote, tracer, "remote.run", "remote.warm_run");
  ExperimentBackend& backend =
      trace ? static_cast<ExperimentBackend&>(timed) : remote;
  RunOptions opts;
  opts.warm_store = &store;
  double resolve_s = 0.0;
  {
    const ScopedSpan s(tracer, "experiment.resolve");
    timed.set_parent(s.id());
    const double r0 = now_s();
    resolve_parent_snapshots(jobs, backend, opts);
    resolve_s = now_s() - r0;
  }
  timed.set_parent(-1);
  backend.run(jobs, sink);
  const double hi = now_s();

  const std::vector<RunResult> results = sink.collect();
  std::vector<std::pair<std::uint32_t, RunResult>> pairs;
  for (std::size_t i = 0; i < results.size(); ++i) {
    RunResult r = results[i];
    r.payload.reset();
    pairs.emplace_back(static_cast<std::uint32_t>(i), std::move(r));
  }
  const std::string out = opt.at("--out");
  worker::write_result_file(out + ".mfr", pairs);
  const WarmStore::Stats st = store.stats();
  std::ofstream os(out);
  os.precision(17);
  os << "lo " << lo << "\nhi " << hi << "\nfirst " << first
     << "\nresolve_s " << resolve_s << "\nhost_s " << timed.job_seconds()
     << "\nrss_self_mb " << self_peak_rss_mb() << "\nrss_children_mb "
     << children_peak_rss_mb() << "\nwarm_hits " << st.hits
     << "\nwarm_misses " << st.misses << "\nwarm_stored " << st.stored
     << '\n';
  for (const Span& s : tracer.spans()) {
    os << "span " << s.name << ' ' << s.start << ' ' << s.end << ' ' << s.id
       << ' ' << s.parent << ' ' << (s.group.empty() ? "-" : s.group)
       << '\n';
  }
  return os ? 0 : 1;
}

namespace {

/// The fork jobs as every backend receives them: parent snapshots attached
/// by a serial warm phase without a store — the reference run_experiment's
/// SerialBackend path takes.
std::vector<JobSpec> resolved_serially(std::vector<JobSpec> jobs) {
  SerialBackend serial;
  resolve_parent_snapshots(jobs, serial);
  return jobs;
}

/// True when no reference fork touched the banked DRAM model although the
/// spec asks for it: the warm phase built the parents on fixed memory.
bool forks_missed_dram(const ExperimentSpec& spec,
                       const std::vector<RunResult>& ref) {
  if (spec.mem_model != MemModelKind::BankedDram) return false;
  for (const RunResult& r : ref) {
    const SimMetrics& m = r.metrics;
    if (m.dram_row_hits + m.dram_row_misses + m.dram_row_conflicts != 0)
      return false;
  }
  return true;
}

}  // namespace

Outcome run_sampled_dram(const RunArgs& a) {
  const ExperimentSpec spec = sampled_spec(a.seed);
  const std::vector<JobSpec> jobs = spec.expand();
  const std::vector<RunResult> ref =
      serial_reference(resolved_serially(jobs));

  Outcome o;
  if (forks_missed_dram(spec, ref)) {
    o.notes.push_back(
        "defect: sampled forks ran on fixed memory although the spec asks "
        "for banked DRAM (warm parents drop mem_model; see README)");
  }
  EndToEnd e;
  std::set<std::uint64_t> parents;
  for (const JobSpec& j : jobs) {
    e.core_cycles += core_cycles(j);
    if (parents.insert(j.parent_key).second)
      e.core_cycles += static_cast<double>(j.warmup) * j.workload.num_cores();
  }
  e.jobs = static_cast<double>(jobs.size());
  e.sim = sim_figures(jobs, ref);

  const double deadline = now_s() + (a.trace ? a.seconds / 2 : a.seconds);
  std::vector<RunResult> last;
  std::vector<double> rss;
  int k = 0;
  while (now_s() < deadline || e.makespan_s.size() < 3) {
    CoordinatorReport r = coordinator_iteration(a, k++, false);
    const double lo = r.values.at("lo");
    e.makespan_s.push_back(r.values.at("hi") - lo);
    e.first_result_ms.push_back((r.values.at("first") - lo) * 1e3);
    e.campaign_ms.push_back((r.values.at("hi") - lo) * 1e3);
    rss.push_back(r.values.at("rss_self_mb") + r.values.at("rss_children_mb"));
    count_mismatches(r.results, ref, o);
    last = std::move(r.results);
  }
  // Set-up is sampled in this process (it touches no process-wide state),
  // over empty store and scratch directories made beforehand: directory
  // creation on a shared filesystem is noise, not the program's work.
  for (int i = 0; i < kSetupSamples; ++i) {
    const std::string dir = a.run_dir + "/setup" + std::to_string(i);
    fs::create_directories(dir + "/warm");
    fs::create_directories(dir + "/scratch");
    const double t0 = now_s();
    auto setup = std::make_unique<SampledSetup>(spec, dir, a.width,
                                                a.mflushsim);
    e.setup_s.push_back(now_s() - t0);
    setup.reset();
    fs::remove_all(dir);
  }
  e.peak_rss_mb = median(rss);
  fill_end_to_end(e, o);
  o.digest = results_digest(last);

  if (a.trace) {
    Tracer tracer(true);
    std::vector<double> traced_mk;
    CoordinatorReport r;
    for (int i = 0; i < 3; ++i) {
      r = coordinator_iteration(a, k++, true);
      count_mismatches(r.results, ref, o);
      traced_mk.push_back(r.values.at("hi") - r.values.at("lo"));
    }
    TracedIteration t;
    t.spans = r.spans;
    t.lo = r.values.at("lo");
    t.hi = r.values.at("hi");
    t.job_host_s = r.values.at("host_s");
    t.core_cycles = e.core_cycles;
    t.resolve_s = r.values.at("resolve_s");
    t.warm_jobs = r.values.at("warm_misses");
    t.width = a.width;
    fill_traced_layers(t, median(e.makespan_s), median(traced_mk), o);
    o.layers.set("warmstore.hits", r.values.at("warm_hits"), "count");
    o.layers.set("warmstore.misses", r.values.at("warm_misses"), "count");
    o.layers.set("warmstore.stored", r.values.at("warm_stored"), "count");
    tracer.merge(r.spans, -1);
    simulated_counts(jobs, ref, o.layers);
    ProbeInput in{spec, jobs, ref, largest_mflush_job(jobs), true};
    run_probes(in, a, tracer, o.layers);
    default_layers(o.layers);
    write_spans(a, tracer.spans(), o);
  }
  o.layers.set("error_rate", error_rate(o), "fraction");
  return o;
}

// ============================================================== served_mix

namespace {

/// Closed-loop client width and daemon slots: together at most nproc.
std::pair<unsigned, unsigned> served_shape(unsigned width) {
  const unsigned clients = width >= 3 ? 2 : 1;
  return {clients, std::max(1u, width - clients)};
}

struct SessionShared {
  std::mutex m;
  std::set<std::string> campaigns;  ///< ids seen this session
  std::uint64_t attaches = 0;
  std::uint64_t executed = 0;
  std::uint64_t cached = 0;
  std::uint64_t mismatched = 0;  ///< finished, but a result differed
  std::map<std::uint64_t, double> job_host_s;  ///< first wall per job key
  std::vector<std::string> errors;
};

/// One followed SUBMIT over the wire: the same conversation
/// daemon::submit holds, spoken frame by frame so the first RESULT frame
/// can be timed.
Submission submit_follow(const std::string& address,
                         const ExperimentSpec& spec,
                         const std::map<std::uint64_t, RunResult>& ref,
                         SessionShared& shared, Tracer& tracer,
                         const std::string& group) {
  Submission s;
  s.submit = now_s();
  const int span = tracer.begin("daemon.submit", -1, group);
  try {
    const int fd = sockio::connect_to(address);
    struct FdGuard {
      int fd;
      ~FdGuard() { sockio::close_fd(fd); }
    } guard{fd};
    daemon::Message sub;
    sub.type = daemon::MsgType::kSubmit;
    sub.follow = 1;
    sub.blob = spec.to_bytes();
    daemon::send_frame(fd, sub);
    ResultSink sink;
    std::vector<std::uint8_t> buffer;
    std::string state;
    std::string campaign_id;
    std::uint64_t executed = 0, cached = 0;
    while (state.empty()) {
      auto msg = daemon::read_frame(fd, buffer);
      if (!msg) throw std::runtime_error("daemon closed the connection");
      const double t = now_s();
      switch (msg->type) {
        case daemon::MsgType::kSubmitted:
          s.ack = t;
          campaign_id = msg->campaign;
          tracer.add("wire.ack", s.submit, t, span, group);
          break;
        case daemon::MsgType::kResult: {
          if (s.first_result < 0) {
            s.first_result = t;
            if (s.ack >= 0)
              tracer.add("wire.first_result", s.ack, t, span, group);
          }
          auto rs = worker::decode_results(msg->blob, "RESULT frame");
          if (rs.size() != 1 || rs[0].first != msg->job_id)
            throw std::runtime_error("RESULT frame does not match its job");
          JobSpec slot;
          slot.id = msg->job_id;
          sink.push(slot, std::move(rs[0].second));
          break;
        }
        case daemon::MsgType::kDone:
          s.done = t;
          state = msg->text;
          executed = msg->executed;
          cached = msg->cached;
          if (s.first_result >= 0)
            tracer.add("wire.results", s.first_result, t, span, group);
          break;
        case daemon::MsgType::kError:
          throw std::runtime_error("daemon: " + msg->text);
        default:
          throw std::runtime_error(std::string("unexpected ") +
                                   daemon::type_name(msg->type) + " frame");
      }
    }
    if (state != "finished") throw std::runtime_error("campaign " + state);
    const std::vector<JobSpec> jobs = spec.expand();
    const std::vector<RunResult> got = sink.collect();
    bool match = got.size() == jobs.size();
    for (std::size_t i = 0; match && i < jobs.size(); ++i)
      match = same_result(got[i], ref.at(campaign::job_key(jobs[i])));
    s.ok = match;
    const std::lock_guard lk(shared.m);
    // An attach's DONE repeats its campaign's counters: count them once.
    if (shared.campaigns.insert(campaign_id).second) {
      shared.executed += executed;
      shared.cached += cached;
    } else {
      ++shared.attaches;
    }
    for (std::size_t i = 0; i < jobs.size() && i < got.size(); ++i)
      shared.job_host_s.emplace(campaign::job_key(jobs[i]),
                                got[i].wall_seconds);
    if (!match) {
      ++shared.mismatched;
      shared.errors.push_back("result differs from the reference");
    }
  } catch (const std::exception& ex) {
    s.ok = false;
    const std::lock_guard lk(shared.m);
    shared.errors.push_back(ex.what());
  }
  tracer.end(span);
  return s;
}

struct Session {
  double ready_s = 0.0;
  double lo = 0.0, hi = 0.0;
  double rss_mb = 0.0;
  std::vector<Submission> subs;
  std::vector<Span> spans;
  double job_host_s = 0.0;
  std::uint64_t attaches = 0, executed = 0, cached = 0, mismatched = 0;
  std::vector<std::string> errors;
};

Session served_session(const RunArgs& a, int k,
                       const std::vector<ExperimentSpec>& pool,
                       const std::vector<std::size_t>& draw,
                       const std::map<std::uint64_t, RunResult>& ref,
                       bool trace) {
  const auto [clients, slots] = served_shape(a.width);
  const std::string data = a.run_dir + "/s" + std::to_string(k);
  const std::string address = "unix:" + data + ".sock";
  Session out;
  std::unique_ptr<Child> daemon_proc;
  out.ready_s = start_daemon(a, address, data, slots, daemon_proc);

  Tracer tracer(trace);
  SessionShared shared;
  std::vector<std::vector<Submission>> per_client(clients);
  out.lo = now_s();
  {
    std::vector<std::jthread> threads;
    for (unsigned c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (std::size_t i = c; i < draw.size(); i += clients) {
          per_client[c].push_back(submit_follow(address, pool[draw[i]], ref,
                                                shared, tracer,
                                                "sub" + std::to_string(i)));
        }
      });
    }
  }
  out.hi = now_s();
  out.rss_mb = stop_daemon(address, *daemon_proc);
  fs::remove_all(data);
  fs::remove(data + ".log");
  for (auto& v : per_client)
    out.subs.insert(out.subs.end(), v.begin(), v.end());
  out.spans = tracer.spans();
  for (const auto& [key, s] : shared.job_host_s) out.job_host_s += s;
  out.attaches = shared.attaches;
  out.executed = shared.executed;
  out.cached = shared.cached;
  out.mismatched = shared.mismatched;
  out.errors = std::move(shared.errors);
  return out;
}

}  // namespace

Outcome run_served_mix(const RunArgs& a) {
  const std::vector<ExperimentSpec> pool = served_pool(a.seed);
  const std::vector<std::size_t> draw = served_plan(a.seed);

  // Reference: every distinct job of the pool, serially.
  std::vector<JobSpec> ref_jobs;
  std::map<std::uint64_t, RunResult> ref;
  for (const ExperimentSpec& s : pool) {
    for (JobSpec j : s.expand()) {
      const std::uint64_t key = campaign::job_key(j);
      if (ref.count(key)) continue;
      j.id = static_cast<std::uint32_t>(ref_jobs.size());
      ref_jobs.push_back(j);
      ref.emplace(key, run_job(j));
    }
  }
  std::vector<RunResult> ref_results;
  for (const JobSpec& j : ref_jobs)
    ref_results.push_back(ref.at(campaign::job_key(j)));

  Outcome o;
  EndToEnd e;
  for (const std::size_t i : draw) {
    for (const JobSpec& j : pool[i].expand()) {
      e.core_cycles += core_cycles(j);
      e.jobs += 1.0;
    }
  }
  e.sim = sim_figures(ref_jobs, ref_results);

  const double deadline = now_s() + (a.trace ? a.seconds / 2 : a.seconds);
  std::vector<Submission> subs;
  std::vector<double> rss;
  int k = 0;
  auto record = [&](const Session& s) {
    subs.insert(subs.end(), s.subs.begin(), s.subs.end());
    o.mismatched += s.mismatched;
    for (const std::string& err : s.errors) o.notes.push_back("error: " + err);
  };
  while (now_s() < deadline || subs.size() < 100 || e.makespan_s.size() < 3) {
    Session s = served_session(a, k++, pool, draw, ref, false);
    e.setup_s.push_back(s.ready_s);
    e.makespan_s.push_back(s.hi - s.lo);
    rss.push_back(s.rss_mb);
    record(s);
  }
  // Further spawn-to-ready samples, each on a fresh data dir, so the
  // set-up median rests on as many samples on every run.
  while (e.setup_s.size() < kDaemonSetupSamples) {
    const std::string data = a.run_dir + "/ready" + std::to_string(k++);
    std::unique_ptr<Child> daemon_proc;
    e.setup_s.push_back(
        start_daemon(a, "unix:" + data + ".sock", data, 1, daemon_proc));
    (void)stop_daemon("unix:" + data + ".sock", *daemon_proc);
    fs::remove_all(data);
  }
  const LoopTally t = tally(subs);
  o.attempted = t.attempted;
  o.failed = t.failed;
  e.first_result_ms = t.first_result_ms;
  e.campaign_ms = t.campaign_ms;
  e.peak_rss_mb = median(rss);
  fill_end_to_end(e, o);
  o.digest = results_digest(ref_results);

  if (a.trace) {
    Tracer tracer(true);
    std::vector<double> traced_mk;
    Session s;
    for (int i = 0; i < 2; ++i) {
      s = served_session(a, k++, pool, draw, ref, true);
      traced_mk.push_back(s.hi - s.lo);
      record(s);
      const LoopTally ts = tally(s.subs);
      o.attempted += ts.attempted;
      o.failed += ts.failed;
    }
    const auto [clients, slots] = served_shape(a.width);
    TracedIteration ti;
    ti.spans = s.spans;
    ti.lo = s.lo;
    ti.hi = s.hi;
    ti.job_host_s = s.job_host_s;
    for (const JobSpec& j : ref_jobs) ti.core_cycles += core_cycles(j);
    ti.width = slots;
    {
      // resolve_parent_snapshots over the pool's FullRun jobs: a no-op
      // pass, timed so the warm-phase figure exists on every workload.
      SerialBackend serial;
      std::vector<JobSpec> jobs = ref_jobs;
      const double r0 = now_s();
      resolve_parent_snapshots(jobs, serial);
      ti.resolve_s = now_s() - r0;
    }
    fill_traced_layers(ti, median(e.makespan_s), median(traced_mk), o);
    const LoopTally all = tally(subs);
    o.layers.set("daemon.ready_ms", median(e.setup_s) * 1e3, "ms");
    o.layers.set("daemon.submit_ack_ms_p50", median(all.ack_ms), "ms");
    o.layers.set("daemon.submit_ack_ms_p90",
                 percentile_rule(all.ack_ms, 90).value, "ms");
    o.layers.set("daemon.attach_frac",
                 static_cast<double>(s.attaches) /
                     static_cast<double>(s.subs.size()),
                 "fraction");
    const double served = static_cast<double>(s.executed + s.cached);
    o.layers.set("campaign.executed", static_cast<double>(s.executed),
                 "count");
    o.layers.set("campaign.cached", static_cast<double>(s.cached), "count");
    o.layers.set("campaign.cache_hit_frac",
                 served > 0 ? static_cast<double>(s.cached) / served : 0.0,
                 "fraction");
    tracer.merge(s.spans, -1);
    simulated_counts(ref_jobs, ref_results, o.layers);
    ProbeInput in{pool[draw.front()], ref_jobs, ref_results,
                  largest_mflush_job(ref_jobs), false};
    run_probes(in, a, tracer, o.layers);
    default_layers(o.layers);
    write_spans(a, tracer.spans(), o);
  }
  o.layers.set("error_rate", error_rate(o), "fraction");
  return o;
}

}  // namespace perfbench
