#include "sim/backend.h"

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common/env.h"
#include "common/envelope.h"
#include "common/fsio.h"
#include "sim/parallel.h"
#include "sim/warmstore.h"

extern char** environ;

namespace mflush {
namespace {

// ------------------------------------------------------- protocol file IO

constexpr std::uint64_t kJobMagic = 0x4d464c55534a4f42ull;     // "MFLUSJOB"
constexpr std::uint64_t kResultMagic = 0x4d464c5553524553ull;  // "MFLUSRES"

/// argv[0] recorded at startup (record_argv0), the off-Linux fallback for
/// default_worker_binary.
std::string& argv0_recorded() {
  static std::string path;
  return path;
}

}  // namespace

// ------------------------------------------------------ process spawning

namespace proc {

int spawn_and_wait(const std::string& bin,
                   const std::vector<std::string>& args,
                   const std::string& what, unsigned timeout_s) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 2);
  argv.push_back(const_cast<char*>(bin.c_str()));
  for (const std::string& a : args)
    argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const std::string context = what.empty() ? "" : " on " + what;

  pid_t pid = 0;
  if (const int rc = ::posix_spawnp(&pid, bin.c_str(), nullptr, nullptr,
                                    argv.data(), environ);
      rc != 0) {
    throw std::runtime_error("failed to spawn worker '" + bin + "'" +
                             context + ": " + std::strerror(rc));
  }

  int status = 0;
  if (timeout_s == 0) {
    while (::waitpid(pid, &status, 0) < 0) {
      if (errno != EINTR)
        throw std::runtime_error("waitpid failed for worker '" + bin + "'" +
                                 context + ": " + std::strerror(errno));
    }
  } else {
    // Deadline mode: poll with WNOHANG so a wedged child cannot block the
    // scheduler forever; at the deadline, kill it and reap the corpse so
    // the throw below leaves no zombie behind.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(timeout_s);
    for (;;) {
      const pid_t r = ::waitpid(pid, &status, WNOHANG);
      if (r == pid) break;
      if (r < 0 && errno != EINTR) {
        throw std::runtime_error("waitpid failed for worker '" + bin + "'" +
                                 context + ": " + std::strerror(errno));
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        ::kill(pid, SIGKILL);
        while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
        throw std::runtime_error("worker '" + bin + "' timed out after " +
                                 std::to_string(timeout_s) + "s" + context);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  if (WIFSIGNALED(status)) {
    throw std::runtime_error("worker '" + bin + "' killed by signal " +
                             std::to_string(WTERMSIG(status)) + context);
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}

}  // namespace proc

ScratchGuard::~ScratchGuard() {
  if (keep_) return;
  std::error_code ec;
  for (const std::string& p : paths_) std::filesystem::remove(p, ec);
}

// --------------------------------------------------------------- ResultSink

void ResultSink::push(const JobSpec& job, RunResult result) {
  const std::lock_guard lk(m_);
  if (job.id >= slots_.size()) slots_.resize(job.id + 1);
  if (slots_[job.id].has_value()) {
    throw std::runtime_error("ResultSink: duplicate result for job " +
                             std::to_string(job.id));
  }
  slots_[job.id] = std::move(result);
  if (on_result_) on_result_(job, *slots_[job.id]);
}

std::size_t ResultSink::completed() const {
  const std::lock_guard lk(m_);
  std::size_t n = 0;
  for (const auto& s : slots_)
    if (s.has_value()) ++n;
  return n;
}

RunResult ResultSink::at(std::size_t id) const {
  const std::lock_guard lk(m_);
  if (id >= slots_.size() || !slots_[id].has_value()) {
    throw std::runtime_error("ResultSink: no result for job " +
                             std::to_string(id));
  }
  return *slots_[id];
}

std::vector<RunResult> ResultSink::collect() const {
  const std::lock_guard lk(m_);
  std::vector<RunResult> out;
  out.reserve(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].has_value()) {
      throw std::runtime_error("ResultSink: missing result for job " +
                               std::to_string(i));
    }
    out.push_back(*slots_[i]);
  }
  return out;
}

// ----------------------------------------------------------------- backends

std::vector<RunResult> ExperimentBackend::run_collect(
    const std::vector<JobSpec>& jobs) {
  ResultSink sink;
  run(jobs, sink);
  return sink.collect();
}

void SerialBackend::run(const std::vector<JobSpec>& jobs, ResultSink& sink) {
  for (const JobSpec& job : jobs) sink.push(job, run_job(job));
}

InProcessBackend::InProcessBackend() : pool_(&ParallelRunner::shared()) {}

void InProcessBackend::run(const std::vector<JobSpec>& jobs,
                           ResultSink& sink) {
  // One task per fork group (fork_group_end), which takes its parent once
  // and runs its windows in one pass (run_fork_group); every other job is
  // a task of its own, in vector order.
  std::vector<std::pair<std::size_t, std::size_t>> groups;
  for (std::size_t begin = 0; begin < jobs.size();) {
    const std::size_t end = fork_group_end(jobs, begin);
    groups.emplace_back(begin, end);
    begin = end;
  }
  pool_->for_each_index(groups.size(), [&](std::size_t g) {
    const auto [begin, end] = groups[g];
    if (end - begin == 1) {
      sink.push(jobs[begin], run_job(jobs[begin]));
      return;
    }
    run_fork_group(std::span(jobs).subspan(begin, end - begin),
                   [&](std::size_t k, RunResult r) {
                     sink.push(jobs[begin + k], std::move(r));
                   });
  });
}

void record_argv0(const char* argv0) {
  if (argv0 == nullptr || *argv0 == '\0') return;
  std::error_code ec;
  const auto abs = std::filesystem::absolute(argv0, ec);
  if (!ec) argv0_recorded() = abs.string();
}

std::string worker_binary_near(const std::string& exe) {
  if (exe.empty()) return {};
  std::error_code ec;
  const std::filesystem::path path(exe);
  if (path.filename() == "mflushsim" &&
      std::filesystem::exists(path, ec)) {
    return path.string();
  }
  const auto sibling = path.parent_path() / "mflushsim";
  if (std::filesystem::exists(sibling, ec)) return sibling.string();
  return {};
}

std::string default_worker_binary() {
  if (std::string bin = env::str_or("MFLUSH_WORKER_BIN"); !bin.empty())
    return bin;
  std::error_code ec;
  const auto self = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (!ec) {
    if (std::string found = worker_binary_near(self.string());
        !found.empty()) {
      return found;
    }
  }
  // /proc/self/exe absent (non-Linux) or the tool was renamed: fall back
  // to the argv[0] recorded at startup instead of silently giving up.
  return worker_binary_near(argv0_recorded());
}

// ----------------------------------------------------------- run_experiment

namespace {

/// What the warm phase found: the distinct by-reference parents, and the
/// ones neither the warm store nor the registry held (first-seen order).
struct ParentScan {
  std::size_t parents = 0;
  std::vector<std::uint64_t> cold;
};

ParentScan attach_known_parents(std::vector<JobSpec>& jobs,
                                const RunOptions& options) {
  ParentScan scan;
  std::unordered_map<std::uint64_t,
                     std::shared_ptr<const std::vector<std::uint8_t>>>
      known;
  for (JobSpec& j : jobs) {
    if (j.parent_key == 0 || j.snapshot) continue;
    const auto [it, fresh] = known.try_emplace(j.parent_key);
    if (fresh) {
      ++scan.parents;
      auto& b = it->second;
      if (options.warm_store) b = options.warm_store->lookup(j.parent_key);
      if (!b) {
        b = warmstore::recall(j.parent_key);
        // A recall with a store configured means the disk entry is missing
        // (or was just discarded as corrupt): heal it from memory.
        if (b && options.warm_store) options.warm_store->put(j.parent_key, b);
      }
      if (!b) scan.cold.push_back(j.parent_key);
    }
    j.snapshot = it->second;
  }
  return scan;
}

/// SMARTS-style stopping rule: grow each point's fork set until the mean
/// IPC is tight enough. All statistics derive from job results only, so
/// the round structure — and therefore the final result vector — is
/// identical for every backend.
void run_more_rounds(const ExperimentSpec& spec,
                     const std::vector<JobSpec>& jobs,
                     ExperimentBackend& backend, ResultSink& sink) {
  const Cycle stride = spec.sampled.fork_stride != 0 ? spec.sampled.fork_stride
                                                     : spec.measure / 2;
  const std::size_t points = spec.num_points();
  const std::uint32_t forks = spec.sampled.forks;
  std::vector<std::vector<std::uint32_t>> point_jobs(points);
  std::vector<JobSpec> tmpl(points);  // carries each point's parent handle
  for (const JobSpec& j : jobs) {
    const std::size_t p = j.id / forks;
    if (point_jobs[p].empty()) tmpl[p] = j;
    point_jobs[p].push_back(j.id);
  }

  std::uint32_t next_id = static_cast<std::uint32_t>(jobs.size());
  for (std::uint32_t round = 1; round < spec.sampled.max_rounds; ++round) {
    std::vector<JobSpec> more;
    for (std::size_t p = 0; p < points; ++p) {
      const auto& ids = point_jobs[p];
      const auto n = static_cast<double>(ids.size());
      double sum = 0.0;
      for (const std::uint32_t id : ids) sum += sink.at(id).metrics.ipc;
      const double mean = sum / n;
      double ss = 0.0;
      for (const std::uint32_t id : ids) {
        const double d = sink.at(id).metrics.ipc - mean;
        ss += d * d;
      }
      const double half_width =
          1.96 * std::sqrt(ss / (n - 1.0) / n);  // 95% CI, n >= 2
      if (mean <= 0.0 || half_width / mean <= spec.sampled.target_half_width)
        continue;
      // Capture the fork count before appending: ids aliases point_jobs[p],
      // so reading ids.size() inside the loop would skip/duplicate strides.
      const std::size_t have = ids.size();
      for (std::uint32_t k = 0; k < forks; ++k) {
        JobSpec j = tmpl[p];
        j.id = next_id++;
        j.fork_advance = static_cast<Cycle>(have + k) * stride;
        point_jobs[p].push_back(j.id);
        more.push_back(std::move(j));
      }
    }
    if (more.empty()) break;
    backend.run(more, sink);
  }
}

}  // namespace

void resolve_parent_snapshots(std::vector<JobSpec>& jobs,
                              ExperimentBackend& /*backend*/,
                              const RunOptions& options) {
  (void)attach_known_parents(jobs, options);
}

std::vector<RunResult> run_experiment(const ExperimentSpec& spec,
                                      ExperimentBackend& backend,
                                      ResultSink& sink,
                                      const RunOptions& options) {
  std::vector<JobSpec> jobs = spec.expand();
  const ParentScan scan = attach_known_parents(jobs, options);
  backend.run(jobs, sink);
  if (spec.mode == RunMode::Sampled && spec.sampled.target_half_width > 0.0)
    run_more_rounds(spec, jobs, backend, sink);

  // The cold parents warmed where their forks ran. Keep what this process
  // holds (in-process backends) so a rerun reuses it; workers on local
  // hosts already wrote the store directory themselves.
  if (options.warm_store) {
    for (const std::uint64_t key : scan.cold)
      options.warm_store->put(key, warmstore::recall(key));
  }
  if (options.on_event && scan.parents != 0) {
    options.on_event(std::to_string(scan.parents) + " parent(s): " +
                     std::to_string(scan.parents - scan.cold.size()) +
                     " reused, " + std::to_string(scan.cold.size()) +
                     " warmed");
  }
  return sink.collect();
}

std::vector<RunResult> run_experiment(const ExperimentSpec& spec,
                                      ExperimentBackend& backend,
                                      ResultSink& sink) {
  return run_experiment(spec, backend, sink, RunOptions{});
}

std::vector<RunResult> run_experiment(const ExperimentSpec& spec,
                                      ExperimentBackend& backend) {
  ResultSink sink;
  return run_experiment(spec, backend, sink);
}

// ------------------------------------------------------------------- worker

namespace worker {

std::string scratch_stem(const std::string& dir, std::uint32_t job_id) {
  static std::atomic<std::uint64_t> counter{0};
  return (std::filesystem::path(dir) /
          ("mflush-" + std::to_string(::getpid()) + "-" +
           std::to_string(counter.fetch_add(1)) + "-job" +
           std::to_string(job_id)))
      .string();
}

void write_job_file(const std::string& path,
                    const std::vector<JobSpec>& jobs) {
  ArchiveWriter ar;
  envelope::put_header(ar, kJobMagic, kProtocolVersion);
  ar.put<std::uint64_t>(jobs.size());
  for (const JobSpec& j : jobs) j.save(ar);
  envelope::seal(ar);
  // Scratch protocol files skip the fsync: durable results are the
  // campaign layer's job. The atomic rename still hides partial files.
  fsio::write_file_atomic(path, ar.bytes(), /*durable=*/false);
}

std::vector<JobSpec> read_job_file(const std::string& path) {
  const auto bytes = fsio::read_file_bytes(path, "mflush job file");
  const std::string what = "mflush job file " + path;
  ArchiveReader ar(envelope::unseal(bytes, what));
  envelope::expect_header(ar, kJobMagic, kProtocolVersion, what);
  const auto n = ar.get<std::uint64_t>();
  std::vector<JobSpec> jobs;
  jobs.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) jobs.push_back(JobSpec::load(ar));
  if (!ar.done()) throw std::runtime_error(what + ": trailing bytes");
  return jobs;
}

std::vector<std::uint8_t> encode_results(
    const std::vector<std::pair<std::uint32_t, RunResult>>& results) {
  ArchiveWriter ar;
  envelope::put_header(ar, kResultMagic, kProtocolVersion);
  ar.io(results);
  envelope::seal(ar);
  return ar.take();
}

std::vector<std::pair<std::uint32_t, RunResult>> decode_results(
    std::span<const std::uint8_t> bytes, const std::string& what) {
  const std::string name = "mflush result file " + what;
  ArchiveReader ar(envelope::unseal(bytes, name));
  envelope::expect_header(ar, kResultMagic, kProtocolVersion, name);
  std::vector<std::pair<std::uint32_t, RunResult>> results;
  ar.io(results);
  if (!ar.done()) throw std::runtime_error(name + ": trailing bytes");
  return results;
}

void write_result_file(
    const std::string& path,
    const std::vector<std::pair<std::uint32_t, RunResult>>& results) {
  fsio::write_file_atomic(path, encode_results(results), /*durable=*/false);
}

std::vector<std::pair<std::uint32_t, RunResult>> read_result_file(
    const std::string& path) {
  return decode_results(fsio::read_file_bytes(path, "mflush result file"),
                        path);
}

int run_worker(const std::string& job_path, const std::string& result_path,
               const std::string& store_dir, bool write_parts) {
  try {
    std::vector<JobSpec> jobs = read_job_file(job_path);
    std::optional<WarmStore> store;
    if (!store_dir.empty()) {
      store.emplace(store_dir);
      // Install every embedded parent snapshot before anything runs —
      // batch-internal order must not matter, and one upload has to serve
      // every later batch on this host.
      for (const JobSpec& job : jobs) {
        if (job.parent_key != 0 && job.snapshot)
          store->put(job.parent_key, job.snapshot);
      }
    }
    std::vector<std::pair<std::uint32_t, RunResult>> results;
    results.reserve(jobs.size());
    // Streaming transports watch for these one-entry part files; the
    // atomic rename inside write_result_file is what makes existence
    // imply completeness on the coordinator side.
    const auto finish = [&](const JobSpec& job, RunResult r) {
      results.emplace_back(job.id, std::move(r));
      if (write_parts) {
        write_result_file(result_path + ".r" + std::to_string(job.id),
                          {results.back()});
      }
    };
    // Jobs run serially: the worker *process* is the unit of parallelism,
    // and serial execution keeps the worker bit-identical to run_job. Each
    // fork group is one pass (run_fork_group), so the parent is taken once
    // per group instead of once per fork.
    for (std::size_t begin = 0; begin < jobs.size();) {
      const std::size_t end = fork_group_end(jobs, begin);
      JobSpec& head = jobs[begin];
      if (head.parent_key == 0) {
        finish(head, run_job(head));
        begin = end;
        continue;
      }
      // A by-reference group takes its parent from the host store; on a
      // miss the group warms it here, and once the group's first result is
      // out (whichever fork's window ends first) the capture goes into the
      // store, so every later batch on this host finds it.
      if (store && !head.snapshot)
        head.snapshot = store->lookup(head.parent_key);
      bool store_missed = store && !head.snapshot;
      run_fork_group(std::span(jobs).subspan(begin, end - begin),
                     [&](std::size_t k, RunResult r) {
                       finish(jobs[begin + k], std::move(r));
                       if (!store_missed) return;
                       store->put(head.parent_key,
                                  warmstore::recall(head.parent_key));
                       store_missed = false;
                     });
      begin = end;
    }
    write_result_file(result_path, results);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mflushsim --worker: %s\n", e.what());
    return 1;
  }
}

}  // namespace worker
}  // namespace mflush
