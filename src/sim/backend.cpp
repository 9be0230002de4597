#include "sim/backend.h"

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
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
#include "common/sockio.h"
#include "sim/parallel.h"
#include "sim/warmstore.h"

extern char** environ;

namespace mflush {
namespace {

// ------------------------------------------------------- protocol file IO

constexpr std::uint64_t kJobMagic = 0x4d464c55534a4f42ull;     // "MFLUSJOB"
constexpr std::uint64_t kResultMagic = 0x4d464c5553524553ull;  // "MFLUSRES"

/// A longer result frame is damage, not bytes still in flight.
constexpr std::size_t kMaxResultFrame = 64u << 20;

/// The jobs of a job archive; errors name `what`.
std::vector<JobSpec> decode_jobs(std::span<const std::uint8_t> bytes,
                                 const std::string& what) {
  const std::string name = "mflush job file " + what;
  ArchiveReader ar(envelope::unseal(bytes, name));
  envelope::expect_header(ar, kJobMagic, worker::kProtocolVersion, name);
  const auto n = ar.get<std::uint64_t>();
  std::vector<JobSpec> jobs;
  jobs.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) jobs.push_back(JobSpec::load(ar));
  if (!ar.done()) throw std::runtime_error(name + ": trailing bytes");
  return jobs;
}

/// All of stdin, read to EOF in large chunks (an ssh batch's archive can
/// carry multi-MB parent snapshots).
std::vector<std::uint8_t> read_stdin() {
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[64 * 1024];
  while (const std::size_t n = std::fread(chunk, 1, sizeof(chunk), stdin))
    bytes.insert(bytes.end(), chunk, chunk + n);
  if (std::ferror(stdin)) throw std::runtime_error("cannot read <stdin>");
  return bytes;
}

/// argv[0] recorded at startup (record_argv0), the off-Linux fallback for
/// default_worker_binary.
std::string& argv0_recorded() {
  static std::string path;
  return path;
}

}  // namespace

// ------------------------------------------------------ process spawning

namespace proc {
namespace {

using Clock = std::chrono::steady_clock;

/// The one spawn path: a child of posix_spawnp (PATH lookup). With
/// `piped`, its stdin and stdout are one end of a close-on-exec socketpair
/// and `fd` is the other, so no sibling spawned meanwhile holds it open. A
/// child that wait() did not reap is killed and reaped on destruction.
struct Child {
  Child(const std::string& bin, const std::vector<std::string>& args,
        const std::string& what, unsigned timeout_s, bool piped)
      : name("worker '" + bin + "'"),
        context(what.empty() ? "" : " on " + what),
        timeout_s(timeout_s),
        deadline(timeout_s == 0
                     ? Clock::time_point::max()
                     : Clock::now() + std::chrono::seconds(timeout_s)) {
    std::vector<char*> argv = {const_cast<char*>(bin.c_str())};
    for (const std::string& a : args)
      argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    int ends[2] = {-1, -1};
    if (piped &&
        ::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, ends) != 0)
      fail("socketpair failed for", errno);
    posix_spawn_file_actions_t actions;
    ::posix_spawn_file_actions_init(&actions);
    for (const int stdio : {STDIN_FILENO, STDOUT_FILENO})
      if (piped) ::posix_spawn_file_actions_adddup2(&actions, ends[1], stdio);
    const int rc = ::posix_spawnp(&pid, bin.c_str(), &actions, nullptr,
                                  argv.data(), environ);
    ::posix_spawn_file_actions_destroy(&actions);
    if (piped) ::close(ends[1]);
    if (rc != 0) {
      if (piped) ::close(ends[0]);  // no destructor runs for this throw
      fail("failed to spawn", rc);
    }
    fd = ends[0];
  }
  ~Child() {
    if (fd >= 0) ::close(fd);
    kill_and_reap();
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  [[noreturn]] void fail(const std::string& why, int err) const {
    throw std::runtime_error(why + " " + name + context + ": " +
                             std::strerror(err));
  }

  void kill_and_reap() noexcept {
    if (pid < 0) return;
    ::kill(pid, SIGKILL);
    while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
    }
    pid = -1;
  }

  /// At the deadline: kill, reap, and report the timeout.
  [[noreturn]] void time_out() {
    kill_and_reap();
    throw std::runtime_error(name + " timed out after " +
                             std::to_string(timeout_s) + "s" + context);
  }

  /// Reap the child and return its exit code. With a deadline, poll with
  /// WNOHANG so a wedged child cannot block the caller forever.
  int wait() {
    const bool bounded = deadline != Clock::time_point::max();
    int status = 0;
    for (;;) {
      const pid_t r = ::waitpid(pid, &status, bounded ? WNOHANG : 0);
      if (r == pid) break;
      if (r < 0 && errno != EINTR) fail("waitpid failed for", errno);
      if (r == 0 && Clock::now() >= deadline) time_out();
      if (r == 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    pid = -1;
    if (WIFSIGNALED(status)) {
      throw std::runtime_error(name + " killed by signal " +
                               std::to_string(WTERMSIG(status)) + context);
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
  }

  std::string name;     ///< "worker '<bin>'"
  std::string context;  ///< " on <what>", or empty
  unsigned timeout_s;
  Clock::time_point deadline;
  pid_t pid = -1;  ///< -1 once reaped
  int fd = -1;
};

}  // namespace

int spawn_and_wait(const std::string& bin,
                   const std::vector<std::string>& args,
                   const std::string& what, unsigned timeout_s) {
  return Child(bin, args, what, timeout_s, /*piped=*/false).wait();
}

int spawn_piped(const std::string& bin, const std::vector<std::string>& args,
                const std::string& what, unsigned timeout_s,
                std::span<const std::uint8_t> input,
                std::vector<std::uint8_t>& output,
                const std::function<void()>& on_output) {
  Child child(bin, args, what, timeout_s, /*piped=*/true);
  std::size_t sent = 0;
  if (input.empty()) ::shutdown(child.fd, SHUT_WR);
  // Writing and reading share one poll loop, so a child that answers
  // before it has read everything cannot deadlock the exchange.
  for (;;) {
    const bool writing = sent < input.size();
    pollfd p{child.fd, static_cast<short>(POLLIN | (writing ? POLLOUT : 0)),
             0};
    // Under a deadline, wake every 100 ms to check it.
    const bool bounded = child.deadline != Clock::time_point::max();
    const int ready = ::poll(&p, 1, bounded ? 100 : -1);
    if (ready < 0 && errno != EINTR) child.fail("poll failed for", errno);
    if (Clock::now() >= child.deadline) child.time_out();
    if (ready <= 0) continue;
    if (writing && (p.revents & (POLLOUT | POLLERR | POLLHUP)) != 0) {
      // A child that stopped reading drops the rest of `input`: it is
      // judged by what it wrote and how it exited.
      const ssize_t n = ::send(child.fd, input.data() + sent,
                               input.size() - sent,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
      } else if (errno != EINTR && errno != EAGAIN) {
        sent = input.size();
      }
      if (sent == input.size()) ::shutdown(child.fd, SHUT_WR);
      continue;
    }
    if ((p.revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
    if (sockio::read_some(child.fd, output) == 0) break;
    on_output();
  }
  return child.wait();
}

}  // namespace proc

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
    worker::run_jobs(std::span(jobs).subspan(begin, end - begin), nullptr,
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

/// A parent's bytes from the process registry, else from `store` (may be
/// null); null when neither holds it. A registry hit reads no store entry:
/// a put-if-absent heals the entry when it is missing.
std::shared_ptr<const std::vector<std::uint8_t>> known_parent(
    std::uint64_t key, WarmStore* store) {
  auto bytes = warmstore::recall(key);
  if (store == nullptr) return bytes;
  if (bytes) {
    store->put(key, bytes);
    return bytes;
  }
  return store->lookup(key);
}

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
      it->second = known_parent(j.parent_key, options.warm_store);
      if (!it->second) scan.cold.push_back(j.parent_key);
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

std::vector<std::uint8_t> encode_jobs(const std::vector<JobSpec>& jobs) {
  ArchiveWriter ar;
  envelope::put_header(ar, kJobMagic, kProtocolVersion);
  ar.put<std::uint64_t>(jobs.size());
  for (const JobSpec& j : jobs) j.save(ar);
  envelope::seal(ar);
  return ar.take();
}

void write_job_file(const std::string& path,
                    const std::vector<JobSpec>& jobs) {
  // Protocol files skip the fsync: durable results are the campaign
  // layer's job. The atomic rename still hides partial files.
  fsio::write_file_atomic(path, encode_jobs(jobs), /*durable=*/false);
}

std::vector<JobSpec> read_job_file(const std::string& path) {
  return decode_jobs(fsio::read_file_bytes(path, "mflush job file"), path);
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

std::vector<std::uint8_t> frame_result(std::uint32_t id,
                                       const RunResult& result) {
  return envelope::frame(encode_results({{id, result}}));
}

std::vector<std::pair<std::uint32_t, RunResult>> take_results(
    std::vector<std::uint8_t>& buffer, const std::string& what) {
  std::vector<std::pair<std::uint32_t, RunResult>> out;
  std::size_t at = 0;
  for (;;) {
    const envelope::Unframed u =
        envelope::unframe(std::span(buffer).subspan(at), kMaxResultFrame);
    if (u.status == envelope::FrameStatus::kNeedMore) break;
    if (u.status == envelope::FrameStatus::kBad)
      throw std::runtime_error("result stream of " + what + ": " + u.error);
    auto entry = decode_results(u.payload, "frame of " + what);
    if (entry.size() != 1) {
      throw std::runtime_error("result stream of " + what + ": a frame holds " +
                               std::to_string(entry.size()) + " results");
    }
    out.push_back(std::move(entry.front()));
    at += u.consumed;
  }
  buffer.erase(buffer.begin(),
               buffer.begin() + static_cast<std::ptrdiff_t>(at));
  return out;
}

void run_jobs(std::span<const JobSpec> jobs, WarmStore* store,
              const ForkResultFn& on_result) {
  if (store != nullptr) {
    // Install every embedded parent before anything runs: batch-internal
    // order must not matter, and one upload has to serve every later
    // batch on this host.
    for (const JobSpec& job : jobs) {
      if (job.parent_key != 0 && job.snapshot)
        store->put(job.parent_key, job.snapshot);
    }
  }
  // Jobs run serially: the caller's thread or process is the unit of
  // parallelism, and serial execution keeps each result bit-identical to
  // run_job. Each fork group is one pass, so the parent is taken once per
  // group instead of once per fork.
  for (std::size_t begin = 0; begin < jobs.size();) {
    const std::size_t end = fork_group_end(jobs, begin);
    std::span<const JobSpec> group = jobs.subspan(begin, end - begin);
    const JobSpec& head = group.front();
    if (head.parent_key == 0) {
      on_result(begin, run_job(head));
      begin = end;
      continue;
    }
    // A by-reference group with a host store attaches its parent before
    // the pass; on a miss the group warms it here, and once the group's
    // first result is out (whichever fork's window ends first) the capture
    // goes into the store, so every later batch on this host finds it.
    std::vector<JobSpec> attached;
    bool store_missed = false;
    if (store != nullptr && !head.snapshot) {
      if (auto bytes = known_parent(head.parent_key, store)) {
        attached.assign(group.begin(), group.end());
        attached.front().snapshot = std::move(bytes);
        group = attached;
      } else {
        store_missed = true;
      }
    }
    run_fork_group(group, [&](std::size_t k, RunResult r) {
      on_result(begin + k, std::move(r));
      if (!store_missed) return;
      store->put(head.parent_key, warmstore::recall(head.parent_key));
      store_missed = false;
    });
    begin = end;
  }
}

int run_worker(const std::string& job_path, const std::string& result_path,
               const std::string& store_dir) {
  const bool stream = job_path == "-";
  try {
    const std::vector<JobSpec> jobs =
        stream ? decode_jobs(read_stdin(), "<stdin>") : read_job_file(job_path);
    std::optional<WarmStore> store;
    if (!store_dir.empty()) store.emplace(store_dir);
    std::vector<std::pair<std::uint32_t, RunResult>> results;
    run_jobs(jobs, store ? &*store : nullptr,
             [&](std::size_t k, RunResult r) {
               if (stream) {
                 // Flushed per frame: the coordinator takes it now.
                 const auto frame = frame_result(jobs[k].id, r);
                 if (std::fwrite(frame.data(), 1, frame.size(), stdout) !=
                         frame.size() ||
                     std::fflush(stdout) != 0)
                   throw std::runtime_error("cannot write to stdout");
               } else {
                 results.emplace_back(jobs[k].id, std::move(r));
               }
             });
    if (!stream) write_result_file(result_path, results);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mflushsim --worker: %s\n", e.what());
    return 1;
  }
}

}  // namespace worker
}  // namespace mflush
