#include "sim/remote.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/env.h"
#include "common/number.h"
#include "sim/campaign.h"
#include "sim/parallel.h"
#include "sim/warmstore.h"

namespace mflush {
namespace remote {
namespace {

[[noreturn]] void bad_host(const std::string& entry, const std::string& why) {
  throw std::runtime_error("bad host entry '" + entry + "': " + why);
}

unsigned parse_count(const std::string& entry, std::string_view key,
                     std::string_view value, bool allow_zero) {
  const auto v = parse_unsigned<unsigned>(value);
  if (!v) {
    bad_host(entry, std::string(key) + " expects an integer below 2^32, got '" +
                        std::string(value) + "'");
  }
  if (*v == 0 && !allow_zero) bad_host(entry, std::string(key) + " must be >= 1");
  return *v;
}

/// Quote for the remote shell ssh runs the command line through: single
/// quotes, with embedded ones rewritten as '\'' so a hostile or merely
/// odd dir= value can neither break the command nor inject one.
std::string shq(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'')
      out += "'\\''";
    else
      out.push_back(c);
  }
  out.push_back('\'');
  return out;
}

std::string remote_worker_bin(const HostSpec& host) {
  // Suffixed with the pool index: duplicate entries naming the same ssh
  // host each ship their own copy, so concurrent prepare() scps can never
  // overwrite a binary another entry is executing.
  return host.remote_dir + "/mflushsim." + std::to_string(host.index);
}

/// ssh flags: never prompt (a password prompt would hang a sweep), fail
/// fast on unreachable hosts so their batches re-queue promptly.
const std::vector<std::string> kSshOpts = {
    "-o", "BatchMode=yes", "-o", "ConnectTimeout=10"};

void run_tool_or_throw(const std::string& tool,
                       std::vector<std::string> args, const HostSpec& host,
                       const std::string& what, unsigned timeout_s) {
  int code = 0;
  try {
    code = proc::spawn_and_wait(tool, args, what, timeout_s);
  } catch (const std::exception& e) {
    throw TransportError(host.label() + ": " + e.what());
  }
  if (code != 0) {
    throw TransportError(host.label() + ": " + tool + " exited with code " +
                         std::to_string(code) + " while " + what +
                         (code == 255 ? " (ssh connection failure)" : ""));
  }
}

/// `dir`, or the system temp dir when `dir` is empty.
std::filesystem::path dir_or_temp(const std::string& dir) {
  return dir.empty() ? std::filesystem::temp_directory_path()
                     : std::filesystem::path(dir);
}

/// Simulated core-cycles of one fork group, at least 1 (see batch_ranges).
std::uint64_t group_cost(std::span<const JobSpec> group) {
  const JobSpec& head = group.front();
  const std::uint64_t cores = head.profiles.empty()
                                  ? head.workload.num_cores()
                                  : head.profiles.size() / 2;
  // A FullRun job is a pass of `measure` after its warm-up.
  Cycle pass = 0;
  for (const JobSpec& j : group)
    pass = std::max(pass, j.fork_advance + j.measure);
  const Cycle warm = head.snapshot ? 0 : head.warmup;
  return std::max<std::uint64_t>(1, cores * (warm + pass));
}

/// One batch's local protocol files in a scratch dir: `<stem>.mfj`,
/// `<stem>.mfr` and, when asked for, one `<stem>.mfr.r<id>` part per job.
/// The stem (pid, the first job id, a process-wide counter) is unique per
/// batch attempt, so no attempt ever reads another's files. Every file is
/// removed on destruction, so a dead worker, a corrupt result or a
/// throwing transport leaks none.
struct ScratchFiles {
  ScratchFiles(const std::string& dir, const std::vector<JobSpec>& jobs,
               bool with_parts) {
    static std::atomic<std::uint64_t> counter{0};
    const std::string stem =
        (dir_or_temp(dir) / ("mflush-" + std::to_string(::getpid()) +
                             "-job" + std::to_string(jobs.front().id) + "-" +
                             std::to_string(counter.fetch_add(1))))
            .string();
    job = stem + ".mfj";
    result = stem + ".mfr";
    if (with_parts) {
      for (const JobSpec& j : jobs)
        parts.push_back(result + ".r" + std::to_string(j.id));
    }
  }
  ~ScratchFiles() {
    std::error_code ec;
    for (const std::string* p : {&job, &result})
      std::filesystem::remove(*p, ec);
    for (const std::string& p : parts) std::filesystem::remove(p, ec);
  }
  ScratchFiles(const ScratchFiles&) = delete;
  ScratchFiles& operator=(const ScratchFiles&) = delete;

  std::string job;
  std::string result;
  std::vector<std::string> parts;  ///< by job index
};

/// Wakes a part-file watcher the moment its worker exits, so a batch end
/// never waits out the scan interval.
struct WorkerExit {
  std::mutex m;
  std::condition_variable cv;
  bool exited = false;  ///< guarded by m

  void signal() {
    {
      const std::lock_guard lk(m);
      exited = true;
    }
    cv.notify_all();
  }
  /// Sleep one scan interval or until the worker exits; true once it has.
  [[nodiscard]] bool wait_scan() {
    std::unique_lock lk(m);
    return cv.wait_for(lk, std::chrono::milliseconds(10),
                       [&] { return exited; });
  }
};

}  // namespace

HostSpec parse_host(std::string_view entry) {
  const std::string text(entry);
  std::istringstream in(text);
  HostSpec host;
  if (!(in >> host.name)) bad_host(text, "empty entry");
  std::string field;
  while (in >> field) {
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos)
      bad_host(text, "expected key=value, got '" + field + "'");
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "slots") {
      host.slots = parse_count(text, key, value, /*allow_zero=*/false);
    } else if (key == "fail") {
      host.fail_batches = parse_count(text, key, value, /*allow_zero=*/true);
    } else if (key == "dir") {
      if (value.empty()) bad_host(text, "dir expects a path");
      host.remote_dir = value;
    } else {
      bad_host(text, "unknown key '" + key + "' (slots, fail, dir)");
    }
  }
  return host;
}

std::vector<HostSpec> parse_hosts(std::string_view text) {
  std::vector<HostSpec> hosts;
  std::string entry;
  const auto flush_entry = [&] {
    const std::size_t hash = entry.find('#');
    if (hash != std::string::npos) entry.resize(hash);
    if (entry.find_first_not_of(" \t\r") != std::string::npos)
      hosts.push_back(parse_host(entry));
    entry.clear();
  };
  for (const char c : text) {
    if (c == '\n' || c == ',' || c == ';') {
      // A '#' comment swallows separators to end of line, not past it.
      if (c != '\n' && entry.find('#') != std::string::npos) {
        entry.push_back(c);
        continue;
      }
      flush_entry();
    } else {
      entry.push_back(c);
    }
  }
  flush_entry();
  for (std::size_t i = 0; i < hosts.size(); ++i) hosts[i].index = i;
  return hosts;
}

std::vector<HostSpec> read_hosts_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open hosts file: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  std::vector<HostSpec> hosts = parse_hosts(text.str());
  if (hosts.empty()) {
    // An explicitly named pool that parses empty (every entry commented
    // out) must not silently degrade to a loopback run on one machine.
    throw std::runtime_error("hosts file names no hosts: " + path);
  }
  return hosts;
}

std::vector<HostSpec> hosts_from_env() {
  const std::string env = env::str_or("MFLUSH_HOSTS");
  if (env.empty()) return {};
  if (std::string_view(env).find('#') != std::string_view::npos) {
    // Comments are line-scoped and an env var is one line: a mid-string
    // '#' would silently comment out every later comma-separated entry,
    // shrinking the pool. Refuse instead.
    throw std::runtime_error(
        "MFLUSH_HOSTS does not support '#' comments (use a hosts file)");
  }
  std::vector<HostSpec> hosts = parse_hosts(env);
  if (hosts.empty() &&
      std::string_view(env).find_first_not_of(" \t\r\n,;") !=
          std::string_view::npos) {
    throw std::runtime_error(
        "MFLUSH_HOSTS is set but names no hosts: '" + std::string(env) +
        "'");
  }
  return hosts;
}

std::vector<std::pair<std::size_t, std::size_t>> batch_ranges(
    const std::vector<JobSpec>& jobs, std::size_t batch_jobs,
    std::size_t slots) {
  const std::size_t n = jobs.size();
  const auto weight = [&](std::size_t begin, std::size_t end) {
    return batch_jobs != 0
               ? end - begin
               : group_cost(std::span(jobs).subspan(begin, end - begin));
  };
  std::uint64_t budget = batch_jobs;
  if (budget == 0) {
    std::uint64_t total = 0;
    for (std::size_t begin = 0; begin < n;) {
      const std::size_t end = fork_group_end(jobs, begin);
      total += weight(begin, end);
      begin = end;
    }
    budget = std::max<std::uint64_t>(
        1, total / std::max<std::uint64_t>(1, 4 * slots));
  }
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t first = 0;
  std::uint64_t used = 0;
  for (std::size_t begin = 0; begin < n;) {
    // The first group always fits; later ones while the batch stays in
    // budget.
    const std::size_t end = fork_group_end(jobs, begin);
    const std::uint64_t w = weight(begin, end);
    if (used != 0 && used + w > budget) {
      out.emplace_back(first, begin);
      first = begin;
      used = 0;
    }
    used += w;
    begin = end;
  }
  if (n != 0) out.emplace_back(first, n);
  return out;
}

// ------------------------------------------------------------- transports

LocalTransport::LocalTransport(std::string worker_binary,
                               std::string scratch_dir)
    : bin_(std::move(worker_binary)), scratch_(std::move(scratch_dir)) {}

void LocalTransport::run_batch(const HostSpec& host,
                               const std::vector<JobSpec>& jobs,
                               const BatchResultFn& on_result,
                               const std::string& what) {
  if (dispatched_.fetch_add(1) < host.fail_batches) {
    throw TransportError(host.label() + ": injected transport failure on " +
                         what);
  }
  const ScratchFiles files(scratch_, jobs, /*with_parts=*/true);
  worker::write_job_file(files.job, jobs);
  std::vector<std::string> args = {"--worker", files.job, "--worker-out",
                                   files.result, "--worker-parts"};
  if (!host.warm_store_dir.empty())
    args.insert(args.end(), {"--worker-store", host.warm_store_dir});

  // While the worker runs, hand over each per-job part that appears. A
  // part is one atomically-renamed one-entry MFLUSRES file, so existence
  // implies completeness; one that does not decode to its job is left to
  // the result file below. `streamed` holds the ids a part delivered.
  std::unordered_set<std::uint32_t> streamed;
  std::exception_ptr watch_error;
  int code = 0;
  {
    WorkerExit worker_exit;
    std::thread watcher([&] {
      try {
        do {
          for (std::size_t i = 0; i < jobs.size(); ++i) {
            std::error_code ec;
            if (streamed.contains(jobs[i].id) ||
                !std::filesystem::exists(files.parts[i], ec))
              continue;
            std::vector<std::pair<std::uint32_t, RunResult>> part;
            try {
              part = worker::read_result_file(files.parts[i]);
            } catch (const std::exception&) {
              continue;
            }
            if (part.size() != 1 || part.front().first != jobs[i].id)
              continue;
            streamed.insert(jobs[i].id);
            on_result(jobs[i].id, std::move(part.front().second));
          }
        } while (streamed.size() < jobs.size() && !worker_exit.wait_scan());
      } catch (...) {
        watch_error = std::current_exception();
      }
    });
    // Joined however the spawn ends; from then on this thread alone calls
    // on_result.
    struct WatcherJoin {
      WorkerExit& exit;
      std::thread& t;
      ~WatcherJoin() {
        exit.signal();
        t.join();
      }
    } watcher_join{worker_exit, watcher};
    code = proc::spawn_and_wait(bin_, args, what);
  }
  if (watch_error) std::rethrow_exception(watch_error);
  if (code != 0) {
    throw TransportError("worker exited with code " + std::to_string(code) +
                         " on " + what);
  }
  for (auto& [id, result] : worker::read_result_file(files.result))
    if (!streamed.contains(id)) on_result(id, std::move(result));
}

void InProcessTransport::run_batch(const HostSpec& host,
                                   const std::vector<JobSpec>& jobs,
                                   const BatchResultFn& on_result,
                                   const std::string&) {
  std::optional<WarmStore> store;
  if (!host.warm_store_dir.empty()) store.emplace(host.warm_store_dir);
  worker::run_jobs(jobs, store ? &*store : nullptr,
                   [&](std::size_t k, RunResult r) {
                     on_result(jobs[k].id, std::move(r));
                   });
}

SshTransport::SshTransport(std::string worker_binary, unsigned timeout_s,
                           std::string scratch_dir)
    : bin_(std::move(worker_binary)),
      timeout_s_(timeout_s != 0
                     ? timeout_s
                     : static_cast<unsigned>(env::u64_or(
                           "MFLUSH_SSH_TIMEOUT", 600, 1,
                           std::numeric_limits<unsigned>::max()))),
      scratch_(std::move(scratch_dir)) {}

void SshTransport::prepare(const HostSpec& host) {
  std::vector<std::string> mkdir = kSshOpts;
  mkdir.insert(mkdir.end(),
               {host.name, "mkdir -p " + shq(host.remote_dir)});
  run_tool_or_throw("ssh", mkdir, host, "preparing the scratch dir",
                    timeout_s_);

  std::vector<std::string> ship = {"-q"};
  ship.insert(ship.end(), kSshOpts.begin(), kSshOpts.end());
  ship.insert(ship.end(), {bin_, host.name + ":" + remote_worker_bin(host)});
  run_tool_or_throw("scp", ship, host, "shipping the worker binary",
                    timeout_s_);

  std::vector<std::string> chmod = kSshOpts;
  chmod.insert(chmod.end(),
               {host.name, "chmod +x " + shq(remote_worker_bin(host))});
  run_tool_or_throw("ssh", chmod, host, "marking the worker executable",
                    timeout_s_);
}

void SshTransport::run_batch(const HostSpec& host,
                             const std::vector<JobSpec>& jobs,
                             const BatchResultFn& on_result,
                             const std::string& what) {
  namespace fs = std::filesystem;
  const ScratchFiles files(scratch_, jobs, /*with_parts=*/false);
  worker::write_job_file(files.job, jobs);
  const std::string rjob =
      host.remote_dir + "/" + fs::path(files.job).filename().string();
  const std::string rres =
      host.remote_dir + "/" + fs::path(files.result).filename().string();

  std::vector<std::string> push = {"-q"};
  push.insert(push.end(), kSshOpts.begin(), kSshOpts.end());
  push.insert(push.end(), {files.job, host.name + ":" + rjob});
  run_tool_or_throw("scp", push, host, "pushing " + what, timeout_s_);

  std::string cmd = shq(remote_worker_bin(host)) + " --worker " + shq(rjob) +
                    " --worker-out " + shq(rres);
  if (!host.warm_store_dir.empty())
    cmd += " --worker-store " + shq(host.warm_store_dir);
  std::vector<std::string> exec = kSshOpts;
  exec.insert(exec.end(), {host.name, std::move(cmd)});
  run_tool_or_throw("ssh", exec, host, "running " + what, timeout_s_);

  std::vector<std::string> pull = {"-q"};
  pull.insert(pull.end(), kSshOpts.begin(), kSshOpts.end());
  pull.insert(pull.end(), {host.name + ":" + rres, files.result});
  run_tool_or_throw("scp", pull, host, "pulling results of " + what,
                    timeout_s_);

  // Best-effort remote cleanup; a failure here is not a batch failure.
  std::vector<std::string> clean = kSshOpts;
  clean.insert(clean.end(),
               {host.name, "rm -f " + shq(rjob) + " " + shq(rres)});
  try {
    (void)proc::spawn_and_wait("ssh", clean, what, timeout_s_);
  } catch (const std::exception&) {
  }
  for (auto& [id, result] : worker::read_result_file(files.result))
    on_result(id, std::move(result));
}

}  // namespace remote

// ---------------------------------------------------------- RemoteBackend

namespace remote {

struct TenantState {
  explicit TenantState(std::uint64_t arrival) : order(arrival) {}
  const std::uint64_t order;  ///< arrival order: the fair-share tie-break
  std::uint64_t dispatched = 0;  ///< jobs handed to slots (pool mutex)
  bool cancelled = false;        ///< pool mutex
  std::atomic<std::uint64_t> executed{0};
};

}  // namespace remote

namespace {

using remote::HostSpec;
using remote::TenantState;
using remote::Transport;

/// A [begin, end) slice of the round's job vector: no JobSpec copies wait
/// in the queue, which matters when thousands of sampled-mode jobs each
/// embed a warmed snapshot.
struct Batch {
  std::size_t number = 0;  ///< stable index for event messages
  std::size_t begin = 0;
  std::size_t end = 0;
  unsigned attempts = 0;

  [[nodiscard]] std::string describe(
      const std::vector<JobSpec>& all_jobs) const {
    if (end - begin == 1) {
      return "batch " + std::to_string(number) + " (job " +
             std::to_string(all_jobs[begin].id) + ")";
    }
    return "batch " + std::to_string(number) + " (jobs " +
           std::to_string(all_jobs[begin].id) + "-" +
           std::to_string(all_jobs[end - 1].id) + ")";
  }
};

/// Warm bookkeeping for one host-side store directory (every local host
/// shares one). Lives as long as the backend, so what one round shipped
/// or warmed is known to every later round. Guarded by the pool mutex.
struct StoreState {
  /// The directory the host's workers open (--worker-store). The local
  /// store's is set by the first round with parents.
  std::string dir;
  /// The store itself when it is on this machine (the coordinator's or the
  /// session store): attached parents are put straight into it instead of
  /// uploading, and presence can be checked on disk. Null for ssh hosts.
  WarmStore* local = nullptr;
  /// Parents known durably present — only marked after a batch that
  /// carried (or warmed) them *succeeded*, because the worker installs
  /// embedded parents before running anything. Marking at staging time
  /// would race: a second by-hash batch could reach the host before the
  /// first batch's worker installed the bytes.
  std::unordered_set<std::uint64_t> present;
};

struct HostState {
  HostSpec spec;
  std::unique_ptr<Transport> transport;
  StoreState* store = nullptr;
  std::mutex prepare_mutex;
  bool prepared = false;

  void ensure_prepared() {
    const std::lock_guard lk(prepare_mutex);
    if (prepared) return;
    transport->prepare(spec);
    prepared = true;
  }
};

/// A parent snapshot shipped inline to one host — recorded by
/// run_batch_once, reported by the slot loop once the batch succeeds.
struct UploadRecord {
  std::uint64_t key = 0;
  std::size_t bytes = 0;
};

/// Job ids already streamed into the sink this round. Per-job streaming
/// means a failed batch may have delivered some of its results before
/// dying — and its retry (or split halves) will produce them again. Results are deterministic, but ResultSink::push throws on a
/// duplicate slot, so every push is gated by claim(): exactly one copy of
/// each job's result enters the sink no matter how many attempts touched
/// it.
struct Delivered {
  std::mutex m;
  std::unordered_set<std::uint32_t> ids;

  [[nodiscard]] bool claim(std::uint32_t id) {
    const std::lock_guard lk(m);
    return ids.insert(id).second;
  }
};

/// One run() call: its batch queue plus completion/abort bookkeeping,
/// guarded by the pool mutex. Host failure counts and retirements are the
/// round's own, so a host retired here still serves every other round.
struct Round {
  TenantState* tenant = nullptr;
  const std::vector<JobSpec>* jobs = nullptr;
  ResultSink* sink = nullptr;
  bool has_parents = false;
  std::deque<Batch> queue;
  std::size_t done = 0;
  std::size_t total = 0;
  std::size_t next_batch_number = 0;  ///< for batches minted by splitting
  std::size_t in_flight = 0;
  std::size_t live_hosts = 0;
  std::vector<unsigned> failures;  ///< per host, by pool index
  std::vector<bool> retired;       ///< per host, by pool index
  std::size_t uploads = 0;         ///< parent snapshots shipped to hosts
  std::size_t upload_bytes = 0;    ///< their total snapshot byte size
  bool aborted = false;
  std::exception_ptr first_error;
  Delivered delivered;

  [[nodiscard]] bool finished() const { return aborted || done == total; }

  /// The host's store, when this round references parents at all.
  [[nodiscard]] StoreState* store_of(const HostState& host) const {
    return has_parents ? host.store : nullptr;
  }

  /// The by-reference parents of `b` that store `st` lacks: `b` warms
  /// them there. A parent already on disk in a local store is marked
  /// present instead.
  [[nodiscard]] std::vector<std::uint64_t> parents_to_warm(
      const Batch& b, StoreState* st) const {
    std::vector<std::uint64_t> warms;
    if (st == nullptr) return warms;
    for (std::size_t i = b.begin; i < b.end; ++i) {
      const JobSpec& j = (*jobs)[i];
      if (j.parent_key == 0 || j.snapshot || st->present.contains(j.parent_key))
        continue;
      if (st->local != nullptr && st->local->contains(j.parent_key)) {
        st->present.insert(j.parent_key);
      } else if (std::find(warms.begin(), warms.end(), j.parent_key) ==
                 warms.end()) {
        warms.push_back(j.parent_key);
      }
    }
    return warms;
  }
};

/// One attempt of one batch: strip or upload its parents for the host's
/// store, move it through the transport, and stream each result into the
/// sink as it arrives. Throws on any failure; results already pushed stay
/// (they are deterministic, and the retry's copies are claim()-gated).
/// `st` is the host's store when the round references parents; `pool_m`
/// guards its sets.
void run_batch_once(std::mutex& pool_m, HostState& host, StoreState* st,
                    const Batch& batch, const std::vector<JobSpec>& all_jobs,
                    std::vector<UploadRecord>& uploads, Delivered& delivered,
                    ResultSink& sink) {
  host.ensure_prepared();
  const auto first =
      all_jobs.begin() + static_cast<std::ptrdiff_t>(batch.begin);
  const auto last =
      all_jobs.begin() + static_cast<std::ptrdiff_t>(batch.end);

  // The batch's own copy of its slice (the snapshot payloads inside are
  // shared_ptr-shared, not duplicated). With a host-side warm store this
  // copy is also where fork snapshots are stripped: a local store takes
  // attached parents directly, and an ssh host already holding a parent
  // (or receiving it once earlier in this same batch) gets its content
  // hash alone.
  std::vector<JobSpec> slice(first, last);
  HostSpec spec = host.spec;
  if (st != nullptr) spec.warm_store_dir = st->dir;
  if (st != nullptr && st->local != nullptr) {
    for (JobSpec& j : slice) {
      if (j.parent_key == 0 || !j.snapshot) continue;
      // put-if-absent is ~free when the entry exists.
      st->local->put(j.parent_key, j.snapshot);
      j.snapshot = nullptr;
    }
  } else if (st != nullptr) {
    const std::lock_guard lk(pool_m);
    std::unordered_set<std::uint64_t> in_batch;
    for (JobSpec& j : slice) {
      if (j.parent_key == 0 || !j.snapshot) continue;
      if (st->present.contains(j.parent_key) ||
          !in_batch.insert(j.parent_key).second) {
        j.snapshot = nullptr;
      } else {
        uploads.push_back({j.parent_key, j.snapshot->size()});
      }
    }
  }

  // Each result must answer a job of this batch that this attempt has not
  // answered yet; every push is claim()-gated across attempts.
  const std::string what = batch.describe(all_jobs);
  std::unordered_map<std::uint32_t, const JobSpec*> unanswered;
  for (auto it = first; it != last; ++it) unanswered.emplace(it->id, &*it);
  host.transport->run_batch(
      spec, slice,
      [&](std::uint32_t id, RunResult result) {
        const auto it = unanswered.find(id);
        if (it == unanswered.end()) {
          throw std::runtime_error("worker result for unexpected or "
                                   "duplicate job " +
                                   std::to_string(id) + " in " + what);
        }
        const JobSpec& job = *it->second;
        unanswered.erase(it);
        if (delivered.claim(job.id)) sink.push(job, std::move(result));
      },
      what);
  const std::size_t expected = batch.end - batch.begin;
  if (!unanswered.empty()) {
    throw std::runtime_error(
        "worker answered " + std::to_string(expected - unanswered.size()) +
        " of " + std::to_string(expected) + " jobs in " + what);
  }
}

}  // namespace

/// The scheduler every round shares: hosts with their transports and
/// stores, the slot threads, and the live rounds. Work stealing is the
/// round queues themselves — every slot pulls the next queued batch, so a
/// retired host's re-queued work drains onto whichever hosts stay
/// healthy.
struct RemoteBackend::Pool {
  explicit Pool(const Options& options) : opts(options) {}
  ~Pool() {
    {
      const std::lock_guard lk(m);
      stopping = true;
    }
    cv.notify_all();
    for (std::thread& t : slots) t.join();
  }
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  const Options& opts;
  std::once_flag started;
  std::atomic<std::uint64_t> next_tenant{0};
  std::vector<std::unique_ptr<HostState>> hosts;
  std::size_t total_slots = 0;
  bool has_local = false;
  StoreState local_store;               ///< shared by every local host
  std::vector<StoreState> host_stores;  ///< ssh hosts, by pool index

  std::mutex m;
  std::condition_variable cv;
  std::vector<Round*> rounds;  ///< live rounds, arrival order
  bool stopping = false;
  std::vector<std::thread> slots;  ///< one per host slot, using all above

  void event(const std::string& line) const {
    if (opts.on_event) opts.on_event(line);
  }

  /// Resolve the hosts and their transports, then start one thread per
  /// host slot. A throw leaves the pool empty, so a later run() retries.
  void start() {
    std::vector<HostSpec> specs = opts.hosts;
    if (specs.empty()) {
      HostSpec local;
      local.name = "local";
      local.slots = ParallelRunner::default_jobs();
      specs.push_back(local);
    }
    std::string bin;
    if (!opts.transport_factory) {
      bin = opts.worker_binary.empty() ? default_worker_binary()
                                       : opts.worker_binary;
      if (bin.empty()) {
        throw std::runtime_error(
            "RemoteBackend: cannot locate the mflushsim worker binary (set "
            "MFLUSH_WORKER_BIN or Options::worker_binary)");
      }
    }
    std::vector<std::unique_ptr<HostState>> built;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      auto h = std::make_unique<HostState>();
      h->spec = specs[i];
      h->spec.index = i;
      if (opts.transport_factory) {
        h->transport = opts.transport_factory(h->spec);
      } else if (h->spec.is_local()) {
        h->transport =
            std::make_unique<remote::LocalTransport>(bin, opts.scratch_dir);
      } else {
        h->transport =
            std::make_unique<remote::SshTransport>(bin, 0, opts.scratch_dir);
      }
      built.push_back(std::move(h));
    }
    // Warm stores: all local hosts share one; each ssh host has its own
    // under remote_dir. A round uses them only when it references parents,
    // so each parent warms (or uploads) at most once per store.
    hosts = std::move(built);
    host_stores.resize(hosts.size());
    for (auto& h : hosts) {
      const std::size_t i = h->spec.index;
      if (h->spec.is_local()) {
        h->store = &local_store;
        has_local = true;
      } else {
        h->store = &host_stores[i];
        h->store->dir = h->spec.remote_dir + "/warmstore." + std::to_string(i);
      }
      total_slots += h->spec.slots;
      for (unsigned s = 0; s < h->spec.slots; ++s)
        slots.emplace_back([this, host = h.get()] { slot_loop(*host); });
    }
  }

  /// Fair share: the round whose next batch `host` takes — of the tenant
  /// with the fewest jobs dispatched (ties: the older tenant, then its
  /// older round), skipping finished or empty rounds and rounds that
  /// retired `host`. Null when there is none.
  [[nodiscard]] Round* pick(const HostState& host) const {
    const auto share = [](const Round* r) {
      return std::pair(r->tenant->dispatched, r->tenant->order);
    };
    Round* round = nullptr;
    for (Round* r : rounds) {
      if (r->finished() || r->queue.empty() || r->retired[host.spec.index])
        continue;
      if (round == nullptr || share(r) < share(round)) round = r;
    }
    return round;
  }

  void slot_loop(HostState& host) {
    std::unique_lock lk(m);
    for (;;) {
      Round* round = nullptr;
      cv.wait(lk, [&] { return stopping || (round = pick(host)) != nullptr; });
      if (stopping) return;
      Batch batch = std::move(round->queue.front());
      round->queue.pop_front();
      round->tenant->dispatched += batch.end - batch.begin;
      ++round->in_flight;
      StoreState* const st = round->store_of(host);
      const std::vector<std::uint64_t> warms =
          round->parents_to_warm(batch, st);
      ++batch.attempts;
      lk.unlock();

      std::vector<UploadRecord> uploads;
      std::exception_ptr error;
      std::string error_text;
      try {
        run_batch_once(m, host, st, batch, *round->jobs, uploads,
                       round->delivered, *round->sink);
      } catch (const std::exception& e) {
        error = std::current_exception();
        error_text = e.what();
      }

      lk.lock();
      if (error) {
        fail(*round, host, std::move(batch), error, error_text);
      } else {
        land(*round, host, st, batch, warms, uploads);
      }
      --round->in_flight;
      cv.notify_all();
    }
  }

  void land(Round& round, const HostState& host, StoreState* st,
            const Batch& batch, const std::vector<std::uint64_t>& warms,
            const std::vector<UploadRecord>& uploads) {
    for (const UploadRecord& u : uploads) {
      ++round.uploads;
      round.upload_bytes += u.bytes;
      event(host.spec.label() + ": uploaded parent " +
            campaign::key_hex(u.key) + " (" + std::to_string(u.bytes) +
            " bytes)");
    }
    for (const std::uint64_t key : warms)
      event(host.spec.label() + ": warmed parent " + campaign::key_hex(key));
    // Every parent this batch referenced is now durably in the host's
    // store — the worker installs embedded copies before running and
    // stores the parents it warms once their first fork's result is out —
    // so later batches ship hashes only.
    if (st != nullptr) {
      for (std::size_t i = batch.begin; i < batch.end; ++i) {
        const std::uint64_t key = (*round.jobs)[i].parent_key;
        if (key != 0) st->present.insert(key);
      }
    }
    round.tenant->executed += batch.end - batch.begin;
    ++round.done;
  }

  void fail(Round& round, const HostState& host, Batch batch,
            const std::exception_ptr& error, const std::string& error_text) {
    const std::vector<JobSpec>& all_jobs = *round.jobs;
    const std::size_t idx = host.spec.index;
    ++round.failures[idx];
    event(host.spec.label() + " failed " + batch.describe(all_jobs) +
          " (attempt " + std::to_string(batch.attempts) + "/" +
          std::to_string(opts.max_attempts) + "): " + error_text);
    if (batch.attempts >= opts.max_attempts) {
      if (!round.first_error) round.first_error = error;
      round.aborted = true;
      return;
    }
    if (batch.end - batch.begin > 1) {
      // Poison-job containment: a batch failure says *something* in the
      // batch (or its host) is bad, not that every job is. Re-queueing the
      // batch whole would let one crashing job burn the attempt budget of
      // all its batch-mates; splitting halves the blast radius each retry
      // until the poison job sits alone in a batch and fails on its own
      // attempts. The halves are fresh batches with fresh budgets, so a
      // lineage stays bounded: at most 2N-1 batches of max_attempts each.
      // The cut may fall inside a fork group: each half takes the parent
      // from its host's store or warms it there.
      const std::size_t mid = batch.begin + (batch.end - batch.begin) / 2;
      const Batch left{round.next_batch_number++, batch.begin, mid};
      const Batch right{round.next_batch_number++, mid, batch.end};
      event(batch.describe(all_jobs) + " split into " +
            left.describe(all_jobs) + " and " + right.describe(all_jobs) +
            " to isolate a possible poison job");
      ++round.total;  // one batch became two
      round.queue.push_back(left);
      round.queue.push_back(right);
    } else {
      round.queue.push_back(std::move(batch));
    }
    // Retire the host from this round after repeated failures so its share
    // steals onto healthy hosts — but never the last one standing, whose
    // batches should run out their attempts instead.
    if (!round.retired[idx] && round.failures[idx] >= opts.host_max_failures &&
        round.live_hosts > 1) {
      round.retired[idx] = true;
      --round.live_hosts;
      event(host.spec.label() + " retired after " +
            std::to_string(round.failures[idx]) +
            " failures; re-queued work steals onto the remaining " +
            std::to_string(round.live_hosts) + " host(s)");
    }
  }
};

RemoteBackend::RemoteBackend() : RemoteBackend(Options()) {}

RemoteBackend::RemoteBackend(Options options)
    : opts_(std::move(options)), pool_(std::make_unique<Pool>(opts_)) {}

RemoteBackend::~RemoteBackend() {
  pool_.reset();
  if (!session_store_) return;
  std::error_code ec;
  std::filesystem::remove_all(session_store_->dir(), ec);
}

RemoteBackend::Pool& RemoteBackend::pool() {
  std::call_once(pool_->started, [this] { pool_->start(); });
  return *pool_;
}

WarmStore& RemoteBackend::local_warm_store() {
  if (opts_.warm_store != nullptr) return *opts_.warm_store;
  if (!session_store_) {
    static std::atomic<std::uint64_t> sessions{0};
    session_store_ = std::make_unique<WarmStore>(
        (remote::dir_or_temp(opts_.scratch_dir) /
         ("mflush-warm-" + std::to_string(::getpid()) + "-" +
          std::to_string(sessions.fetch_add(1))))
            .string());
  }
  return *session_store_;
}

void RemoteBackend::run(const std::vector<JobSpec>& jobs, ResultSink& sink) {
  remote::TenantState tenant(pool_->next_tenant.fetch_add(1));
  run_round(tenant, jobs, sink);
}

void RemoteBackend::run_round(remote::TenantState& tenant,
                              const std::vector<JobSpec>& jobs,
                              ResultSink& sink) {
  if (jobs.empty()) return;
  if (opts_.max_attempts == 0)
    throw std::runtime_error("RemoteBackend: max_attempts must be >= 1");
  Pool& p = pool();

  Round round;
  round.tenant = &tenant;
  round.jobs = &jobs;
  round.sink = &sink;
  round.has_parents =
      std::any_of(jobs.begin(), jobs.end(),
                  [](const JobSpec& j) { return j.parent_key != 0; });
  const auto ranges = remote::batch_ranges(jobs, opts_.batch_jobs,
                                           p.total_slots);
  round.total = ranges.size();
  round.next_batch_number = ranges.size();
  round.live_hosts = p.hosts.size();
  round.failures.assign(p.hosts.size(), 0);
  round.retired.assign(p.hosts.size(), false);
  for (std::size_t b = 0; b < ranges.size(); ++b)
    round.queue.push_back({b, ranges[b].first, ranges[b].second});

  std::unique_lock lk(p.m);
  if (tenant.cancelled) throw std::runtime_error("campaign cancelled");
  if (round.has_parents && p.has_local && p.local_store.local == nullptr) {
    p.local_store.local = &local_warm_store();
    p.local_store.dir = p.local_store.local->dir();
  }
  p.rounds.push_back(&round);
  p.cv.notify_all();
  p.cv.wait(lk, [&] { return round.finished() && round.in_flight == 0; });
  p.rounds.erase(std::find(p.rounds.begin(), p.rounds.end(), &round));
  lk.unlock();

  if (round.uploads > 0) {
    p.event("warm store: " + std::to_string(round.uploads) +
            " parent upload(s), " + std::to_string(round.upload_bytes) +
            " bytes shipped to the pool");
  }
  if (round.first_error) std::rethrow_exception(round.first_error);
  if (round.done != round.total) {
    throw std::runtime_error(
        "RemoteBackend: sweep ended with unfinished batches");
  }
}

RemoteBackend::Tenant::Tenant(RemoteBackend& backend)
    : backend_(backend),
      state_(std::make_unique<remote::TenantState>(
          backend.pool_->next_tenant.fetch_add(1))) {}

RemoteBackend::Tenant::~Tenant() = default;

void RemoteBackend::Tenant::run(const std::vector<JobSpec>& jobs,
                                ResultSink& sink) {
  backend_.run_round(*state_, jobs, sink);
}

void RemoteBackend::Tenant::cancel() {
  Pool& p = *backend_.pool_;
  const std::lock_guard lk(p.m);
  state_->cancelled = true;
  for (Round* r : p.rounds) {
    if (r->tenant != state_.get() || r->queue.empty()) continue;
    r->queue.clear();
    if (!r->first_error) {
      r->first_error =
          std::make_exception_ptr(std::runtime_error("campaign cancelled"));
    }
    r->aborted = true;
  }
  p.cv.notify_all();
}

std::uint64_t RemoteBackend::Tenant::executed() const {
  return state_->executed.load();
}

}  // namespace mflush
