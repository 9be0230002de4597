#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/backend.h"

/// Fault-tolerant distributed sweep backend.
///
/// RemoteBackend schedules *batches* of JobSpecs over a pool of hosts
/// through a pluggable Transport. A batch travels as one job file
/// (MFLUSJOB), runs as one `mflushsim --worker` invocation on its host, and
/// comes back as one result file (MFLUSRES) — amortizing process-spawn and
/// serialization overhead that dominates one-subprocess-per-job fan-out.
/// The scheduler work-steals: every host slot pulls the next batch from a
/// shared queue, a failed or unreachable host's batch is re-queued onto
/// healthy hosts (bounded attempts per batch), and a host that keeps
/// failing is retired while at least one other host survives. Results
/// stream into the ResultSink as each batch lands. A batch holds whole
/// fork groups (fork_group_end), so a cold parent warms where its one
/// batch runs and its bytes never travel to the coordinator; in a run
/// without failures each parent warms once per host store. Only a failed
/// batch's poison-job split may cut a group, and each half then takes the
/// parent from its host's store or warms it there.
///
/// One scheduler serves many callers. The slot threads, the prepared
/// transports and the per-store warm bookkeeping live as long as the
/// backend; each run() call is a *tenant round* with its own batches,
/// retries, host failure counts and retirements, and concurrent calls are
/// allowed. An idle slot takes the first queued batch of the tenant with
/// the fewest jobs dispatched so far (ties: the older tenant), so a small
/// sweep is not starved behind a large one. A plain run() is a tenant of
/// its own; a Tenant handle groups several rounds under one share and can
/// cancel them — mflushd gives each campaign one.
///
/// The backend contract — full-SimMetrics bit-identity with SerialBackend —
/// holds because every job still executes through run_job and doubles
/// cross the wire as raw bytes.
namespace mflush {
namespace remote {

/// One worker host in the pool.
///
/// Text grammar (hosts files, MFLUSH_HOSTS): entries separated by
/// newlines, commas or semicolons; `#` comments to end of line. Each entry
/// is `name [key=value ...]` with keys:
///   slots=N   concurrent batches on this host (default 1)
///   fail=N    test/CI fault injection — LocalTransport fails this host's
///             first N batches, exercising the re-queue path (default 0)
///   dir=PATH  ssh scratch directory on the host
///             (default /tmp/mflush-remote)
/// The name `local` (or `localhost`) selects the loopback LocalTransport;
/// anything else is an ssh destination (`host`, `user@host`).
struct HostSpec {
  std::string name;
  unsigned slots = 1;
  unsigned fail_batches = 0;
  std::string remote_dir = "/tmp/mflush-remote";
  std::size_t index = 0;  ///< dense pool index, assigned by RemoteBackend
  /// Host-side WarmStore directory (a path on the host itself), resolved
  /// by RemoteBackend when the sweep references warmed parents — not part
  /// of the hosts grammar. Every `local` host gets the same directory.
  /// Empty = no warm store on this host; forks embed attached snapshot
  /// bytes inline and by-reference ones warm their parent per process.
  std::string warm_store_dir;

  [[nodiscard]] bool is_local() const noexcept {
    return name == "local" || name == "localhost";
  }
  /// "name#index" — stable even when the same name appears twice.
  [[nodiscard]] std::string label() const {
    return name + "#" + std::to_string(index);
  }
};

/// Parse one host entry; throws std::runtime_error naming the first
/// problem (empty name, slots=0, malformed value, unknown key — a typo
/// must never silently shrink the pool).
[[nodiscard]] HostSpec parse_host(std::string_view entry);

/// Parse a whole hosts description (see the HostSpec grammar above).
[[nodiscard]] std::vector<HostSpec> parse_hosts(std::string_view text);

/// parse_hosts over a file's contents; throws when unreadable.
[[nodiscard]] std::vector<HostSpec> read_hosts_file(const std::string& path);

/// Hosts from $MFLUSH_HOSTS; empty vector when unset or blank. Throws
/// when the variable is set but names no hosts, or contains a '#'
/// (comments are line-scoped, so in a one-line env var one would
/// silently comment out every later entry — use a hosts file instead).
[[nodiscard]] std::vector<HostSpec> hosts_from_env();

/// Contiguous [begin, end) job-index chunks for a sweep of `jobs`.
/// `batch_jobs` == 0 picks an automatic size aiming at ~4 batches per host
/// slot, so work stealing has slack to rebalance around a slow or failed
/// host (floor 1 job per batch). Cuts fall only at fork group boundaries
/// (fork_group_end): a batch ends at the last boundary at or before
/// `begin + size`, and a group larger than the size is a batch of its own.
/// Every FullRun job is a group of one.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> batch_ranges(
    const std::vector<JobSpec>& jobs, std::size_t batch_jobs,
    std::size_t slots);

/// What a Transport throws: the batch is intact and may be re-queued.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Moves one batch through one host. Implementations must be safe to call
/// concurrently from that host's slots; `what` describes the batch for
/// error messages ("batch 2 (jobs 4-7)"). Any failure — spawn, network,
/// nonzero exit, death by signal — throws TransportError so the scheduler
/// can re-queue the batch.
class Transport {
 public:
  virtual ~Transport() = default;
  [[nodiscard]] virtual std::string name() const = 0;

  /// One-time per-host setup (ship the worker binary, make the scratch
  /// dir). Called before the host's first batch; a throw counts as a host
  /// failure and is retried on the host's next batch.
  virtual void prepare(const HostSpec& host) = 0;

  /// Run the job file at `job_path` so that the result file appears at
  /// `result_path` (both local paths).
  virtual void run_batch(const HostSpec& host, const std::string& job_path,
                         const std::string& result_path,
                         const std::string& what) = 0;

  /// Whether run_batch makes per-job partial results visible at
  /// `result_path + ".r<job_id>"` *while the batch runs* (one-entry
  /// MFLUSRES archives, written atomically as each measured job lands).
  /// The scheduler then streams each job into the ResultSink the moment
  /// its part validates instead of waiting for the whole batch file —
  /// which stays authoritative: parts are an optimization, never the only
  /// copy. Transports whose results only exist locally after the batch
  /// completes (ssh: the file is pulled at the end) report false.
  [[nodiscard]] virtual bool streams_partials() const { return false; }
};

/// Loopback transport: the batch runs as a `mflushsim --worker` subprocess
/// on this machine (used by tests and CI, and the default for `local`
/// hosts). Honours HostSpec::fail_batches by failing the host's first N
/// batches before spawning anything — the CI fault-injection hook.
class LocalTransport final : public Transport {
 public:
  explicit LocalTransport(std::string worker_binary)
      : bin_(std::move(worker_binary)) {}

  [[nodiscard]] std::string name() const override { return "local"; }
  void prepare(const HostSpec& host) override;
  void run_batch(const HostSpec& host, const std::string& job_path,
                 const std::string& result_path,
                 const std::string& what) override;

  /// The worker writes straight into the coordinator's scratch dir, so
  /// its per-job part files are observable live (--worker-parts).
  [[nodiscard]] bool streams_partials() const override { return true; }

 private:
  std::string bin_;
  std::atomic<unsigned> dispatched_{0};
};

/// In-thread transport: the batch runs through worker::run_worker on the
/// slot thread itself — the full job/result file protocol, host store
/// included, without a subprocess or a worker binary. mflushd serves
/// through it when no host pool is given.
class InProcessTransport final : public Transport {
 public:
  [[nodiscard]] std::string name() const override { return "inprocess"; }
  void prepare(const HostSpec&) override {}
  void run_batch(const HostSpec& host, const std::string& job_path,
                 const std::string& result_path,
                 const std::string& what) override;
};

/// ssh/scp transport: prepare() ships the worker binary once per host
/// (mkdir -p; scp; chmod +x), run_batch() copies the job file over, runs
/// the worker remotely, copies the result file back, and best-effort
/// removes the remote pair. BatchMode ssh: an unreachable or
/// password-prompting host fails fast and its batches re-queue elsewhere.
///
/// Every ssh/scp invocation runs under a wall-clock deadline on top of
/// ConnectTimeout: ConnectTimeout only covers the TCP handshake, so a link
/// that wedges *mid-transfer* (half-open connection, remote kernel hang)
/// would otherwise stall a host slot forever. At the deadline the tool is
/// killed and the failure re-queues the batch like any other host fault.
/// `timeout_s` == 0 resolves MFLUSH_SSH_TIMEOUT (default 600; malformed
/// values are a hard error, env.h policy).
class SshTransport final : public Transport {
 public:
  explicit SshTransport(std::string worker_binary, unsigned timeout_s = 0);

  [[nodiscard]] std::string name() const override { return "ssh"; }
  void prepare(const HostSpec& host) override;
  void run_batch(const HostSpec& host, const std::string& job_path,
                 const std::string& result_path,
                 const std::string& what) override;

 private:
  std::string bin_;
  unsigned timeout_s_;
};

/// One tenant's fair-share count and cancel flag (defined in remote.cpp).
struct TenantState;

}  // namespace remote

/// The distributed ExperimentBackend (see the file comment for semantics).
class RemoteBackend final : public ExperimentBackend {
 public:
  struct Options {
    /// The pool; empty means one `local` host with
    /// ParallelRunner::default_jobs() slots (loopback fan-out).
    std::vector<remote::HostSpec> hosts;
    /// Worker binary shipped/spawned; empty means default_worker_binary().
    std::string worker_binary;
    /// Local staging dir for job/result files; empty = system temp dir.
    std::string scratch_dir;
    /// Jobs per batch; 0 = auto (see remote::batch_ranges).
    std::size_t batch_jobs = 0;
    /// Total attempts per batch across all hosts (>= 1) before the sweep
    /// fails with the batch's last error.
    unsigned max_attempts = 3;
    /// Failures before a host is retired. The last surviving host is
    /// never retired — its batches just run out their attempts.
    unsigned host_max_failures = 2;
    /// Per-ssh/scp-command wall-clock deadline in seconds for
    /// SshTransport; 0 resolves MFLUSH_SSH_TIMEOUT (default 600). See the
    /// SshTransport comment — this is what turns a wedged link into an
    /// ordinary host failure.
    unsigned ssh_timeout = 0;
    /// Keep the local protocol files after the run (debugging).
    bool keep_files = false;
    /// Transport per host, made once on the first run(); null means
    /// LocalTransport for `local` hosts and SshTransport otherwise (the
    /// worker binary is only resolved then). mflushd picks
    /// InProcessTransport here; tests inject failing transports.
    std::function<std::unique_ptr<remote::Transport>(
        const remote::HostSpec&)>
        transport_factory;
    /// Serialized scheduler narration (batch failures, re-queues, host
    /// retirements, parent snapshot uploads, parents warmed on a host) —
    /// wire report::event_printer(std::cerr) for the CLI.
    std::function<void(const std::string&)> on_event;
    /// Coordinator-side warm store. All local hosts share it directly
    /// (their workers read and fill the same directory, so no bytes ever
    /// ride the job file); without it they share one session store that
    /// lives as long as this backend. Each ssh host keeps a store under its
    /// remote_dir, and an attached parent snapshot is uploaded to it at
    /// most once — later batches ship the 8-byte hash instead.
    WarmStore* warm_store = nullptr;
  };

  class Tenant;

  RemoteBackend();  ///< default Options
  explicit RemoteBackend(Options options);
  /// Stops the slot threads and removes the session store. Every run()
  /// must have returned.
  ~RemoteBackend() override;
  RemoteBackend(const RemoteBackend&) = delete;
  RemoteBackend& operator=(const RemoteBackend&) = delete;

  [[nodiscard]] std::string name() const override { return "remote"; }
  /// One tenant round of its own; blocks until every batch has succeeded
  /// or one ran out of attempts. The first call resolves the pool (worker
  /// binary, transports) and starts the slot threads.
  void run(const std::vector<JobSpec>& jobs, ResultSink& sink) override;

 private:
  struct Pool;

  void run_round(remote::TenantState& tenant, const std::vector<JobSpec>& jobs,
                 ResultSink& sink);
  /// The pool, resolved and started on first use.
  Pool& pool();
  /// The store every local host reads: the coordinator's, else the
  /// session store, made on first use and kept for this backend's life.
  WarmStore& local_warm_store();

  Options opts_;
  std::unique_ptr<WarmStore> session_store_;
  std::unique_ptr<Pool> pool_;
};

/// A tenant of a shared RemoteBackend: every run() through the handle is a
/// round of the same tenant, so its rounds share one fair-share count. It
/// must not outlive the backend.
class RemoteBackend::Tenant final : public ExperimentBackend {
 public:
  explicit Tenant(RemoteBackend& backend);
  ~Tenant() override;

  [[nodiscard]] std::string name() const override { return "remote"; }
  /// A round of this tenant. Throws "campaign cancelled" when cancel()
  /// dropped some of its batches, or came before it.
  void run(const std::vector<JobSpec>& jobs, ResultSink& sink) override;

  /// Drop the tenant's queued batches and refuse later rounds; in-flight
  /// batches finish and still deliver.
  void cancel();

  /// Jobs of this tenant's batches that succeeded.
  [[nodiscard]] std::uint64_t executed() const;

 private:
  RemoteBackend& backend_;
  std::unique_ptr<remote::TenantState> state_;
};

}  // namespace mflush
