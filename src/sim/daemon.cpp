#include "sim/daemon.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/archive.h"
#include "common/sockio.h"
#include "sim/campaign.h"
#include "sim/parallel.h"
#include "sim/warmstore.h"

namespace mflush::daemon {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------------ Conn

/// One client connection. Sends are serialized by a per-connection mutex
/// (several campaigns may stream to the same follower) and become no-ops
/// once the peer is gone — a dead client must never take its campaign
/// down with it.
struct Conn {
  int fd = -1;
  std::mutex write_mutex;
  std::atomic<bool> open{true};

  void send(const Message& msg) {
    const std::lock_guard lk(write_mutex);
    if (!open.load()) return;
    try {
      send_frame(fd, msg);
    } catch (const std::exception&) {
      open.store(false);
    }
  }
};

// ----------------------------------------------------------- CampaignRun

enum class CampaignState : std::uint8_t {
  kRunning = 0,
  kFinished = 1,
  kFailed = 2,
  kCancelled = 3,
};

[[nodiscard]] const char* state_name(CampaignState s) noexcept {
  switch (s) {
    case CampaignState::kRunning:
      return "running";
    case CampaignState::kFinished:
      return "finished";
    case CampaignState::kFailed:
      return "failed";
    case CampaignState::kCancelled:
      return "cancelled";
  }
  return "?";
}

/// One campaign's in-daemon life: runner thread, scheduler tenant, durable
/// results log (for late-attaching followers), subscriber list, terminal
/// state. `m` guards the mutable fields.
struct CampaignRun {
  std::string id;
  std::string dir;
  std::uint64_t announced_total = 0;

  std::mutex m;
  CampaignState state = CampaignState::kRunning;
  bool cancel_requested = false;
  /// Completion-order (job_id, one-entry result archive) pairs. Every
  /// entry was durable (cache + journal) before it was appended, so a
  /// replay to a late subscriber only ever shows crash-survivable work.
  std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> log;
  std::uint64_t total = 0;  ///< final result count, set at termination
  std::uint64_t cached = 0;
  std::vector<std::shared_ptr<Conn>> subscribers;
  bool done_broadcast = false;
  Message done_msg;

  /// The campaign's share of the pool; counts the jobs it executed this
  /// session.
  std::unique_ptr<RemoteBackend::Tenant> tenant;
  std::thread runner;
};

// ---------------------------------------------------------------- Server

[[nodiscard]] std::uint64_t spec_total_jobs(const ExperimentSpec& spec) {
  return spec.mode == RunMode::Sampled
             ? spec.num_points() * spec.sampled.forks
             : spec.num_points();
}

class Server {
 public:
  explicit Server(ServeOptions options) : opts_(std::move(options)) {}

  int serve() {
    if (opts_.data_dir.empty())
      throw std::runtime_error("mflushd needs --data DIR");
    fs::create_directories(campaigns_dir());
    fs::create_directories(shared_cache_dir());
    warm_.emplace(warm_dir(), WarmStore::Options{});
    const std::size_t slots = start_pool();
    resume_existing();
    listen_fd_ = sockio::listen_on(opts_.address);
    event("serving " + opts_.address + " (" + std::to_string(slots) +
          " slot(s), data " + opts_.data_dir + ")");
    if (opts_.on_ready) opts_.on_ready();

    for (;;) {
      const int fd = sockio::accept_on(listen_fd_);
      if (fd < 0) break;  // listen socket closed: shutdown in progress
      auto conn = std::make_shared<Conn>();
      conn->fd = fd;
      const std::lock_guard lk(conns_m_);
      if (stopping_.load()) {
        sockio::close_fd(fd);
        break;
      }
      conns_.push_back(conn);
      conn_threads_.emplace_back([this, conn] { serve_conn(conn); });
    }

    // Drain: every conn thread exits (their fds are shut down by
    // begin_shutdown), campaigns are already joined there too. The threads
    // are swapped out and joined *without* holding conns_m_: the shutdown
    // conn's own thread still has to take that mutex inside
    // begin_shutdown, and joining it while holding the lock deadlocks.
    std::vector<std::thread> draining;
    {
      const std::lock_guard lk(conns_m_);
      draining.swap(conn_threads_);
    }
    for (std::thread& t : draining)
      if (t.joinable()) t.join();
    join_campaigns();
    sockio::close_fd(listen_fd_);
    const std::string sock_path = sockio::unix_path_of(opts_.address);
    if (!sock_path.empty()) ::unlink(sock_path.c_str());
    event("shutdown complete");
    return 0;
  }

 private:
  [[nodiscard]] std::string campaigns_dir() const {
    return (fs::path(opts_.data_dir) / "campaigns").string();
  }
  [[nodiscard]] std::string shared_cache_dir() const {
    return (fs::path(opts_.data_dir) / "cache").string();
  }
  [[nodiscard]] std::string warm_dir() const {
    return (fs::path(opts_.data_dir) / "warm").string();
  }

  void event(const std::string& line) {
    if (opts_.on_event) opts_.on_event(line);
  }

  /// One RemoteBackend over the whole pool, one fork group or one job per
  /// batch (batch_jobs = 1 keeps groups whole), so tenants interleave at
  /// that granularity. Without a host pool it is one `local` host whose
  /// slots run the worker in-thread.
  /// Returns the slot count.
  std::size_t start_pool() {
    RemoteBackend::Options ro;
    ro.hosts = opts_.hosts;
    if (ro.hosts.empty()) {
      remote::HostSpec local;
      local.name = "local";
      local.slots =
          opts_.slots != 0 ? opts_.slots : ParallelRunner::default_jobs();
      ro.hosts = {local};
      ro.transport_factory = [](const remote::HostSpec&) {
        return std::make_unique<remote::InProcessTransport>();
      };
    }
    ro.worker_binary = opts_.worker_binary;
    ro.batch_jobs = 1;
    ro.warm_store = &*warm_;
    ro.on_event = opts_.on_event;
    std::size_t slots = 0;
    for (const remote::HostSpec& h : ro.hosts) slots += h.slots;
    remote_.emplace(std::move(ro));
    return slots;
  }

  /// Replay every campaign directory at startup: resumed runs execute
  /// their delta (finished ones stream entirely from the cache), so a
  /// SIGKILLed daemon restarts into exactly the work it had not finished.
  void resume_existing() {
    std::error_code ec;
    std::vector<std::string> ids;
    for (const auto& entry : fs::directory_iterator(campaigns_dir(), ec)) {
      if (!entry.is_directory()) continue;
      if (!fs::exists(entry.path() / "journal.wal")) continue;
      ids.push_back(entry.path().filename().string());
    }
    std::sort(ids.begin(), ids.end());
    const std::lock_guard lk(campaigns_m_);
    for (const std::string& id : ids) {
      event("resuming campaign " + id + " from its journal");
      start_campaign(id, /*spec=*/nullptr);
    }
  }

  /// Start (or restart after failure) the runner for campaign `id`.
  /// `spec` is required only when the directory does not exist yet.
  /// Caller holds campaigns_m_.
  std::shared_ptr<CampaignRun> start_campaign(const std::string& id,
                                              const ExperimentSpec* spec) {
    auto c = std::make_shared<CampaignRun>();
    c->id = id;
    c->tenant = std::make_unique<RemoteBackend::Tenant>(*remote_);
    c->dir = (fs::path(campaigns_dir()) / id).string();
    const bool fresh = !fs::exists(fs::path(c->dir) / "journal.wal");
    if (fresh && spec == nullptr)
      throw std::runtime_error("campaign " + id + " has no journal to resume");
    ExperimentSpec spec_copy;
    if (spec != nullptr) spec_copy = *spec;
    c->runner = std::thread([this, c, fresh, spec_copy] {
      run_campaign(c, fresh, spec_copy);
    });
    campaigns_[id] = c;
    return c;
  }

  /// SUBMIT entry: attach to a live or finished campaign, restart a
  /// failed/cancelled one (its journal resumes the delta), or start anew.
  std::shared_ptr<CampaignRun> start_or_attach(const ExperimentSpec& spec) {
    const std::string id = campaign_id(spec);
    const std::lock_guard lk(campaigns_m_);
    const auto it = campaigns_.find(id);
    if (it != campaigns_.end()) {
      bool reusable = false;
      {
        const std::lock_guard clk(it->second->m);
        reusable = it->second->state == CampaignState::kRunning ||
                   it->second->state == CampaignState::kFinished;
      }
      if (reusable) return it->second;
      // Terminal failure/cancellation: the runner has exited — reap it
      // and start a fresh run over the same directory (journal resume).
      if (it->second->runner.joinable()) it->second->runner.join();
    }
    return start_campaign(id, &spec);
  }

  void run_campaign(std::shared_ptr<CampaignRun> c, bool fresh,
                    ExperimentSpec spec) {
    try {
      CampaignStore::Options copts;
      copts.cache_dir = shared_cache_dir();
      copts.on_event = [this, id = c->id](const std::string& line) {
        event("campaign " + id + ": " + line);
      };
      CampaignStore store =
          fresh ? CampaignStore::create(c->dir, spec, std::move(copts))
                : CampaignStore::resume(c->dir, std::move(copts));
      {
        const std::lock_guard lk(c->m);
        c->announced_total = spec_total_jobs(store.spec());
      }

      // A per-campaign view of the shared warm directory: entries are
      // shared on disk, but hits/misses/stores count per tenant.
      WarmStore::Options wopts;
      wopts.on_event = [this, id = c->id](const std::string& line) {
        event("campaign " + id + " warm: " + line);
      };
      WarmStore warm(warm_dir(), std::move(wopts));

      RunOptions ropts;
      ropts.warm_store = &warm;
      ropts.on_event = [this, id = c->id](const std::string& line) {
        event("campaign " + id + " warm: " + line);
      };

      ResultSink sink([this, c](const JobSpec& job, const RunResult& result) {
        deliver(*c, job, result);
      });
      const std::vector<RunResult> results =
          run_experiment_durable(store, *c->tenant, sink, ropts);
      finish(c, results.size());
    } catch (const std::exception& e) {
      fail(c, e.what());
    }
  }

  /// on_result hook of every campaign sink: the result is durable (cache
  /// entry + journal record) by the time the sink fires, so log + stream
  /// it. Log append and subscriber sends happen under one lock so a
  /// late-attaching follower can never see a result twice.
  void deliver(CampaignRun& c, const JobSpec& job, const RunResult& result) {
    Message m;
    m.type = MsgType::kResult;
    m.campaign = c.id;
    m.job_id = job.id;
    m.blob = worker::encode_results({{job.id, result}});
    const std::lock_guard lk(c.m);
    c.log.emplace_back(job.id, m.blob);
    for (const std::shared_ptr<Conn>& s : c.subscribers) s->send(m);
  }

  void terminate(const std::shared_ptr<CampaignRun>& c, CampaignState state,
                 const std::string& text, std::uint64_t total) {
    Message done;
    done.type = MsgType::kDone;
    done.campaign = c->id;
    done.text = text;
    std::vector<std::shared_ptr<Conn>> subs;
    {
      const std::lock_guard lk(c->m);
      c->state = state;
      const std::uint64_t executed = c->tenant->executed();
      c->total = total != 0 ? total : c->log.size();
      c->cached = c->total >= executed ? c->total - executed : 0;
      done.total = c->total;
      done.done = c->log.size();
      done.executed = executed;
      done.cached = c->cached;
      c->done_msg = done;
      c->done_broadcast = true;
      subs = std::move(c->subscribers);
      c->subscribers.clear();
    }
    for (const std::shared_ptr<Conn>& s : subs) s->send(done);
    event("campaign " + c->id + " " + text + " (" +
          std::to_string(done.executed) + " executed, " +
          std::to_string(done.cached) + " cached, " +
          std::to_string(done.total) + " result(s))");
  }

  void finish(const std::shared_ptr<CampaignRun>& c, std::size_t total) {
    terminate(c, CampaignState::kFinished, "finished", total);
  }

  void fail(const std::shared_ptr<CampaignRun>& c, const std::string& why) {
    bool cancelled = false;
    {
      const std::lock_guard lk(c->m);
      cancelled = c->cancel_requested;
    }
    if (cancelled) {
      terminate(c, CampaignState::kCancelled, "cancelled", 0);
    } else {
      terminate(c, CampaignState::kFailed, "failed: " + why, 0);
    }
  }

  /// Replay-then-subscribe, atomically w.r.t. deliver/terminate.
  void attach(const std::shared_ptr<CampaignRun>& c,
              const std::shared_ptr<Conn>& conn) {
    const std::lock_guard lk(c->m);
    for (const auto& [job_id, blob] : c->log) {
      Message m;
      m.type = MsgType::kResult;
      m.campaign = c->id;
      m.job_id = job_id;
      m.blob = blob;
      conn->send(m);
    }
    if (c->done_broadcast) {
      conn->send(c->done_msg);
    } else {
      c->subscribers.push_back(conn);
    }
  }

  void serve_conn(const std::shared_ptr<Conn>& conn) {
    std::vector<std::uint8_t> buffer;
    try {
      for (;;) {
        auto msg = read_frame(conn->fd, buffer);
        if (!msg) break;
        if (!handle(conn, *msg)) break;
      }
    } catch (const std::exception& e) {
      // Protocol damage (bad frame, mid-frame EOF): answer if the socket
      // still works, then drop the connection — framing is lost.
      Message err;
      err.type = MsgType::kError;
      err.text = e.what();
      conn->send(err);
    }
    conn->open.store(false);
    sockio::shutdown_fd(conn->fd);
  }

  /// Returns false when the connection should close (shutdown).
  bool handle(const std::shared_ptr<Conn>& conn, const Message& msg) {
    switch (msg.type) {
      case MsgType::kSubmit:
        handle_submit(conn, msg);
        return true;
      case MsgType::kStatus:
        handle_status(conn, msg);
        return true;
      case MsgType::kCancel:
        handle_cancel(conn, msg);
        return true;
      case MsgType::kList:
        handle_list(conn);
        return true;
      case MsgType::kShutdown:
        begin_shutdown(conn);
        return false;
      default: {
        Message err;
        err.type = MsgType::kError;
        err.text = std::string("unexpected ") + type_name(msg.type) +
                   " frame (client-bound type)";
        conn->send(err);
        return true;
      }
    }
  }

  void handle_submit(const std::shared_ptr<Conn>& conn, const Message& msg) {
    ExperimentSpec spec;
    try {
      spec = ExperimentSpec::from_bytes(msg.blob);
      spec.validate();
    } catch (const std::exception& e) {
      Message err;
      err.type = MsgType::kError;
      err.text = std::string("SUBMIT spec rejected: ") + e.what();
      conn->send(err);
      return;
    }
    std::shared_ptr<CampaignRun> c;
    try {
      c = start_or_attach(spec);
    } catch (const std::exception& e) {
      Message err;
      err.type = MsgType::kError;
      err.text = std::string("SUBMIT failed: ") + e.what();
      conn->send(err);
      return;
    }
    event("accepted campaign " + c->id + " ('" + spec.name + "', " +
          std::to_string(spec_total_jobs(spec)) + " job(s))");
    Message acc;
    acc.type = MsgType::kSubmitted;
    acc.campaign = c->id;
    acc.total = spec_total_jobs(spec);
    conn->send(acc);
    if (msg.follow != 0) attach(c, conn);
  }

  void handle_status(const std::shared_ptr<Conn>& conn, const Message& msg) {
    std::shared_ptr<CampaignRun> c;
    {
      const std::lock_guard lk(campaigns_m_);
      const auto it = campaigns_.find(msg.campaign);
      if (it != campaigns_.end()) c = it->second;
    }
    if (!c) {
      Message err;
      err.type = MsgType::kError;
      err.text = "no campaign " + msg.campaign;
      conn->send(err);
      return;
    }
    Message reply;
    reply.type = MsgType::kStatusReply;
    reply.campaign = c->id;
    const std::lock_guard lk(c->m);
    reply.text = c->state == CampaignState::kRunning
                     ? state_name(c->state)
                     : c->done_msg.text;
    reply.done = c->log.size();
    reply.total = c->total != 0 ? c->total : c->announced_total;
    reply.executed = c->tenant->executed();
    reply.cached = c->cached;
    conn->send(reply);
  }

  void handle_cancel(const std::shared_ptr<Conn>& conn, const Message& msg) {
    std::shared_ptr<CampaignRun> c;
    {
      const std::lock_guard lk(campaigns_m_);
      const auto it = campaigns_.find(msg.campaign);
      if (it != campaigns_.end()) c = it->second;
    }
    Message reply;
    if (!c) {
      reply.type = MsgType::kError;
      reply.text = "no campaign " + msg.campaign;
    } else {
      bool running = false;
      {
        const std::lock_guard lk(c->m);
        running = c->state == CampaignState::kRunning;
        if (running) c->cancel_requested = true;
      }
      if (running) {
        c->tenant->cancel();
        reply.type = MsgType::kOk;
        reply.text = "campaign " + c->id + " cancelling";
        event("cancel requested for campaign " + c->id);
      } else {
        reply.type = MsgType::kError;
        reply.text = "campaign " + c->id + " is not running";
      }
    }
    conn->send(reply);
  }

  void handle_list(const std::shared_ptr<Conn>& conn) {
    Message reply;
    reply.type = MsgType::kOk;
    const std::lock_guard lk(campaigns_m_);
    for (const auto& [id, c] : campaigns_) {
      const std::lock_guard clk(c->m);
      const std::uint64_t total =
          c->total != 0 ? c->total : c->announced_total;
      reply.text += id + " " + state_name(c->state) + " " +
                    std::to_string(c->log.size()) + "/" +
                    std::to_string(total) + "\n";
    }
    if (reply.text.empty()) reply.text = "(no campaigns)\n";
    conn->send(reply);
  }

  /// SHUTDOWN: drain every campaign to a terminal state, acknowledge,
  /// then unblock the accept loop and every reader.
  void begin_shutdown(const std::shared_ptr<Conn>& conn) {
    event("shutdown requested — draining campaigns");
    join_campaigns();
    Message ok;
    ok.type = MsgType::kOk;
    ok.text = "mflushd draining";
    conn->send(ok);
    stopping_.store(true);
    sockio::shutdown_fd(listen_fd_);
    const std::lock_guard lk(conns_m_);
    for (const std::shared_ptr<Conn>& c : conns_) {
      if (c != conn && c->open.load()) sockio::shutdown_fd(c->fd);
    }
  }

  void join_campaigns() {
    std::vector<std::shared_ptr<CampaignRun>> all;
    {
      const std::lock_guard lk(campaigns_m_);
      for (const auto& [id, c] : campaigns_) all.push_back(c);
    }
    for (const std::shared_ptr<CampaignRun>& c : all) {
      if (c->runner.joinable()) c->runner.join();
    }
  }

  ServeOptions opts_;
  std::optional<WarmStore> warm_;
  std::optional<RemoteBackend> remote_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};

  std::mutex campaigns_m_;
  std::map<std::string, std::shared_ptr<CampaignRun>> campaigns_;

  std::mutex conns_m_;
  std::vector<std::shared_ptr<Conn>> conns_;
  std::vector<std::thread> conn_threads_;
};

}  // namespace

int serve(ServeOptions options) {
  Server server(std::move(options));
  return server.serve();
}

std::string campaign_id(const ExperimentSpec& spec) {
  const std::vector<std::uint8_t> bytes = spec.to_bytes();
  return campaign::key_hex(fnv1a(bytes));
}

SubmitOutcome submit(const std::string& address, const ExperimentSpec& spec,
                     bool follow,
                     const std::function<void(const std::string&)>& on_event) {
  const int fd = sockio::connect_to(address);
  struct FdGuard {
    int fd;
    ~FdGuard() { sockio::close_fd(fd); }
  } guard{fd};

  Message sub;
  sub.type = MsgType::kSubmit;
  sub.follow = follow ? 1 : 0;
  sub.blob = spec.to_bytes();
  send_frame(fd, sub);

  SubmitOutcome out;
  ResultSink sink;  // reorders streamed results into job-id order
  std::vector<std::uint8_t> buffer;
  for (;;) {
    auto msg = read_frame(fd, buffer);
    if (!msg)
      throw std::runtime_error(
          "mflushd closed the connection before the campaign settled");
    switch (msg->type) {
      case MsgType::kSubmitted:
        out.campaign = msg->campaign;
        out.total = msg->total;
        if (on_event) {
          on_event("campaign " + msg->campaign + " accepted (" +
                   std::to_string(msg->total) + " job(s))");
        }
        if (!follow) {
          out.state = "accepted";
          return out;
        }
        break;
      case MsgType::kResult: {
        auto results =
            worker::decode_results(msg->blob, "mflushd RESULT frame");
        if (results.size() != 1 || results[0].first != msg->job_id) {
          throw std::runtime_error(
              "mflushd RESULT frame does not match its job id");
        }
        JobSpec slot;
        slot.id = msg->job_id;
        sink.push(slot, std::move(results[0].second));
        break;
      }
      case MsgType::kDone:
        out.state = msg->text;
        out.total = msg->total;
        out.executed = msg->executed;
        out.cached = msg->cached;
        if (out.state == "finished") out.results = sink.collect();
        return out;
      case MsgType::kError:
        throw std::runtime_error("mflushd: " + msg->text);
      default:
        throw std::runtime_error(std::string("unexpected ") +
                                 type_name(msg->type) +
                                 " frame while following a campaign");
    }
  }
}

Message request(const std::string& address, const Message& msg) {
  const int fd = sockio::connect_to(address);
  struct FdGuard {
    int fd;
    ~FdGuard() { sockio::close_fd(fd); }
  } guard{fd};
  send_frame(fd, msg);
  std::vector<std::uint8_t> buffer;
  auto reply = read_frame(fd, buffer);
  if (!reply)
    throw std::runtime_error("mflushd closed the connection without a reply");
  return *reply;
}

}  // namespace mflush::daemon
