#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/remote.h"
#include "sim/wire.h"

/// mflushd — a long-lived campaign coordinator serving the MFLUSNET
/// protocol (sim/wire.h) on a Unix-domain or TCP socket.
///
/// Every SUBMIT becomes a durable CampaignStore campaign under
/// `data_dir/campaigns/<id>/` where `<id>` is the spec's content hash:
/// resubmitting a spec *attaches* to its campaign (live or finished)
/// instead of re-running it. All campaigns share one content-addressed
/// result cache (`data_dir/cache`) and one warm-snapshot store
/// (`data_dir/warm`), so overlapping submissions from different tenants
/// dedup against each other at job granularity.
///
/// Execution: every live campaign is a tenant of one RemoteBackend over
/// the whole pool (sim/remote.h), which dispatches one job at a time to
/// the tenant with the fewest jobs dispatched so far — so a late 4-job
/// sweep is not starved behind an early 400-job one — and retries,
/// bisects and retires hosts per campaign round. Without a host pool the
/// backend has one `local` host whose slots run each batch in-thread and
/// in memory (remote::InProcessTransport). Results stream back to following clients
/// as RESULT frames the moment they are durable.
///
/// Restart contract: every campaign directory holding a spec.mfc is
/// resumed at startup against the shared result cache, so SIGKILLing the
/// daemon loses no completed work — exactly the per-run invariant
/// CampaignStore already proves, extended to the serving loop. A stale
/// Unix socket left by the corpse is unlinked on bind.
namespace mflush::daemon {

struct ServeOptions {
  /// Listen address (sockio grammar: unix:PATH or HOST:PORT).
  std::string address;
  /// Durable state root: campaigns/, cache/, warm/ live here.
  std::string data_dir;
  /// Host pool; empty serves through one `local` host of `slots` slots
  /// that runs each job in-thread. Either way a job that fails is retried
  /// on another slot (3 attempts) before its campaign fails.
  std::vector<remote::HostSpec> hosts;
  /// Worker binary for the pool; empty means default_worker_binary().
  /// Unused without a pool.
  std::string worker_binary;
  /// In-process slot count when `hosts` is empty; 0 means
  /// ParallelRunner::default_jobs().
  unsigned slots = 0;
  /// Serialized narration ("mflushd: ..." lines).
  std::function<void(const std::string&)> on_event;
  /// Fires once the socket is listening (tests connect on it).
  std::function<void()> on_ready;
};

/// Run the daemon until a SHUTDOWN request drains it. Returns a process
/// exit code. Throws on startup failure (bad address, unwritable data
/// dir).
int serve(ServeOptions options);

/// The campaign id a spec maps to: 16-hex FNV-1a of its canonical binary
/// archive. Client- and daemon-side agree by construction.
[[nodiscard]] std::string campaign_id(const ExperimentSpec& spec);

/// What a followed submission came back with.
struct SubmitOutcome {
  std::string campaign;
  /// "accepted" (no follow) or the campaign's terminal state: "finished",
  /// "cancelled", or "failed: <why>".
  std::string state;
  std::uint64_t total = 0;
  std::uint64_t executed = 0;  ///< jobs the daemon ran for this campaign
  std::uint64_t cached = 0;    ///< jobs served from the shared cache
  /// Job-id-ordered results, populated only for state == "finished" —
  /// bit-identical to a serial run of the spec.
  std::vector<RunResult> results;
};

/// Submit `spec` to the daemon at `address`. With `follow`, stream
/// RESULT frames until DONE and return the full outcome; without, return
/// as soon as the campaign is accepted. Throws on connection or protocol
/// errors.
SubmitOutcome submit(const std::string& address, const ExperimentSpec& spec,
                     bool follow,
                     const std::function<void(const std::string&)>& on_event =
                         {});

/// One-shot request/response for STATUS, CANCEL, LIST, SHUTDOWN.
[[nodiscard]] Message request(const std::string& address, const Message& msg);

}  // namespace mflush::daemon
