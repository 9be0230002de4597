#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/backend.h"
#include "sim/blobstore.h"

/// Durable campaigns: crash-survivable, resumable experiment runs.
///
/// A campaign directory makes any experiment run survivable over any
/// ExperimentBackend:
///
///   DIR/spec.mfc      canonical ExperimentSpec archive (binary form)
///   DIR/journal.wal   append-only, checksummed, fsync-per-record journal
///                     of job state transitions
///   DIR/cache/        content-addressed result store (a BlobStore), one
///                     file per completed job keyed by job_key() hex
///                     (relocatable via Options::cache_dir — mflushd
///                     shares one cache across every tenant's campaign)
///
/// The journal is a classic write-ahead log at file granularity: every
/// record is an envelope::frame (length prefix + FNV-1a checksum), appended
/// with a single write() and fsync'd before the in-memory transition is
/// acted on. Replay stops at the first bad record (torn tail, truncated
/// length, checksum mismatch), so a SIGKILL at *any* byte offset recovers
/// to the exact frontier of fully-durable transitions; resume truncates the
/// torn tail and appends from there. Completed results are published to the
/// cache via write-temp + fsync + atomic-rename *before* their done record
/// is journaled, so a done record always points at a durable result — and a
/// cache entry whose done record was lost to a tear is still found by key
/// on resume (the cache, not the journal, is the source of truth for
/// done-ness; the journal adds dispatch/failure state and narration).
///
/// Job state machine, per content key:
///   pending -> dispatched -> done(result-hash) | failed(attempts)
/// Failed and dispatched-at-crash jobs are simply pending again on resume.
///
/// Bit-identity contract: a resumed campaign's collected results — full
/// SimMetrics, every field — equal an uninterrupted SerialBackend run of
/// the same spec, because cached results are raw-byte round trips of
/// deterministic run_job output (CampaignTest.CrashResumeMatchesSerial).
namespace mflush {
namespace campaign {

/// Version of the on-disk campaign formats: the journal record layout, the
/// cache entry layout, AND the job-key canonicalization. Same rules as
/// snapshot::kFormatVersion: bump on ANY change (a field added to
/// JobSpec::save_content included), no migrations — old journals are
/// rejected loudly and stale cache keys simply never match again.
///
/// v2: JobSpec content gained the warm-job flag + parent_key, and fork
/// jobs are canonicalized by their parent's content hash instead of the
/// embedded snapshot bytes (the key no longer changes when a by-reference
/// fork is resolved to inline bytes).
/// v4: STALL results count their response actions (policy_stall_events
/// was always 0), so a v3 cache entry holds a stale result for unchanged
/// job content.
/// v5: the policy_* counters cover the measured interval only (they used
/// to include the warm-up), so a v4 cache entry holds a stale result.
/// v6: JobSpec content lost the warm-job flag.
inline constexpr std::uint32_t kFormatVersion = 6;

/// Stable content hash of a job's canonical serialization
/// (JobSpec::save_content: config/workload/profiles, policy, seed, warmup,
/// measure, fork_advance, snapshot identity — embedded bytes, or the
/// parent content hash for by-reference forks — everything except the
/// result-slot id), domain-separated with a magic + kFormatVersion prefix
/// so key semantics can never silently drift across format bumps.
[[nodiscard]] std::uint64_t job_key(const JobSpec& job);

/// Fixed-width lowercase hex of a key — cache file stems and narration.
[[nodiscard]] std::string key_hex(std::uint64_t key);

enum class JobState : std::uint8_t {
  kDispatched = 1,
  kDone = 2,
  kFailed = 3,
};

/// One journal record: a state transition for one job key. `aux` is the
/// attempt ordinal for dispatched/failed records and the cache entry's
/// trailing checksum for done records (the "result-hash" that lets resume
/// cross-check a cache file against the journal without re-reading it).
struct JournalRecord {
  JobState state = JobState::kDispatched;
  std::uint32_t job_id = 0;
  std::uint64_t key = 0;
  std::uint64_t aux = 0;
};

/// The consistent state replay recovers: last durable transition per key,
/// plus where the valid prefix of the journal ends.
struct Frontier {
  std::unordered_map<std::uint64_t, JournalRecord> jobs;
  std::size_t records = 0;      ///< records in the valid prefix
  std::size_t valid_bytes = 0;  ///< prefix length incl. header
  bool torn = false;            ///< stopped before end-of-file

  [[nodiscard]] std::size_t count(JobState s) const;
};

/// Replay a complete journal byte stream (header + records), stopping at
/// the first torn/truncated/corrupt record. Throws only when the *header*
/// is valid-length but wrong (bad magic or version skew — a foreign or
/// incompatible file, not a torn one); a short or absent header replays to
/// an empty, torn-at-zero frontier.
[[nodiscard]] Frontier replay(std::span<const std::uint8_t> bytes);

}  // namespace campaign

/// Owns one campaign directory: the canonical spec, the journal fd, and
/// the result cache. All record_* methods are durable (fsync'd) before
/// they return and safe to call from concurrent backend threads.
class CampaignStore {
 public:
  struct Options {
    /// Serialized narration ("campaign: ..." lines): resume frontier,
    /// torn-tail truncation, cache-hit counts.
    std::function<void(const std::string&)> on_event;
    /// Where content-addressed result entries live. Empty (the default)
    /// keeps the classic private DIR/cache. mflushd points every tenant's
    /// campaign at one shared directory so overlapping submissions dedup
    /// against each other: entries are keyed by job content and published
    /// by atomic rename, so concurrent same-key writers are benign (last
    /// rename wins with identical bytes) and a reader either sees a whole
    /// entry or a miss.
    std::string cache_dir;
  };

  /// Start a campaign in `dir` (created if missing). If `dir` already
  /// holds a journal for byte-identical `spec`, throws — pass --resume
  /// instead of silently restarting a resumable run. If it holds a
  /// *different* spec's journal, that generation is rotated aside
  /// (journal.N/spec.N.mfc) and a fresh journal starts — while the shared
  /// result cache makes the overlap between the specs free.
  [[nodiscard]] static CampaignStore create(const std::string& dir,
                                            const ExperimentSpec& spec,
                                            Options options = {});

  /// Continue the campaign in `dir`: load the archived spec, replay the
  /// journal to its frontier, truncate any torn tail, and narrate what
  /// survived. Throws when `dir` holds no campaign.
  [[nodiscard]] static CampaignStore resume(const std::string& dir,
                                            Options options = {});

  CampaignStore(CampaignStore&&) noexcept;
  CampaignStore& operator=(CampaignStore&&) = delete;
  CampaignStore(const CampaignStore&) = delete;
  CampaignStore& operator=(const CampaignStore&) = delete;
  ~CampaignStore();

  [[nodiscard]] const ExperimentSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  [[nodiscard]] const campaign::Frontier& frontier() const noexcept {
    return frontier_;
  }

  /// Journal one dispatched record per job (one write, one fsync).
  void record_dispatched(const std::vector<JobSpec>& jobs);

  /// Publish the result to the cache (put-if-absent: an entry already
  /// there holds the same bytes and is left alone), then journal the done
  /// record. After this returns, a crash at any point leaves the result
  /// recoverable.
  void record_done(const JobSpec& job, const RunResult& result);

  /// Journal a failed attempt; the job is pending again on resume.
  void record_failed(const JobSpec& job, unsigned attempts);

  /// The cached result for this job's content key, when a valid cache
  /// entry exists (a corrupt or mismatched entry is deleted, narrated, and
  /// read as a miss, so the job re-executes and republishes it). This is
  /// the resume/cross-spec-overlap fast path.
  [[nodiscard]] std::optional<RunResult> cached(const JobSpec& job) const;

  void event(const std::string& line) const;

 private:
  CampaignStore(std::string dir, ExperimentSpec spec, Options options);

  void open_journal(bool fresh, std::size_t keep_bytes);
  void append(const std::vector<campaign::JournalRecord>& records);

  std::string dir_;
  /// The result cache (owned through a pointer: CampaignStore moves).
  std::unique_ptr<BlobStore> cache_;
  ExperimentSpec spec_;
  Options opts_;
  campaign::Frontier frontier_;
  int journal_fd_ = -1;
  mutable std::mutex journal_mutex_;
  /// Crash-injection hook (CI/tests, like HostSpec fail=N): when
  /// MFLUSH_CAMPAIGN_KILL_AFTER=N is set, the process raises SIGKILL
  /// immediately after the Nth done record of this session becomes
  /// durable — a deterministic coordinator crash mid-campaign.
  std::uint64_t kill_after_ = 0;
  std::uint64_t done_this_session_ = 0;
};

/// run_experiment through `store`: jobs whose key is already cached stream
/// straight from the cache; the rest are journaled as dispatched, executed
/// on `backend` (Serial/InProcess/Worker/Remote — unchanged), and journaled
/// done as each result lands. Emits a final
/// "campaign: finished (<executed> executed, <cached> cached)" event.
/// Returns the full job-id-ordered result vector, bit-identical to an
/// uninterrupted run_experiment of the same spec. `options` carries the
/// warm store / warm events for sampled specs (see RunOptions); warmed
/// parents are never journaled — the warm store is their durability layer.
std::vector<RunResult> run_experiment_durable(CampaignStore& store,
                                              ExperimentBackend& backend,
                                              ResultSink& sink,
                                              const RunOptions& options = {});

}  // namespace mflush
