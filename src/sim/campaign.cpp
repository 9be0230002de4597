#include "sim/campaign.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <unordered_set>
#include <utility>

#include "common/env.h"
#include "common/envelope.h"
#include "common/fsio.h"

namespace mflush {
namespace campaign {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kJournalMagic = 0x4d464c555357414cull;  // "MFLUSWAL"
constexpr std::uint64_t kKeyMagic = 0x4d464c55534b4559ull;      // "MFLUSKEY"
/// state(u8) + job_id(u32) + key(u64) + aux(u64)
constexpr std::size_t kPayloadBytes = 21;
/// Sanity bound on a record's length prefix: anything larger than this is
/// a torn write or garbage, not a future record format.
constexpr std::size_t kMaxRecordBytes = 1u << 20;

[[nodiscard]] std::string journal_path(const std::string& dir) {
  return (fs::path(dir) / "journal.wal").string();
}
[[nodiscard]] std::string spec_path(const std::string& dir) {
  return (fs::path(dir) / "spec.mfc").string();
}
[[nodiscard]] std::string default_cache_dir(const std::string& dir) {
  return (fs::path(dir) / "cache").string();
}
}  // namespace

std::uint64_t job_key(const JobSpec& job) {
  ArchiveWriter ar;
  // Domain separation: a key is only comparable to keys minted under the
  // same canonicalization rules.
  ar.put(kKeyMagic);
  ar.put(kFormatVersion);
  job.save_content(ar);
  return fnv1a(ar.bytes());
}

std::string key_hex(std::uint64_t key) {
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, key >>= 4)
    out[static_cast<std::size_t>(i)] = "0123456789abcdef"[key & 0xf];
  return out;
}

std::size_t Frontier::count(JobState s) const {
  std::size_t n = 0;
  for (const auto& [key, rec] : jobs)
    if (rec.state == s) ++n;
  return n;
}

Frontier replay(std::span<const std::uint8_t> bytes) {
  Frontier f;
  if (bytes.size() < envelope::kHeaderBytes) {
    // A journal that died before its header was durable: nothing was ever
    // dispatched under it, so the consistent frontier is empty.
    f.torn = !bytes.empty();
    return f;
  }
  ArchiveReader header(bytes);
  envelope::expect_header(header, kJournalMagic, kFormatVersion,
                          "campaign journal");

  // Every stop from here on is a torn/truncated/corrupt tail: the frontier
  // is the last fully-checksummed record.
  std::size_t pos = envelope::kHeaderBytes;
  for (;;) {
    const envelope::Unframed rec_frame =
        envelope::unframe(bytes.subspan(pos), kMaxRecordBytes);
    if (rec_frame.status != envelope::FrameStatus::kFrame ||
        rec_frame.payload.size() != kPayloadBytes) {
      break;
    }
    ArchiveReader ar(rec_frame.payload);
    JournalRecord rec;
    const auto state = ar.get<std::uint8_t>();
    if (state < static_cast<std::uint8_t>(JobState::kDispatched) ||
        state > static_cast<std::uint8_t>(JobState::kFailed)) {
      break;
    }
    rec.state = static_cast<JobState>(state);
    rec.job_id = ar.get<std::uint32_t>();
    rec.key = ar.get<std::uint64_t>();
    rec.aux = ar.get<std::uint64_t>();
    f.jobs[rec.key] = rec;  // later transitions supersede earlier ones
    ++f.records;
    pos += rec_frame.consumed;
  }
  f.valid_bytes = pos;
  f.torn = f.valid_bytes != bytes.size();
  return f;
}

}  // namespace campaign

// ------------------------------------------------------------ CampaignStore

CampaignStore::CampaignStore(std::string dir, ExperimentSpec spec,
                             Options options)
    : dir_(std::move(dir)),
      cache_(std::make_unique<BlobStore>(
          options.cache_dir.empty() ? campaign::default_cache_dir(dir_)
                                    : options.cache_dir,
          "mfcr",
          [on_event = options.on_event](std::uint64_t key,
                                        const std::string& why) {
            // A corrupt entry is a miss, not an error: it is gone, and the
            // job re-executes and republishes it.
            if (on_event)
              on_event("cache entry " + campaign::key_hex(key) +
                       " unreadable (" + why + ") — re-executing");
          })),
      spec_(std::move(spec)),
      opts_(std::move(options)),
      kill_after_(
          env::u64_or("MFLUSH_CAMPAIGN_KILL_AFTER", 0, /*min=*/0)) {}

CampaignStore::CampaignStore(CampaignStore&& other) noexcept
    : dir_(std::move(other.dir_)),
      cache_(std::move(other.cache_)),
      spec_(std::move(other.spec_)),
      opts_(std::move(other.opts_)),
      frontier_(std::move(other.frontier_)),
      journal_fd_(std::exchange(other.journal_fd_, -1)),
      kill_after_(other.kill_after_),
      done_this_session_(other.done_this_session_) {}

CampaignStore::~CampaignStore() {
  if (journal_fd_ >= 0) ::close(journal_fd_);
}

void CampaignStore::event(const std::string& line) const {
  if (opts_.on_event) opts_.on_event(line);
}

CampaignStore CampaignStore::create(const std::string& dir,
                                    const ExperimentSpec& spec,
                                    Options options) {
  namespace fs = std::filesystem;
  spec.validate();

  CampaignStore store(dir, spec, std::move(options));
  fs::create_directories(dir);
  const std::string journal = campaign::journal_path(dir);
  const std::vector<std::uint8_t> spec_bytes = spec.to_bytes();
  if (fs::exists(journal)) {
    bool same_spec = false;
    try {
      same_spec = fsio::read_file_bytes(campaign::spec_path(dir),
                                        "campaign spec") == spec_bytes;
    } catch (const std::exception&) {
      // Unreadable archived spec: treat as a different generation.
    }
    if (same_spec) {
      throw std::runtime_error(
          "campaign directory " + dir +
          " already holds a journal for this exact spec — pass --resume to "
          "continue it (or point --campaign at a fresh directory)");
    }
    // A different spec supersedes the old journal but keeps the shared
    // result cache, so the overlap between the two specs is free.
    unsigned gen = 1;
    while (fs::exists(journal + "." + std::to_string(gen))) ++gen;
    const std::string suffix = "." + std::to_string(gen);
    fs::rename(journal, journal + suffix);
    std::error_code ec;
    fs::rename(campaign::spec_path(dir),
               (fs::path(dir) / ("spec" + suffix + ".mfc")).string(), ec);
    store.event("spec changed — previous journal rotated to journal.wal" +
                suffix + " (result cache retained)");
  }
  fsio::write_file_atomic(campaign::spec_path(dir), spec_bytes,
                          /*durable=*/true);
  store.open_journal(/*fresh=*/true, 0);
  return store;
}

CampaignStore CampaignStore::resume(const std::string& dir,
                                    Options options) {
  namespace fs = std::filesystem;
  if (!fs::exists(campaign::spec_path(dir)) ||
      !fs::exists(campaign::journal_path(dir))) {
    throw std::runtime_error(
        "no campaign to resume in " + dir +
        " (expected spec.mfc and journal.wal — start one with --campaign)");
  }
  const auto spec_bytes =
      fsio::read_file_bytes(campaign::spec_path(dir), "campaign spec");
  CampaignStore store(dir, ExperimentSpec::from_bytes(spec_bytes),
                      std::move(options));

  const auto journal_bytes =
      fsio::read_file_bytes(campaign::journal_path(dir), "campaign journal");
  store.frontier_ = campaign::replay(journal_bytes);
  if (store.frontier_.torn) {
    store.event("journal tail torn at byte " +
                std::to_string(store.frontier_.valid_bytes) + " of " +
                std::to_string(journal_bytes.size()) +
                " — truncating to the last consistent record");
  }
  // A headerless journal (crash before the header fsync) starts over; an
  // intact one is truncated to its consistent prefix so appends land
  // directly after the last good record.
  const bool fresh = store.frontier_.valid_bytes < envelope::kHeaderBytes;
  store.open_journal(fresh, store.frontier_.valid_bytes);

  using campaign::JobState;
  store.event(
      "resumed '" + store.spec_.name + "' — " +
      std::to_string(store.frontier_.count(JobState::kDone)) + " done, " +
      std::to_string(store.frontier_.count(JobState::kDispatched)) +
      " dispatched at crash, " +
      std::to_string(store.frontier_.count(JobState::kFailed)) +
      " failed across " + std::to_string(store.frontier_.records) +
      " journaled records");
  return store;
}

void CampaignStore::open_journal(bool fresh, std::size_t keep_bytes) {
  const std::string path = campaign::journal_path(dir_);
  const int flags = O_WRONLY | O_APPEND | O_CLOEXEC |
                    (fresh ? O_CREAT | O_TRUNC : 0);
  journal_fd_ = ::open(path.c_str(), flags, 0644);
  if (journal_fd_ < 0) {
    throw std::runtime_error("cannot open campaign journal: " + path +
                             " (" + std::strerror(errno) + ")");
  }
  if (fresh) {
    ArchiveWriter header;
    envelope::put_header(header, campaign::kJournalMagic,
                         campaign::kFormatVersion);
    const auto& bytes = header.bytes();
    if (::write(journal_fd_, bytes.data(), bytes.size()) !=
        static_cast<::ssize_t>(bytes.size())) {
      throw std::runtime_error("campaign journal header write failed: " +
                               path);
    }
  } else if (::ftruncate(journal_fd_,
                         static_cast<::off_t>(keep_bytes)) != 0) {
    throw std::runtime_error("campaign journal truncate failed: " + path +
                             " (" + std::strerror(errno) + ")");
  }
  if (::fsync(journal_fd_) != 0)
    throw std::runtime_error("campaign journal fsync failed: " + path);
  fsio::fsync_dir(dir_);
}

void CampaignStore::append(
    const std::vector<campaign::JournalRecord>& records) {
  if (records.empty()) return;
  ArchiveWriter buf;
  for (const campaign::JournalRecord& rec : records) {
    ArchiveWriter payload;
    payload.put(static_cast<std::uint8_t>(rec.state));
    payload.put(rec.job_id);
    payload.put(rec.key);
    payload.put(rec.aux);
    const std::vector<std::uint8_t> framed = envelope::frame(payload.bytes());
    buf.put_bytes(framed.data(), framed.size());
  }

  const std::lock_guard lk(journal_mutex_);
  const auto& bytes = buf.bytes();
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ::ssize_t n =
        ::write(journal_fd_, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("campaign journal append failed: " +
                               std::string(std::strerror(errno)));
    }
    off += static_cast<std::size_t>(n);
  }
  // The fsync is the durability point: a transition is only acted on
  // (result trusted, job skipped on resume) once its record survives any
  // crash from here on.
  if (::fsync(journal_fd_) != 0)
    throw std::runtime_error("campaign journal fsync failed");
  for (const campaign::JournalRecord& rec : records)
    frontier_.jobs[rec.key] = rec;
}

void CampaignStore::record_dispatched(const std::vector<JobSpec>& jobs) {
  std::vector<campaign::JournalRecord> records;
  records.reserve(jobs.size());
  for (const JobSpec& job : jobs) {
    campaign::JournalRecord rec;
    rec.state = campaign::JobState::kDispatched;
    rec.job_id = job.id;
    rec.key = campaign::job_key(job);
    rec.aux = 1;
    records.push_back(rec);
  }
  append(records);
}

void CampaignStore::record_done(const JobSpec& job, const RunResult& result) {
  const std::uint64_t key = campaign::job_key(job);
  // Cache entries store slot id 0: the id is campaign-relative, the entry
  // is content-addressed. Published (put-if-absent, durable) BEFORE the
  // done record, so a durable done record always points at a durable file.
  const std::vector<std::uint8_t> bytes =
      worker::encode_results({{0, result}});
  cache_->put(key, bytes);

  campaign::JournalRecord rec;
  rec.state = campaign::JobState::kDone;
  rec.job_id = job.id;
  rec.key = key;
  rec.aux = fnv1a(bytes);  // the result-hash: cross-checks the cache file
  append({rec});

  if (kill_after_ != 0 && ++done_this_session_ >= kill_after_) {
    // Crash-injection hook (MFLUSH_CAMPAIGN_KILL_AFTER): die the hard way,
    // mid-campaign, with no destructors — exactly what resume must absorb.
    ::raise(SIGKILL);
  }
}

void CampaignStore::record_failed(const JobSpec& job, unsigned attempts) {
  campaign::JournalRecord rec;
  rec.state = campaign::JobState::kFailed;
  rec.job_id = job.id;
  rec.key = campaign::job_key(job);
  rec.aux = attempts;
  append({rec});
}

std::optional<RunResult> CampaignStore::cached(const JobSpec& job) const {
  const std::uint64_t key = campaign::job_key(job);
  std::optional<RunResult> out;
  cache_->get(key, [&](std::vector<std::uint8_t> entry) {
    auto results = worker::decode_results(entry, cache_->path_of(key));
    if (results.size() != 1)
      throw std::runtime_error("expected exactly one result");
    out = std::move(results.front().second);
  });
  return out;
}

// ----------------------------------------------------- durable run adapter

namespace {

/// Wraps any backend: cached jobs stream straight from the store, the rest
/// are journaled around the inner run. run_experiment drives this exactly
/// like the raw backend, so the round structure (and the final result
/// vector) of a sampled run is unchanged.
class DurableBackend final : public ExperimentBackend {
 public:
  DurableBackend(CampaignStore& store, ExperimentBackend& inner)
      : store_(store), inner_(inner) {}

  [[nodiscard]] std::string name() const override {
    return "durable+" + inner_.name();
  }

  void run(const std::vector<JobSpec>& jobs, ResultSink& sink) override {
    std::vector<JobSpec> todo;
    std::size_t hits = 0;
    for (const JobSpec& job : jobs) {
      if (auto r = store_.cached(job)) {
        sink.push(job, std::move(*r));
        ++hits;
      } else {
        todo.push_back(job);
      }
    }
    cache_hits += hits;
    if (!jobs.empty()) {
      store_.event(std::to_string(hits) + " of " +
                   std::to_string(jobs.size()) +
                   " jobs satisfied from the result cache; running " +
                   std::to_string(todo.size()));
    }
    if (todo.empty()) return;

    store_.record_dispatched(todo);
    std::unordered_set<std::uint32_t> done_ids;
    // The sink serializes callbacks, so record_done (cache publish +
    // journal fsync) and the done-id set need no extra lock.
    ResultSink inner_sink([&](const JobSpec& job, const RunResult& result) {
      store_.record_done(job, result);
      done_ids.insert(job.id);
      sink.push(job, result);
    });
    try {
      inner_.run(todo, inner_sink);
    } catch (...) {
      // Journal the holes: jobs the backend gave up on are failed (pending
      // again on resume), not silently forgotten.
      for (const JobSpec& job : todo) {
        if (!done_ids.contains(job.id)) store_.record_failed(job, 1);
      }
      throw;
    }
    executed += todo.size();
  }

  std::size_t executed = 0;
  std::size_t cache_hits = 0;

 private:
  CampaignStore& store_;
  ExperimentBackend& inner_;
};

}  // namespace

std::vector<RunResult> run_experiment_durable(CampaignStore& store,
                                              ExperimentBackend& backend,
                                              ResultSink& sink,
                                              const RunOptions& options) {
  DurableBackend durable(store, backend);
  std::vector<RunResult> results =
      run_experiment(store.spec(), durable, sink, options);
  store.event("finished (" + std::to_string(durable.executed) +
              " executed, " + std::to_string(durable.cache_hits) +
              " cached)");
  return results;
}

}  // namespace mflush
