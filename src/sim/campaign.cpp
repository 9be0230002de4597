#include "sim/campaign.h"

#include <csignal>
#include <filesystem>
#include <utility>

#include "common/archive.h"
#include "common/env.h"
#include "common/fsio.h"

namespace mflush {
namespace campaign {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kKeyMagic = 0x4d464c55534b4559ull;  // "MFLUSKEY"

/// DIR/spec.mfc, or DIR/spec.N.mfc for a rotated generation `gen` > 0.
[[nodiscard]] std::string spec_path(const std::string& dir,
                                    unsigned gen = 0) {
  const std::string suffix = gen == 0 ? "" : "." + std::to_string(gen);
  return (fs::path(dir) / ("spec" + suffix + ".mfc")).string();
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
      kill_after_(other.kill_after_),
      done_this_session_(other.done_this_session_.load()) {}

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
  const std::string path = campaign::spec_path(dir);
  const std::vector<std::uint8_t> spec_bytes = spec.to_bytes();
  if (fs::exists(path)) {
    bool same_spec = false;
    try {
      same_spec = fsio::read_file_bytes(path, "campaign spec") == spec_bytes;
    } catch (const std::exception&) {
      // Unreadable archived spec: treat as a different generation.
    }
    if (same_spec) {
      throw std::runtime_error(
          "campaign directory " + dir +
          " already holds a campaign for this exact spec — pass --resume to "
          "continue it (or point --campaign at a fresh directory)");
    }
    // A different spec supersedes the old one but keeps the shared result
    // cache, so the overlap between the two specs is free.
    unsigned gen = 1;
    while (fs::exists(campaign::spec_path(dir, gen))) ++gen;
    fs::rename(path, campaign::spec_path(dir, gen));
    store.event("spec changed — previous spec rotated to spec." +
                std::to_string(gen) + ".mfc (result cache retained)");
  }
  fsio::write_file_atomic(path, spec_bytes, /*durable=*/true);
  return store;
}

CampaignStore CampaignStore::resume(const std::string& dir,
                                    Options options) {
  const std::string path = campaign::spec_path(dir);
  if (!std::filesystem::exists(path)) {
    throw std::runtime_error(
        "no campaign to resume in " + dir +
        " (expected spec.mfc — start one with --campaign)");
  }
  const auto spec_bytes = fsio::read_file_bytes(path, "campaign spec");
  CampaignStore store(dir, ExperimentSpec::from_bytes(spec_bytes),
                      std::move(options));
  store.event("resumed '" + store.spec_.name +
              "' — jobs already in the result cache will not re-run");
  return store;
}

void CampaignStore::record_done(const JobSpec& job, const RunResult& result) {
  // Cache entries store slot id 0: the id is campaign-relative, the entry
  // is content-addressed. The put is durable before it returns, so the
  // result is recoverable before any sink sees it.
  cache_->put(campaign::job_key(job), worker::encode_results({{0, result}}));

  if (kill_after_ != 0 && ++done_this_session_ >= kill_after_) {
    // Crash-injection hook (MFLUSH_CAMPAIGN_KILL_AFTER): die the hard way,
    // mid-campaign, with no destructors — exactly what resume must absorb.
    ::raise(SIGKILL);
  }
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
/// run on the inner backend and are published to the cache as they land.
/// run_experiment drives this exactly like the raw backend, so the round
/// structure (and the final result vector) of a sampled run is unchanged.
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

    // Each result is durable in the cache before the caller's sink sees it.
    ResultSink inner_sink([&](const JobSpec& job, const RunResult& result) {
      store_.record_done(job, result);
      sink.push(job, result);
    });
    inner_.run(todo, inner_sink);
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
