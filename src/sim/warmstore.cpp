#include "sim/warmstore.h"

#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <system_error>
#include <unordered_set>

#include "common/archive.h"
#include "common/fsio.h"
#include "sim/campaign.h"
#include "sim/snapshot.h"

namespace mflush {
namespace {

constexpr std::uint64_t kEntryMagic = 0x4d464c555357524dull;  // "MFLUSWRM"
constexpr std::uint64_t kKeyMagic = 0x4d464c5553574b59ull;    // "MFLUSWKY"

using Bytes = std::shared_ptr<const std::vector<std::uint8_t>>;

struct Registry {
  std::mutex m;
  std::condition_variable landed;  ///< a warm finished (or failed)
  std::unordered_map<std::uint64_t, Bytes> bytes;
  std::unordered_set<std::uint64_t> warming;
  std::uint64_t warms = 0;
};

Registry& registry() {
  // Leaked intentionally: snapshot bytes may be recalled from worker code
  // running during static destruction of other translation units.
  static auto* r = new Registry();
  return *r;
}

}  // namespace

namespace warmstore {

std::uint64_t warm_key(const JobSpec& job) {
  JobSpec parent;
  parent.workload = job.workload;
  parent.profiles = job.profiles;
  parent.policy = job.policy;
  parent.seed = job.seed;
  parent.warmup = job.warmup;
  parent.warm_only = true;
  ArchiveWriter ar;
  ar.put(kKeyMagic);
  ar.put(kFormatVersion);
  ar.put(snapshot::kFormatVersion);
  parent.save_content(ar);
  return fnv1a(ar.bytes());
}

JobSpec warm_job_of(const JobSpec& fork) {
  JobSpec w;
  w.workload = fork.workload;
  w.profiles = fork.profiles;
  w.policy = fork.policy;
  w.seed = fork.seed;
  w.warmup = fork.warmup;
  w.warm_only = true;
  w.parent_key = warm_key(fork);
  return w;
}

void publish(std::uint64_t key, Bytes bytes) {
  if (key == 0 || !bytes) return;
  Registry& r = registry();
  const std::lock_guard lk(r.m);
  r.bytes.emplace(key, std::move(bytes));
}

Bytes recall(std::uint64_t key) {
  Registry& r = registry();
  const std::lock_guard lk(r.m);
  const auto it = r.bytes.find(key);
  return it == r.bytes.end() ? nullptr : it->second;
}

Bytes parent_snapshot(const JobSpec& fork) {
  Registry& r = registry();
  const std::uint64_t key = fork.parent_key;
  {
    std::unique_lock lk(r.m);
    for (;;) {
      if (const auto it = r.bytes.find(key); it != r.bytes.end())
        return it->second;
      if (r.warming.insert(key).second) break;
      r.landed.wait(lk);
    }
    ++r.warms;
  }
  // This caller warms; siblings wait above until the bytes are published
  // or the warm throws (then one of them takes over).
  struct Release {
    Registry& r;
    std::uint64_t key;
    ~Release() {
      {
        const std::lock_guard lk(r.m);
        r.warming.erase(key);
      }
      r.landed.notify_all();
    }
  } release{r, key};
  Bytes bytes = run_job(warm_job_of(fork)).payload;
  publish(key, bytes);
  return bytes;
}

std::uint64_t warm_count() {
  Registry& r = registry();
  const std::lock_guard lk(r.m);
  return r.warms;
}

}  // namespace warmstore

// ---------------------------------------------------------------- WarmStore

WarmStore::WarmStore(std::string dir, Options options)
    : dir_(std::move(dir)), opts_(std::move(options)) {
  std::filesystem::create_directories(dir_);
}

void WarmStore::event(const std::string& line) const {
  if (!opts_.on_event) return;
  if (opts_.label.empty()) {
    opts_.on_event(line);
  } else {
    opts_.on_event("[" + opts_.label + "] " + line);
  }
}

std::string WarmStore::path_of(std::uint64_t key) const {
  return (std::filesystem::path(dir_) / (campaign::key_hex(key) + ".mfws"))
      .string();
}

std::shared_ptr<const std::vector<std::uint8_t>> WarmStore::lookup(
    std::uint64_t key) {
  const std::lock_guard lk(m_);
  if (const auto it = memo_.find(key); it != memo_.end()) {
    ++stats_.hits;
    return it->second;
  }
  const std::string path = path_of(key);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    ++stats_.misses;
    return nullptr;
  }
  try {
    const std::vector<std::uint8_t> file =
        fsio::read_file_bytes(path, "warm-store entry");
    if (file.size() < sizeof(std::uint64_t))
      throw std::runtime_error("truncated");
    const std::size_t body = file.size() - sizeof(std::uint64_t);
    std::uint64_t stored = 0;
    std::memcpy(&stored, file.data() + body, sizeof(stored));
    if (fnv1a({file.data(), body}) != stored)
      throw std::runtime_error("checksum mismatch");
    ArchiveReader ar({file.data(), body});
    if (ar.get<std::uint64_t>() != kEntryMagic)
      throw std::runtime_error("bad magic");
    if (const auto v = ar.get<std::uint32_t>();
        v != warmstore::kFormatVersion) {
      throw std::runtime_error("store format version " + std::to_string(v));
    }
    if (const auto v = ar.get<std::uint32_t>();
        v != snapshot::kFormatVersion) {
      throw std::runtime_error("snapshot format version " +
                               std::to_string(v));
    }
    if (ar.get<std::uint64_t>() != key)
      throw std::runtime_error("key echo mismatch");
    std::vector<std::uint8_t> snap;
    ar.get_vec(snap);
    if (!ar.done()) throw std::runtime_error("trailing bytes");
    auto bytes =
        std::make_shared<const std::vector<std::uint8_t>>(std::move(snap));
    memo_.emplace(key, bytes);
    ++stats_.hits;
    return bytes;
  } catch (const std::exception& e) {
    // A damaged entry is a miss, not an error: delete it so the parent is
    // transparently re-warmed and the slot rewritten — the PR 6
    // corrupt-cache policy at warm-store granularity.
    std::filesystem::remove(path, ec);
    ++stats_.corrupt_discarded;
    ++stats_.misses;
    event("entry " + campaign::key_hex(key) + " corrupt (" + e.what() +
          ") -- discarded for re-warm");
    return nullptr;
  }
}

void WarmStore::put(std::uint64_t key,
                    std::shared_ptr<const std::vector<std::uint8_t>> bytes) {
  if (key == 0 || !bytes) return;
  const std::lock_guard lk(m_);
  if (memo_.contains(key)) return;
  const std::string path = path_of(key);
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    memo_.emplace(key, std::move(bytes));
    return;
  }
  ArchiveWriter ar;
  ar.put(kEntryMagic);
  ar.put(warmstore::kFormatVersion);
  ar.put(snapshot::kFormatVersion);
  ar.put(key);
  ar.put_vec(*bytes);
  ar.put(fnv1a(ar.bytes()));
  fsio::write_file_atomic(path, ar.bytes(), /*durable=*/true);
  ++stats_.stored;
  stats_.bytes_written += ar.bytes().size();
  memo_.emplace(key, std::move(bytes));
}

bool WarmStore::contains(std::uint64_t key) const {
  const std::lock_guard lk(m_);
  if (memo_.contains(key)) return true;
  std::error_code ec;
  return std::filesystem::exists(path_of(key), ec);
}

WarmStore::Stats WarmStore::stats() const {
  const std::lock_guard lk(m_);
  return stats_;
}

}  // namespace mflush
