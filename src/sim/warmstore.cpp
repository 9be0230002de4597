#include "sim/warmstore.h"

#include <condition_variable>
#include <stdexcept>
#include <unordered_set>

#include "common/archive.h"
#include "common/envelope.h"
#include "sim/campaign.h"
#include "sim/snapshot.h"

namespace mflush {
namespace {

constexpr std::uint64_t kEntryMagic = 0x4d464c555357524dull;  // "MFLUSWRM"
constexpr std::uint64_t kKeyMagic = 0x4d464c5553574b59ull;    // "MFLUSWKY"

using Bytes = std::shared_ptr<const std::vector<std::uint8_t>>;

struct Registry {
  std::mutex m;
  std::condition_variable warm_ended;  ///< a warm finished (or failed)
  std::unordered_map<std::uint64_t, Bytes> bytes;
  std::unordered_set<std::uint64_t> in_flight;  ///< keys being warmed
  std::uint64_t warms = 0;
};

Registry& registry() {
  // Leaked intentionally: snapshot bytes may be recalled from worker code
  // running during static destruction of other translation units.
  static auto* r = new Registry();
  return *r;
}

constexpr char kEntryWhat[] = "warm-store entry";

std::vector<std::uint8_t> encode_entry(std::uint64_t key,
                                       const std::vector<std::uint8_t>& snap) {
  ArchiveWriter ar;
  envelope::put_header(ar, kEntryMagic, warmstore::kFormatVersion);
  ar.put(snapshot::kFormatVersion);
  ar.put(key);
  ar.put_vec(snap);
  envelope::seal(ar);
  return ar.take();
}

/// The snapshot inside a warm entry, cut out of the entry buffer in place
/// (no second snapshot-sized buffer). Throws on any damage.
Bytes decode_entry(std::uint64_t key, std::vector<std::uint8_t> entry) {
  ArchiveReader ar(envelope::unseal(entry, kEntryWhat));
  envelope::expect_header(ar, kEntryMagic, warmstore::kFormatVersion,
                          kEntryWhat);
  if (const auto v = ar.get<std::uint32_t>(); v != snapshot::kFormatVersion)
    throw std::runtime_error("snapshot format version " + std::to_string(v));
  if (ar.get<std::uint64_t>() != key)
    throw std::runtime_error("key echo mismatch");
  const auto len = ar.get<std::uint64_t>();
  if (len > ar.remaining()) throw std::runtime_error("archive truncated");
  if (len < ar.remaining()) throw std::runtime_error("trailing bytes");
  const std::size_t start =
      entry.size() - sizeof(std::uint64_t) - static_cast<std::size_t>(len);
  entry.erase(entry.begin(),
              entry.begin() + static_cast<std::ptrdiff_t>(start));
  entry.resize(static_cast<std::size_t>(len));
  return std::make_shared<const std::vector<std::uint8_t>>(std::move(entry));
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
  w.parent_key = warm_key(fork);
  return w;
}

Bytes recall(std::uint64_t key) {
  Registry& r = registry();
  const std::lock_guard lk(r.m);
  const auto it = r.bytes.find(key);
  return it == r.bytes.end() ? nullptr : it->second;
}

Bytes parent_snapshot(const JobSpec& fork,
                      const std::function<Bytes()>& warm) {
  Registry& r = registry();
  const std::uint64_t key = fork.parent_key;
  {
    std::unique_lock lk(r.m);
    for (;;) {
      if (const auto it = r.bytes.find(key); it != r.bytes.end())
        return it->second;
      if (r.in_flight.insert(key).second) break;
      r.warm_ended.wait(lk);
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
        r.in_flight.erase(key);
      }
      r.warm_ended.notify_all();
    }
  } release{r, key};
  Bytes bytes = warm();
  if (bytes) {
    const std::lock_guard lk(r.m);
    r.bytes.emplace(key, bytes);
  }
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
    : opts_(std::move(options)),
      blobs_(std::move(dir), "mfws",
             [this](std::uint64_t key, const std::string& why) {
               if (opts_.on_event)
                 opts_.on_event("entry " + campaign::key_hex(key) +
                                " corrupt (" + why +
                                ") -- discarded for re-warm");
             }) {}

std::shared_ptr<const std::vector<std::uint8_t>> WarmStore::lookup(
    std::uint64_t key) {
  const std::lock_guard lk(m_);
  if (const auto it = memo_.find(key); it != memo_.end()) {
    ++memo_hits_;
    return it->second;
  }
  Bytes bytes;
  blobs_.get(key, [&](std::vector<std::uint8_t> entry) {
    bytes = decode_entry(key, std::move(entry));
  });
  if (bytes) memo_.emplace(key, bytes);
  return bytes;
}

void WarmStore::put(std::uint64_t key,
                    std::shared_ptr<const std::vector<std::uint8_t>> bytes) {
  if (key == 0 || !bytes) return;
  const std::lock_guard lk(m_);
  if (memo_.contains(key)) return;
  // Checked before encoding: an existing entry costs no snapshot copy.
  if (!blobs_.contains(key)) blobs_.put(key, encode_entry(key, *bytes));
  memo_.emplace(key, std::move(bytes));
}

bool WarmStore::contains(std::uint64_t key) const {
  const std::lock_guard lk(m_);
  return memo_.contains(key) || blobs_.contains(key);
}

WarmStore::Stats WarmStore::stats() const {
  const std::lock_guard lk(m_);
  Stats s = blobs_.stats();
  s.hits += memo_hits_;
  return s;
}

}  // namespace mflush
