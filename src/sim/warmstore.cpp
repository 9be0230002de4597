#include "sim/warmstore.h"

#include <condition_variable>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "sim/campaign.h"
#include "sim/snapshot.h"

namespace mflush {
namespace {

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

/// The parent a fork warms from: its workload, profiles, policy, seed and
/// warmup, with every other field at its default (the memory model too —
/// see ROADMAP "Fix first"). warm_key hashes it and warm_job_of returns
/// it, so the two cannot disagree on what a parent is.
[[nodiscard]] JobSpec parent_of(const JobSpec& fork) {
  JobSpec parent;
  parent.workload = fork.workload;
  parent.profiles = fork.profiles;
  parent.policy = fork.policy;
  parent.seed = fork.seed;
  parent.warmup = fork.warmup;
  return parent;
}

}  // namespace

namespace warmstore {

std::uint64_t warm_key(const JobSpec& job) {
  return campaign::job_key(parent_of(job));
}

JobSpec warm_job_of(const JobSpec& fork) {
  JobSpec w = parent_of(fork);
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
    : blobs_(std::move(dir), "mfws",
             [on_event = std::move(options.on_event)](std::uint64_t key,
                                                      const std::string& why) {
               if (on_event)
                 on_event("entry " + campaign::key_hex(key) + " corrupt (" +
                          why + ") -- discarded for re-warm");
             }) {}

Bytes WarmStore::lookup(std::uint64_t key) {
  Bytes bytes;
  blobs_.get(key, [&](std::vector<std::uint8_t> entry) {
    snapshot::check(entry);
    bytes = std::make_shared<const std::vector<std::uint8_t>>(std::move(entry));
  });
  return bytes;
}

void WarmStore::put(std::uint64_t key, const Bytes& bytes) {
  if (key != 0 && bytes) blobs_.put(key, *bytes);
}

}  // namespace mflush
