#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace mflush {

/// A directory of content-addressed entries `<16-hex-key>.<ext>` — the one
/// persist procedure beneath the campaign result cache (`.mfcr`, sealed
/// result archives) and the warm-state store (`.mfws`, parent snapshots
/// stored as captured). The store adds no framing: an entry is exactly the
/// bytes put, and the owner's decoder checks them.
///
/// Entries are immutable: put is put-if-absent through
/// fsio::write_file_atomic(durable), so a reader or a post-crash restart
/// sees a whole entry or none, and concurrent same-key writers (threads,
/// processes, mflushd tenants over one directory) are benign. A read runs
/// the owner's decoder; an entry it rejects is deleted, counted, reported
/// and read as a miss, so the owner recomputes and its next put heals the
/// slot. Write-temps of dead writers are swept at construction; a live
/// writer's temp is never touched. Thread-safe.
class BlobStore {
 public:
  /// hits/misses count get()s (a corrupt entry is a miss); `stored` counts
  /// entries this instance wrote (put-if-absent skips are not stores).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stored = 0;
    std::uint64_t corrupt_discarded = 0;
    std::uint64_t bytes_written = 0;
  };

  /// Receives the key and the decoder's error of each discarded entry.
  using OnCorrupt = std::function<void(std::uint64_t, const std::string&)>;

  /// Creates `dir` (and parents) if missing; throws on failure.
  BlobStore(std::string dir, std::string ext, OnCorrupt on_corrupt = {});

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  [[nodiscard]] std::string path_of(std::uint64_t key) const;
  /// Whether an entry file exists (no validation — get decides that).
  [[nodiscard]] bool contains(std::uint64_t key) const;

  void put(std::uint64_t key, std::span<const std::uint8_t> bytes);

  /// Hand the entry's bytes to `decode`; false on a miss, including when
  /// the read or `decode` throws (the entry is then discarded).
  bool get(std::uint64_t key,
           const std::function<void(std::vector<std::uint8_t>)>& decode);

  [[nodiscard]] Stats stats() const;

 private:
  std::string dir_;
  std::string ext_;
  OnCorrupt on_corrupt_;
  mutable std::mutex m_;
  Stats stats_;
};

}  // namespace mflush
