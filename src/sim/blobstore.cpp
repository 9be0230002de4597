#include "sim/blobstore.h"

#include <dirent.h>
#include <unistd.h>

#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <system_error>

#include "common/fsio.h"
#include "sim/campaign.h"

namespace mflush {

namespace fs = std::filesystem;

BlobStore::BlobStore(std::string dir, std::string ext, OnCorrupt on_corrupt)
    : dir_(std::move(dir)),
      ext_(std::move(ext)),
      on_corrupt_(std::move(on_corrupt)) {
  // One listing both proves the directory exists and finds the temps of
  // dead writers. Stores are opened per tenant and per worker batch, so
  // this stays a bare readdir.
  const std::unique_ptr<DIR, int (*)(DIR*)> listing(::opendir(dir_.c_str()),
                                                    ::closedir);
  if (!listing) {
    fs::create_directories(dir_);
    return;
  }
  while (const dirent* entry = ::readdir(listing.get())) {
    if (std::strstr(entry->d_name, ".tmp.") == nullptr) continue;
    const std::string path = dir_ + "/" + entry->d_name;
    if (fsio::is_orphaned_temp(path)) ::unlink(path.c_str());
  }
}

std::string BlobStore::path_of(std::uint64_t key) const {
  return (fs::path(dir_) / (campaign::key_hex(key) + "." + ext_)).string();
}

bool BlobStore::contains(std::uint64_t key) const {
  std::error_code ec;
  return fs::exists(path_of(key), ec);
}

void BlobStore::put(std::uint64_t key, std::span<const std::uint8_t> bytes) {
  if (contains(key)) return;
  fsio::write_file_atomic(path_of(key), bytes, /*durable=*/true);
  const std::lock_guard lk(m_);
  ++stats_.stored;
  stats_.bytes_written += bytes.size();
}

bool BlobStore::get(
    std::uint64_t key,
    const std::function<void(std::vector<std::uint8_t>)>& decode) {
  const std::string path = path_of(key);
  std::error_code ec;
  const bool present = fs::exists(path, ec);
  if (present) {
    std::string error;
    try {
      decode(fsio::read_file_bytes(path, "store entry"));
      const std::lock_guard lk(m_);
      ++stats_.hits;
      return true;
    } catch (const std::exception& e) {
      error = e.what();
    }
    fs::remove(path, ec);
    if (on_corrupt_) on_corrupt_(key, error);
  }
  const std::lock_guard lk(m_);
  ++stats_.misses;
  if (present) ++stats_.corrupt_discarded;
  return false;
}

BlobStore::Stats BlobStore::stats() const {
  const std::lock_guard lk(m_);
  return stats_;
}

}  // namespace mflush
