#include "common/fsio.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace mflush::fsio {
namespace {

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + ": " + path + " (" + std::strerror(errno) +
                           ")");
}

/// Process-unique temp sibling for `path`: same directory (rename must not
/// cross filesystems), pid + counter so concurrent writers never collide.
std::string temp_sibling(const std::string& path) {
  static std::atomic<std::uint64_t> counter{0};
  return path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1));
}

}  // namespace

bool is_orphaned_temp(const std::string& path) {
  const std::string name = std::filesystem::path(path).filename().string();
  const std::size_t tag = name.rfind(".tmp.");
  if (tag == std::string::npos) return false;
  long pid = 0;
  unsigned long long n = 0;
  char tail = 0;  // "<pid>.<n>" must end the name
  if (std::sscanf(name.c_str() + tag + 5, "%ld.%llu%c", &pid, &n, &tail) !=
          2 ||
      pid <= 0)
    return false;
  // kill(pid, 0) probes existence; EPERM means alive but not ours.
  return ::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH;
}

void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes, bool durable) {
  const std::string tmp = temp_sibling(path);
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) fail("cannot open for write", tmp);

  const auto cleanup_failed = [&](const char* what) {
    const int saved = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    errno = saved;
    fail(what, tmp);
  };

  std::size_t off = 0;
  while (off < bytes.size()) {
    const ::ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      cleanup_failed("write failed");
    }
    off += static_cast<std::size_t>(n);
  }
  // The fsync-before-rename is what guarantees the rename publishes a
  // *complete* file: without it a crash can leave the new name pointing at
  // zero-length data even though the rename itself survived.
  if (durable && ::fsync(fd) != 0) cleanup_failed("fsync failed");
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    fail("close failed", tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    fail("rename failed", path);
  }
  if (durable) {
    const std::string dir =
        std::filesystem::path(path).parent_path().string();
    fsync_dir(dir.empty() ? "." : dir);
  }
}

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) fail("cannot open directory", dir);
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("directory fsync failed", dir);
  }
  ::close(fd);
}

std::vector<std::uint8_t> read_file_bytes(const std::string& path,
                                          const char* what) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in)
    throw std::runtime_error(std::string("cannot open ") + what + ": " +
                             path);
  // A directory or FIFO opens fine but has no size: tellg() is -1, which
  // must never become a vector length.
  std::error_code ec;
  const std::streamsize size = in.tellg();
  if (!std::filesystem::is_regular_file(path, ec) || size < 0) {
    throw std::runtime_error(std::string("cannot read ") + what + ": " +
                             path + " (not a regular file)");
  }
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in)
    throw std::runtime_error(std::string(what) + " read failed: " + path);
  return bytes;
}

}  // namespace mflush::fsio
