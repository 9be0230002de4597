#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

/// Minimal POSIX stream-socket helpers for the mflushd wire layer — the
/// socket sibling of fsio. Two address forms, one grammar everywhere
/// (--serve, --connect):
///
///   unix:PATH   Unix-domain stream socket at PATH (a bare address
///               containing '/' is also taken as a path)
///   HOST:PORT   IPv4 TCP; HOST may be empty or '*' for INADDR_ANY when
///               listening, and a dotted-quad (or 'localhost') otherwise
///
/// All functions throw std::runtime_error naming the address on failure.
/// Writes use MSG_NOSIGNAL so a vanished peer surfaces as an error, never
/// as SIGPIPE killing the daemon. Every fd made here is close-on-exec, so
/// a spawned worker never holds the daemon's listen socket or a client
/// connection open.
namespace mflush::sockio {

/// Whether `address` names a Unix-domain socket under the grammar above.
[[nodiscard]] bool is_unix_address(const std::string& address);

/// The filesystem path of a Unix-domain address ("" for TCP addresses).
[[nodiscard]] std::string unix_path_of(const std::string& address);

/// Bind + listen on `address` and return the listening fd. A stale
/// Unix-domain socket file (a SIGKILLed previous daemon) is unlinked
/// before binding — restart must never fail on the corpse's address.
[[nodiscard]] int listen_on(const std::string& address, int backlog = 16);

/// Accept one connection; blocks. Returns -1 once the listening fd has
/// been shut down or closed (the serve loop's stop signal) — EINTR is
/// retried, everything else reads as "stop accepting".
[[nodiscard]] int accept_on(int listen_fd);

/// Connect to `address` and return the fd.
[[nodiscard]] int connect_to(const std::string& address);

/// Write every byte or throw (EINTR retried, SIGPIPE suppressed).
void write_all(int fd, std::span<const std::uint8_t> bytes);

/// Append up to one read()'s worth of bytes to `buffer`. Returns the
/// number appended; 0 means orderly EOF (a connection reset also reads as
/// EOF — the peer is gone either way). Throws on other errors.
std::size_t read_some(int fd, std::vector<std::uint8_t>& buffer);

/// shutdown(SHUT_RDWR): unblocks any thread inside accept/read on `fd`.
void shutdown_fd(int fd) noexcept;

void close_fd(int fd) noexcept;

}  // namespace mflush::sockio
