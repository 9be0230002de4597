#include "common/sockio.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace mflush::sockio {
namespace {

[[noreturn]] void fail(const std::string& what, const std::string& address) {
  throw std::runtime_error("sockio: " + what + " failed for '" + address +
                           "': " + std::strerror(errno));
}

sockaddr_un unix_sockaddr(const std::string& address, const std::string& path) {
  sockaddr_un sa{};
  sa.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(sa.sun_path)) {
    throw std::runtime_error("sockio: unix socket path in '" + address +
                             "' must be 1.." +
                             std::to_string(sizeof(sa.sun_path) - 1) +
                             " bytes");
  }
  std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
  return sa;
}

sockaddr_in tcp_sockaddr(const std::string& address, bool listening) {
  const std::size_t colon = address.rfind(':');
  if (colon == std::string::npos) {
    throw std::runtime_error("sockio: TCP address '" + address +
                             "' must look like HOST:PORT (or unix:PATH)");
  }
  std::string host = address.substr(0, colon);
  const std::string port_text = address.substr(colon + 1);
  char* end = nullptr;
  const unsigned long port = std::strtoul(port_text.c_str(), &end, 10);
  if (port_text.empty() || *end != '\0' || port == 0 || port > 65535) {
    throw std::runtime_error("sockio: bad port '" + port_text + "' in '" +
                             address + "'");
  }
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(port));
  if (host.empty() || host == "*") {
    if (!listening) {
      throw std::runtime_error("sockio: connect address '" + address +
                               "' needs an explicit host");
    }
    sa.sin_addr.s_addr = htonl(INADDR_ANY);
    return sa;
  }
  if (host == "localhost") host = "127.0.0.1";
  if (inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) {
    throw std::runtime_error("sockio: host '" + host + "' in '" + address +
                             "' is not a dotted-quad IPv4 address");
  }
  return sa;
}

}  // namespace

bool is_unix_address(const std::string& address) {
  return address.rfind("unix:", 0) == 0 ||
         address.find('/') != std::string::npos;
}

std::string unix_path_of(const std::string& address) {
  if (address.rfind("unix:", 0) == 0) return address.substr(5);
  if (address.find('/') != std::string::npos) return address;
  return {};
}

int listen_on(const std::string& address, int backlog) {
  if (is_unix_address(address)) {
    const std::string path = unix_path_of(address);
    const sockaddr_un sa = unix_sockaddr(address, path);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) fail("socket", address);
    ::unlink(path.c_str());  // a SIGKILLed daemon leaves its socket behind
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0 ||
        ::listen(fd, backlog) != 0) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      fail("bind/listen", address);
    }
    return fd;
  }
  const sockaddr_in sa = tcp_sockaddr(address, /*listening=*/true);
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) fail("socket", address);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0 ||
      ::listen(fd, backlog) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("bind/listen", address);
  }
  return fd;
}

int accept_on(int listen_fd) {
  for (;;) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0) return fd;
    if (errno == EINTR || errno == ECONNABORTED) continue;
    return -1;  // fd shut down or closed: the serve loop is stopping
  }
}

int connect_to(const std::string& address) {
  if (is_unix_address(address)) {
    const sockaddr_un sa = unix_sockaddr(address, unix_path_of(address));
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) fail("socket", address);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) !=
        0) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      fail("connect", address);
    }
    return fd;
  }
  const sockaddr_in sa = tcp_sockaddr(address, /*listening=*/false);
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) fail("socket", address);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("connect", address);
  }
  return fd;
}

void write_all(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("sockio: send failed: ") +
                               std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::size_t read_some(int fd, std::vector<std::uint8_t>& buffer) {
  std::uint8_t chunk[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer.insert(buffer.end(), chunk, chunk + n);
      return static_cast<std::size_t>(n);
    }
    if (n == 0) return 0;
    if (errno == EINTR) continue;
    if (errno == ECONNRESET) return 0;  // peer vanished: same as EOF here
    throw std::runtime_error(std::string("sockio: recv failed: ") +
                             std::strerror(errno));
  }
}

void shutdown_fd(int fd) noexcept { ::shutdown(fd, SHUT_RDWR); }

void close_fd(int fd) noexcept {
  if (fd >= 0) ::close(fd);
}

}  // namespace mflush::sockio
