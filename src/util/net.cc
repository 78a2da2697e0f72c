#include "util/net.h"

#include <arpa/inet.h>
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/strings.h"

namespace bolton {
namespace net {

Status ErrnoStatus(const char* context) {
  return Status::IOError(
      StrFormat("%s: %s", context, std::strerror(errno)));
}

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

namespace {

sockaddr_in LoopbackAddr(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

using Clock = std::chrono::steady_clock;

/// Deadline for a `timeout_ms` budget starting now; max() when unbounded.
Clock::time_point DeadlineFor(int timeout_ms) {
  if (timeout_ms < 0) return Clock::time_point::max();
  return Clock::now() + std::chrono::milliseconds(timeout_ms);
}

/// Waits until `fd` is ready for `events` or the deadline passes.
/// OK(true) = ready, OK(false) = deadline expired.
Result<bool> WaitReady(int fd, short events, Clock::time_point deadline) {
  while (true) {
    int wait_ms = -1;
    if (deadline != Clock::time_point::max()) {
      const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (remaining.count() <= 0) return false;
      wait_ms = static_cast<int>(remaining.count()) + 1;
    }
    pollfd p{fd, events, 0};
    const int ready = ::poll(&p, 1, wait_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("poll");
    }
    if (ready > 0) return true;
    if (deadline == Clock::time_point::max()) continue;
  }
}

}  // namespace

Result<int> ListenTcp(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = LoopbackAddr(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status = ErrnoStatus("bind");
    CloseFd(fd);
    return status;
  }
  if (::listen(fd, 16) != 0) {
    Status status = ErrnoStatus("listen");
    CloseFd(fd);
    return status;
  }
  return fd;
}

Result<int> LocalPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return ErrnoStatus("getsockname");
  }
  return static_cast<int>(ntohs(addr.sin_port));
}

Result<int> ConnectTcp(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  sockaddr_in addr = LoopbackAddr(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status = ErrnoStatus("connect");
    CloseFd(fd);
    return status;
  }
  return fd;
}

Status SendAll(int fd, const char* data, size_t len, int timeout_ms) {
  const Clock::time_point deadline = DeadlineFor(timeout_ms);
  size_t sent = 0;
  while (sent < len) {
    BOLTON_ASSIGN_OR_RETURN(bool ready, WaitReady(fd, POLLOUT, deadline));
    if (!ready) return Status::IOError("send timed out");
    // A peer that hung up answers EPIPE here, not SIGPIPE, whose default
    // action would kill the whole process.
    ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return ErrnoStatus("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<std::string> RecvAll(int fd, size_t max_bytes, int timeout_ms) {
  const Clock::time_point deadline = DeadlineFor(timeout_ms);
  std::string out;
  char buf[4096];
  while (out.size() < max_bytes) {
    BOLTON_ASSIGN_OR_RETURN(bool ready, WaitReady(fd, POLLIN, deadline));
    if (!ready) return Status::IOError("recv timed out");
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return ErrnoStatus("recv");
    }
    if (n == 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  return out;
}

Result<std::string> RecvHttpHead(int fd, size_t max_bytes, int timeout_ms) {
  const Clock::time_point deadline = DeadlineFor(timeout_ms);
  std::string out;
  char buf[1024];
  while (out.size() < max_bytes &&
         out.find("\r\n\r\n") == std::string::npos) {
    BOLTON_ASSIGN_OR_RETURN(bool ready, WaitReady(fd, POLLIN, deadline));
    if (!ready) return Status::IOError("recv timed out");
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return ErrnoStatus("recv");
    }
    if (n == 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  return out;
}

Status RecvExact(int fd, size_t want, int timeout_ms, std::string* out) {
  const Clock::time_point deadline = DeadlineFor(timeout_ms);
  char buf[4096];
  size_t got = 0;
  while (got < want) {
    BOLTON_ASSIGN_OR_RETURN(bool ready, WaitReady(fd, POLLIN, deadline));
    if (!ready) return Status::IOError("recv timed out");
    const size_t chunk = std::min(want - got, sizeof(buf));
    ssize_t n = ::recv(fd, buf, chunk, 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return ErrnoStatus("recv");
    }
    if (n == 0) {
      return Status::IOError(
          StrFormat("connection closed %zu bytes short of the declared body",
                    want - got));
    }
    out->append(buf, static_cast<size_t>(n));
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace net
}  // namespace bolton
