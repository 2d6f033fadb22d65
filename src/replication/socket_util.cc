#include "replication/socket_util.h"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace nepal::replication {

namespace {

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd, bool nonblocking) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  if (nonblocking) {
    flags |= O_NONBLOCK;
  } else {
    flags &= ~O_NONBLOCK;
  }
  if (::fcntl(fd, F_SETFL, flags) < 0) return Errno("fcntl(F_SETFL)");
  return Status::OK();
}

Result<struct sockaddr_un> UnixSockaddr(const std::string& path) {
  struct sockaddr_un sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sun_family = AF_UNIX;
  if (path.size() >= sizeof(sa.sun_path)) {
    return Status::InvalidArgument("unix socket path too long (" +
                                   std::to_string(path.size()) + " bytes): " +
                                   path);
  }
  std::memcpy(sa.sun_path, path.data(), path.size());
  return sa;
}

}  // namespace

void OwnedFd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

std::string SocketAddress::ToString() const {
  if (is_unix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

Result<SocketAddress> ParseSocketAddress(const std::string& spec) {
  SocketAddress addr;
  if (spec.rfind("unix:", 0) == 0) {
    addr.is_unix = true;
    addr.path = spec.substr(5);
    if (addr.path.empty()) {
      return Status::InvalidArgument("unix socket address without a path: " +
                                     spec);
    }
    return addr;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    const std::string rest = spec.substr(4);
    const size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == rest.size()) {
      return Status::InvalidArgument(
          "tcp address must be tcp:<host>:<port>: " + spec);
    }
    addr.host = rest.substr(0, colon);
    addr.port = std::atoi(rest.c_str() + colon + 1);
    if (addr.port <= 0 || addr.port > 65535) {
      return Status::InvalidArgument("bad tcp port in address: " + spec);
    }
    return addr;
  }
  return Status::InvalidArgument(
      "not a socket address (expected unix:<path> or tcp:<host>:<port>): " +
      spec);
}

void IgnoreSigPipe() {
  // Once per process is enough, but calling signal() repeatedly is cheap
  // and keeps every entry point self-sufficient.
  ::signal(SIGPIPE, SIG_IGN);
}

Result<OwnedFd> ListenOn(const SocketAddress& address, int backlog) {
  IgnoreSigPipe();
  if (address.is_unix) {
    NEPAL_ASSIGN_OR_RETURN(struct sockaddr_un sa,
                           UnixSockaddr(address.path));
    // A stale socket file from a previous run would make bind fail; only
    // actual sockets are removed, never a regular file at the same path.
    struct stat st;
    if (::lstat(address.path.c_str(), &st) == 0 && S_ISSOCK(st.st_mode)) {
      ::unlink(address.path.c_str());
    }
    OwnedFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) return Errno("socket(AF_UNIX)");
    if (::bind(fd.get(), reinterpret_cast<struct sockaddr*>(&sa),
               sizeof(sa)) < 0) {
      return Errno("bind " + address.ToString());
    }
    if (::listen(fd.get(), backlog) < 0) {
      return Errno("listen " + address.ToString());
    }
    return fd;
  }
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  struct addrinfo* res = nullptr;
  const std::string port = std::to_string(address.port);
  int rc = ::getaddrinfo(address.host.empty() ? nullptr : address.host.c_str(),
                         port.c_str(), &hints, &res);
  if (rc != 0) {
    return Status::IoError("resolve " + address.ToString() + ": " +
                           ::gai_strerror(rc));
  }
  Status last = Status::IoError("no usable address for " + address.ToString());
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    OwnedFd fd(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!fd.valid()) {
      last = Errno("socket");
      continue;
    }
    int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd.get(), ai->ai_addr, ai->ai_addrlen) < 0) {
      last = Errno("bind " + address.ToString());
      continue;
    }
    if (::listen(fd.get(), backlog) < 0) {
      last = Errno("listen " + address.ToString());
      continue;
    }
    ::freeaddrinfo(res);
    return fd;
  }
  ::freeaddrinfo(res);
  return last;
}

Result<OwnedFd> AcceptOn(int listen_fd, std::chrono::milliseconds timeout) {
  struct pollfd pfd;
  pfd.fd = listen_fd;
  pfd.events = POLLIN;
  int r = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
  if (r < 0) {
    if (errno == EINTR) return OwnedFd();
    return Errno("poll listen socket");
  }
  if (r == 0) return OwnedFd();  // timeout
  int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
        errno == ECONNABORTED) {
      return OwnedFd();  // transient; the accept loop just polls again
    }
    return Errno("accept");
  }
  return OwnedFd(fd);
}

namespace {

/// Finishes a nonblocking connect: poll for writability within the
/// deadline, then check SO_ERROR.
Status FinishConnect(int fd, std::chrono::milliseconds deadline,
                     const std::string& where) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = POLLOUT;
  int r = ::poll(&pfd, 1, static_cast<int>(deadline.count()));
  if (r < 0) return Errno("poll connect " + where);
  if (r == 0) {
    return Status::Unavailable("connect " + where + " timed out");
  }
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
    return Errno("getsockopt(SO_ERROR) " + where);
  }
  if (err != 0) {
    return Status::Unavailable("connect " + where + ": " +
                               std::strerror(err));
  }
  return Status::OK();
}

}  // namespace

Result<OwnedFd> ConnectWithDeadline(const SocketAddress& address,
                                    std::chrono::milliseconds deadline) {
  IgnoreSigPipe();
  if (address.is_unix) {
    NEPAL_ASSIGN_OR_RETURN(struct sockaddr_un sa,
                           UnixSockaddr(address.path));
    OwnedFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) return Errno("socket(AF_UNIX)");
    NEPAL_RETURN_NOT_OK(SetNonBlocking(fd.get(), true));
    if (::connect(fd.get(), reinterpret_cast<struct sockaddr*>(&sa),
                  sizeof(sa)) < 0) {
      if (errno != EINPROGRESS && errno != EAGAIN) {
        return Status::Unavailable("connect " + address.ToString() + ": " +
                                   std::strerror(errno));
      }
      NEPAL_RETURN_NOT_OK(
          FinishConnect(fd.get(), deadline, address.ToString()));
    }
    NEPAL_RETURN_NOT_OK(SetNonBlocking(fd.get(), false));
    return fd;
  }
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* res = nullptr;
  const std::string port = std::to_string(address.port);
  int rc = ::getaddrinfo(address.host.c_str(), port.c_str(), &hints, &res);
  if (rc != 0) {
    return Status::IoError("resolve " + address.ToString() + ": " +
                           ::gai_strerror(rc));
  }
  Status last =
      Status::Unavailable("no usable address for " + address.ToString());
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    OwnedFd fd(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!fd.valid()) {
      last = Errno("socket");
      continue;
    }
    Status st = SetNonBlocking(fd.get(), true);
    if (st.ok() && ::connect(fd.get(), ai->ai_addr, ai->ai_addrlen) < 0) {
      if (errno == EINPROGRESS || errno == EAGAIN) {
        st = FinishConnect(fd.get(), deadline, address.ToString());
      } else {
        st = Status::Unavailable("connect " + address.ToString() + ": " +
                                 std::strerror(errno));
      }
    }
    if (st.ok()) st = SetNonBlocking(fd.get(), false);
    if (st.ok()) {
      int one = 1;
      ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::freeaddrinfo(res);
      return fd;
    }
    last = st;
  }
  ::freeaddrinfo(res);
  return last;
}

Status ReadFully(int fd, char* buf, size_t n, bool eof_is_close) {
  size_t done = 0;
  while (done < n) {
    ssize_t r = ::read(fd, buf + done, n - done);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET || errno == EPIPE || errno == ETIMEDOUT) {
        // The peer died or the connection dropped: retryable — the next
        // session re-ships from the acknowledged position.
        return Status::Unavailable(
            std::string("peer closed the replication stream: ") +
            std::strerror(errno));
      }
      return Status::IoError(std::string("read replication stream: ") +
                             std::strerror(errno));
    }
    if (r == 0) {
      if (eof_is_close && done == 0) {
        return Status::Unavailable("peer closed the replication stream");
      }
      // EOF mid-object: the peer went down mid-write. Nothing partial was
      // applied (frames apply only once fully read and CRC-checked), so
      // this too is a disconnect to recover from, not corruption.
      return Status::Unavailable(
          "replication stream ended mid-object (EOF after " +
          std::to_string(done) + " of " + std::to_string(n) + " bytes)");
    }
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status WriteFully(int fd, const char* data, size_t n) {
  size_t done = 0;
  while (done < n) {
    ssize_t w = ::write(fd, data + done, n - done);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        return Status::Unavailable(
            std::string("peer closed the replication stream: ") +
            std::strerror(errno));
      }
      return Status::IoError(std::string("write replication stream: ") +
                             std::strerror(errno));
    }
    done += static_cast<size_t>(w);
  }
  return Status::OK();
}

void ShutdownSocket(int fd) {
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

Result<SocketAddress> LocalAddress(int fd) {
  struct sockaddr_storage ss;
  socklen_t len = sizeof(ss);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&ss), &len) < 0) {
    return Errno("getsockname");
  }
  SocketAddress addr;
  if (ss.ss_family == AF_UNIX) {
    const auto* sa = reinterpret_cast<const struct sockaddr_un*>(&ss);
    addr.is_unix = true;
    addr.path = sa->sun_path;
    return addr;
  }
  char host[NI_MAXHOST];
  char serv[NI_MAXSERV];
  int rc = ::getnameinfo(reinterpret_cast<struct sockaddr*>(&ss), len, host,
                         sizeof(host), serv, sizeof(serv),
                         NI_NUMERICHOST | NI_NUMERICSERV);
  if (rc != 0) {
    return Status::IoError(std::string("getnameinfo: ") + ::gai_strerror(rc));
  }
  addr.host = host;
  addr.port = std::atoi(serv);
  return addr;
}

Result<bool> PollReadable(int fd, std::chrono::milliseconds timeout) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = POLLIN;
  int r = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
  if (r < 0) {
    if (errno == EINTR) return false;
    return Status::IoError(std::string("poll replication stream: ") +
                           std::strerror(errno));
  }
  return r > 0;
}

}  // namespace nepal::replication
