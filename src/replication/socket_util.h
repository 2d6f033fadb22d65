// Socket and descriptor lifecycle shared by every replication wire path:
// the listener, its per-follower shipper sessions, and ReplicaStore's
// follower connection. One place owns descriptor cleanup,
// SIGPIPE suppression, address parsing, nonblocking connect deadlines and
// the exact-count read/write loops — instead of each call site
// re-implementing (and subtly diverging on) errno handling.
//
// Address syntax:
//   unix:<path>          stream socket bound to a filesystem path
//   tcp:<host>:<port>    TCP socket (host resolved via getaddrinfo)

#ifndef NEPAL_REPLICATION_SOCKET_UTIL_H_
#define NEPAL_REPLICATION_SOCKET_UTIL_H_

#include <chrono>
#include <string>
#include <utility>

#include "common/status.h"

namespace nepal::replication {

/// Owns one file descriptor; closes it on destruction. Move-only.
class OwnedFd {
 public:
  OwnedFd() = default;
  explicit OwnedFd(int fd) : fd_(fd) {}
  OwnedFd(OwnedFd&& other) noexcept : fd_(other.release()) {}
  OwnedFd& operator=(OwnedFd&& other) noexcept {
    if (this != &other) reset(other.release());
    return *this;
  }
  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;
  ~OwnedFd() { reset(); }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  /// Relinquishes ownership without closing.
  int release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }
  /// Closes the current descriptor (if any) and adopts `fd`.
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// A parsed listen/connect endpoint.
struct SocketAddress {
  bool is_unix = false;
  std::string path;  // unix
  std::string host;  // tcp
  int port = 0;      // tcp

  std::string ToString() const;
};

/// Parses "unix:<path>" / "tcp:<host>:<port>"; kInvalidArgument otherwise.
Result<SocketAddress> ParseSocketAddress(const std::string& spec);

/// Process-wide SIGPIPE suppression: a peer that disappears mid-write must
/// surface as EPIPE from the write loop, never kill the process.
/// Idempotent; every socket entry point calls it.
void IgnoreSigPipe();

/// Binds and listens. For unix addresses a stale socket file at the path
/// is removed first.
Result<OwnedFd> ListenOn(const SocketAddress& address, int backlog = 16);

/// Waits up to `timeout` for an inbound connection. Returns an invalid fd
/// (with OK status) on timeout so accept loops can poll their stop flag.
Result<OwnedFd> AcceptOn(int listen_fd, std::chrono::milliseconds timeout);

/// Nonblocking connect bounded by `deadline`, then back to blocking mode.
/// kUnavailable when the peer cannot be reached in time (reconnect loops
/// retry on that); other errors are address/setup problems.
Result<OwnedFd> ConnectWithDeadline(const SocketAddress& address,
                                    std::chrono::milliseconds deadline);

/// Blocking read of exactly `n` bytes. kUnavailable on clean EOF before
/// the first byte when `eof_is_close` (peer closed at an object boundary);
/// Corruption on EOF mid-object; IoError otherwise.
Status ReadFully(int fd, char* buf, size_t n, bool eof_is_close);

/// Blocking write of exactly `n` bytes; EPIPE surfaces as kUnavailable
/// (peer gone — the caller drops the session, nothing is corrupt).
Status WriteFully(int fd, const char* data, size_t n);

/// Waits for readability: true = data (or EOF) pending, false = timeout.
Result<bool> PollReadable(int fd, std::chrono::milliseconds timeout);

/// shutdown(SHUT_RDWR): wakes a thread blocked reading or writing `fd`
/// (it observes EOF / EPIPE) without closing the descriptor, so the owner
/// can still join that thread and close exactly once. No-op on fd < 0.
void ShutdownSocket(int fd);

/// The locally bound address of a listening socket — resolves the actual
/// port after binding "tcp:<host>:0" (tests and ephemeral listeners).
Result<SocketAddress> LocalAddress(int fd);

}  // namespace nepal::replication

#endif  // NEPAL_REPLICATION_SOCKET_UTIL_H_
