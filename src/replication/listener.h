// ReplicationListener: the primary side of the replication fleet.
//
// The listener binds a socket address (unix:<path> or tcp:<host>:<port>)
// and serves any number of concurrent followers (ReplicaStore::Connect),
// each on its own session thread:
//
//   1. The follower opens with an NPLSHP02 hello carrying its name and
//      last applied position (segment, records-within-segment).
//   2. The session subscribes to the store at that position. If the WAL
//      retention still covers it, the primary answers "resume" and streams
//      only the missing tail — no checkpoint image re-ship. If the
//      segment was pruned (or the position is implausible), it answers
//      "bootstrap" with a full v1 hello block instead.
//   3. Frames then flow as v1 frame blocks (wire.h); the follower sends an
//      ack (tag 0x04) after every batch it applies.
//
// Acks close the loop for semi-sync commit: each session registers itself
// as an ack source on the store (DurableStore::SetSemiSync /
// WaitCommitted) and converts the follower's session-relative ack counts
// into primary commit-token units via the per-frame `primary_records`
// stamp. They also feed the per-follower gauges
// (`nepal.replication.follower.<name>.*`) the shell's `\replication`
// table and the read router's lag accounting read.
//
// A session ends when its follower disconnects (clean EOF or error) or
// stops acking for too long; the follower is expected to reconnect and
// resume. Stop() shuts down the accept loop and every live session.

#ifndef NEPAL_REPLICATION_LISTENER_H_
#define NEPAL_REPLICATION_LISTENER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "persist/drain_thread.h"
#include "persist/durable_store.h"
#include "replication/socket_util.h"

namespace nepal::obs {
class Counter;
class Gauge;
}  // namespace nepal::obs

namespace nepal::replication {

struct ListenerOptions {
  /// Base subscription options for every session (buffer bound); the
  /// resume fields are filled per session from the follower's hello.
  persist::SubscribeOptions subscribe;
  /// Accept-loop poll interval (stop-flag latency).
  int accept_poll_ms = 100;
  /// One subscription poll per session iteration; also bounds how stale a
  /// pending ack can get before the session notices it.
  int frame_poll_ms = 20;
  /// Frames drained per iteration before acks are serviced.
  size_t max_batch_frames = 256;
  /// A follower that has this many shipped-but-unacked live frames is
  /// considered broken and disconnected (it would otherwise grow the
  /// session's ack-translation log without bound).
  size_t max_unacked_frames = 1u << 20;
};

class ReplicationListener {
 public:
  /// Binds `address` and starts accepting followers.
  static Result<std::unique_ptr<ReplicationListener>> Start(
      persist::DurableStore& store, const SocketAddress& address,
      ListenerOptions options = {});

  ~ReplicationListener();

  /// Stops the accept loop and tears down every live session. Idempotent.
  void Stop();

  /// The bound address — for "tcp:<host>:0" this carries the real port.
  const SocketAddress& address() const { return address_; }

  struct FollowerInfo {
    std::string name;
    bool connected = false;
    bool resumed = false;  // this session resumed (vs full bootstrap)
    uint64_t frames_shipped = 0;
    uint64_t bytes_shipped = 0;
    /// Ack coverage in primary commit-token units (records_appended()).
    uint64_t acked_records = 0;
    /// records_appended() - acked_records at snapshot time.
    uint64_t lag_records = 0;
    /// The follower's own staleness estimate, echoed from its last ack.
    uint32_t staleness_ms = 0;
    int64_t last_ack_us = 0;
  };
  /// One row per session, connected first; disconnected sessions linger
  /// until reaped by the accept loop.
  std::vector<FollowerInfo> Followers() const;

  uint64_t sessions_accepted() const {
    return sessions_accepted_.load(std::memory_order_relaxed);
  }
  /// Sessions that resumed from retained WAL (no image re-ship).
  uint64_t resumes() const {
    return resumes_.load(std::memory_order_relaxed);
  }
  /// Sessions that shipped a full bootstrap image (fresh follower, pruned
  /// resume position, or implausible hello).
  uint64_t bootstraps() const {
    return bootstraps_.load(std::memory_order_relaxed);
  }

 private:
  struct Session {
    OwnedFd fd;
    std::string name;
    bool resumed = false;
    std::shared_ptr<persist::WalSubscription> sub;
    /// Raw view of `sub` for cross-thread Cancel() from Stop(): the
    /// session thread assigns `sub` mid-handshake without sessions_mu_, so
    /// other threads reach the subscription only through this atomic.
    std::atomic<persist::WalSubscription*> sub_raw{nullptr};
    uint64_t ack_id = 0;  // RegisterAckSource handle; 0 = not registered
    /// Release-published once `name`/`resumed` are final (handshake done);
    /// Followers() reads them only after observing it.
    std::atomic<bool> named{false};
    std::atomic<bool> done{false};
    std::atomic<uint64_t> frames_shipped{0};
    std::atomic<uint64_t> bytes_shipped{0};
    std::atomic<uint64_t> acked_records{0};  // primary record units
    std::atomic<uint32_t> staleness_ms{0};
    std::atomic<int64_t> last_ack_us{0};
    /// (session frame index, primary_records stamp) for live frames, in
    /// ship order; popped as acks arrive. Session thread only.
    std::deque<std::pair<uint64_t, uint64_t>> stamps;
    uint64_t session_frames = 0;  // frames shipped this session
    // Cached per-follower metric cells (nepal.replication.follower.<name>.*),
    // resolved once after the handshake names the session.
    obs::Counter* m_frames = nullptr;
    obs::Counter* m_bytes = nullptr;
    obs::Counter* m_acks = nullptr;
    obs::Gauge* g_connected = nullptr;
    obs::Gauge* g_acked = nullptr;
    obs::Gauge* g_lag = nullptr;
    obs::Gauge* g_staleness = nullptr;
    std::thread thread;
  };

  ReplicationListener(persist::DurableStore& store, SocketAddress address,
                      OwnedFd listen_fd, ListenerOptions options);

  void AcceptLoop(const std::atomic<bool>& stop);
  void RunSession(Session* session);
  /// Reads the follower hello, subscribes (resume or bootstrap) and writes
  /// the mode response. Fills session->name/resumed/sub.
  Status HandshakeSession(Session* session);
  /// Ships buffered frames (bounded batch) and drains pending acks once.
  Status PumpSession(Session* session);
  void ProcessAck(Session* session, uint64_t applied_frames,
                  uint32_t staleness_ms, int64_t now_us);
  void ReapDoneSessionsLocked();

  persist::DurableStore& store_;
  SocketAddress address_;
  OwnedFd listen_fd_;
  ListenerOptions options_;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> sessions_accepted_{0};
  std::atomic<uint64_t> resumes_{0};
  std::atomic<uint64_t> bootstraps_{0};
  mutable std::mutex sessions_mu_;
  std::vector<std::unique_ptr<Session>> sessions_;
  persist::DrainThread accept_;
};

}  // namespace nepal::replication

#endif  // NEPAL_REPLICATION_LISTENER_H_
