// ReplicaStore: a warm-standby follower built from a primary's log stream.
//
// Connect() joins a ReplicationListener at a socket address, bootstraps a
// fresh directory from the primary's checkpoint image (written locally
// under the exact file name recovery expects, then restored by
// DurableStore::Open), flips the database read-only, and starts an apply
// thread that tails the stream: each shipped frame is decoded and replayed
// through the public GraphDb API (persist::ApplyWalRecord), which also
// re-logs it into the follower's *own* WAL. That one decision buys two
// properties:
//
//  - the follower is durable in its own right — it can crash, recover
//    from its own directory, and resume (or be promoted) without the
//    primary;
//  - promotion is trivial: stop applying, flip read-only off, cut a
//    checkpoint. The data directory is already a complete primary
//    directory.
//
// The follower owns the whole connection lifecycle:
//
//  - NPLSHP02 handshake carrying the follower's name and last applied
//    position; the primary answers "resume" (stream the missing tail, no
//    image re-ship) while WAL retention covers the position, "bootstrap"
//    otherwise;
//  - an ack after every applied batch, closing the loop for the
//    primary's semi-sync commit and lag accounting;
//  - a reconnect loop with exponential backoff when the stream breaks —
//    the follower rides out primary restarts and resumes where it left
//    off;
//  - re-bootstrap into a fresh generation directory (<dir>/reboot-N) when
//    resume is impossible; the previous generation's store is retired but
//    kept alive so queries racing the swap finish safely, and db()
//    atomically flips to the new generation.
//
// Because replay drives the public API, the follower reproduces uid
// assignment, the transaction clock, cascades and unique-index state
// identically to the primary — on either execution backend, independent
// of the primary's backend. Reads (Current/AsOf/Range via a QueryEngine
// over db()) are answered byte-identically to the primary as of the
// follower's applied position.
//
// ReplicaStore implements nql::ReplicaEndpoint, so it can be attached to
// a QueryEngine's SourceCatalog (AttachReplica) and serve routed reads
// under a bounded-staleness policy.
//
// Replication lag is exported to obs: nepal.replication.applied_records
// (counter), nepal.replication.lag_ms (gauge, last applied frame),
// nepal.replication.apply_lag_ms (histogram), and connection churn under
// nepal.replication.replica.{reconnects,resumes,rebootstraps}.

#ifndef NEPAL_REPLICATION_REPLICA_STORE_H_
#define NEPAL_REPLICATION_REPLICA_STORE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "nepal/source_catalog.h"
#include "persist/drain_thread.h"
#include "persist/durable_store.h"
#include "replication/socket_util.h"
#include "replication/wire.h"

namespace nepal::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace nepal::obs

namespace nepal::replication {

struct ReplicaOptions {
  /// Durability of the follower's own directory (its re-logged WAL).
  persist::DurableOptions durable;
  /// How long one socket poll waits before rechecking for shutdown.
  int poll_interval_ms = 20;
};

struct ConnectOptions {
  ReplicaOptions replica;
  /// The follower's identity in the primary's hello/metrics/`\replication`.
  std::string name = "follower";
  /// Per-attempt connect deadline inside the reconnect loop.
  int connect_timeout_ms = 2000;
  /// Deadline for the initial, synchronous connect in Connect() — the
  /// primary may still be coming up.
  int initial_connect_timeout_ms = 10000;
  /// Exponential reconnect backoff bounds.
  int reconnect_initial_backoff_ms = 50;
  int reconnect_max_backoff_ms = 2000;
};

class ReplicaStore : public nql::ReplicaEndpoint {
 public:
  /// Connects to a ReplicationListener at `address`, bootstraps `dir`
  /// (which must not already hold Nepal data files), and keeps following
  /// across disconnects (resume within WAL retention, re-bootstrap beyond
  /// it). The returned store's db() is immediately queryable at the
  /// bootstrap position.
  static Result<std::unique_ptr<ReplicaStore>> Connect(
      std::string dir, schema::SchemaPtr schema,
      const persist::BackendFactory& factory, const SocketAddress& address,
      ConnectOptions options = {});

  ~ReplicaStore() override;

  /// The current generation's database. Stable for the duration of any
  /// one read (retired generations outlive racing queries), but a
  /// re-bootstrap swaps which database new calls see.
  storage::GraphDb& db() {
    return *db_ptr_.load(std::memory_order_acquire);
  }
  const storage::GraphDb& db() const {
    return *db_ptr_.load(std::memory_order_acquire);
  }
  persist::DurableStore& store() {
    return *store_ptr_.load(std::memory_order_acquire);
  }

  /// Frames applied since Connect (bootstrap images excluded).
  /// Compare with the primary's DurableStore::records_appended() to
  /// measure lag in records.
  uint64_t records_applied() const override {
    return records_applied_.load(std::memory_order_acquire);
  }

  /// OK while the apply loop is running (or stopped by Promote);
  /// kUnavailable while disconnected from the primary; any other error
  /// means replay failed and the follower is frozen at its last good
  /// position.
  Status status() const {
    std::lock_guard<std::mutex> lock(mu_);
    return status_;
  }

  bool promoted() const {
    return promoted_.load(std::memory_order_acquire);
  }

  // --- nql::ReplicaEndpoint ---
  storage::GraphDb& replica_db() override { return db(); }
  /// Milliseconds since the last applied batch or caught-up poll; grows
  /// while disconnected, so a bounded-staleness router naturally stops
  /// reading from a partitioned follower.
  uint32_t staleness_ms() const override;
  /// False once promoted or frozen on a replay error.
  bool serving() const override {
    return !promoted_.load(std::memory_order_acquire) &&
           !fatal_.load(std::memory_order_acquire);
  }

  /// Successful re-handshakes after the initial connection.
  uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }
  /// Sessions that resumed from the retained WAL (no image re-ship).
  uint64_t resumes() const {
    return resumes_.load(std::memory_order_relaxed);
  }
  /// Sessions that re-shipped a full bootstrap image (initial bootstrap
  /// excluded).
  uint64_t rebootstraps() const {
    return rebootstraps_.load(std::memory_order_relaxed);
  }

  /// Points the follower at a different primary (e.g. a freshly promoted
  /// sibling) and breaks the current stream. The next session always
  /// re-bootstraps: the follower's applied position is meaningless against
  /// another primary's WAL.
  void Repoint(const SocketAddress& address);

  /// Decomposed timing of the most recent apply batch that carried a
  /// trace annotation — the follower half of commit-to-visible, keyed by
  /// the primary's trace id (`\replication` renders it; the same
  /// segments are attached as spans to the joined trace). All zero until
  /// a traced frame arrives.
  struct LastTracedApply {
    uint64_t trace_id = 0;  // the primary's trace id
    int64_t wire_us = 0;    // ship -> receive (wall clocks, clamped >= 0)
    uint64_t decode_us = 0;
    uint64_t apply_us = 0;
    uint64_t frames = 0;  // frames in the re-batched apply
  };
  LastTracedApply last_traced_apply() const {
    std::lock_guard<std::mutex> lock(mu_);
    return last_traced_;
  }

  /// Turns the follower into a writable primary: stops the apply loop,
  /// drains nothing further, flips read-only off and cuts a checkpoint so
  /// the promotion point is a clean segment boundary on disk. After this,
  /// db() accepts writes and store() can itself be subscribed to.
  Status Promote();

 private:
  ReplicaStore(std::unique_ptr<persist::DurableStore> store,
               ConnectOptions options);
  /// Opens (or re-opens) a generation directory from a bootstrap hello.
  static Result<std::unique_ptr<persist::DurableStore>> BootstrapGeneration(
      const std::string& dir, const schema::SchemaPtr& schema,
      const persist::BackendFactory& factory,
      const persist::DurableOptions& durable, const wire::HelloV1& hello);
  /// Connection lifecycle: handshake, apply, backoff.
  void ConnectLoop(const std::atomic<bool>& stop);
  /// Sends the follower hello for the current position and consumes the
  /// mode response — re-bootstrapping a new generation when told to.
  Status HandshakeFollower(int fd);
  /// Tails one connected session; returns when the stream breaks (the
  /// status says how) or `stop` is raised (OK).
  Status ApplyStream(const std::atomic<bool>& stop, int fd);
  /// Decodes and applies one re-batched frame group; updates counters,
  /// lag metrics and the traced-apply record.
  Status ApplyFrameBatch(storage::GraphDb& db,
                         const std::vector<persist::WalShipFrame>& frames);
  void TouchProgress();
  /// Joins the primary's trace (newest annotated frame in the batch wins)
  /// and publishes the wire/decode/apply decomposition.
  void RecordTracedApply(const std::vector<persist::WalShipFrame>& frames,
                         int64_t received_us, uint64_t decode_ns,
                         uint64_t apply_ns);

  /// Current generation; swapped only by the drain thread (handshake),
  /// read through the atomics below everywhere else.
  std::unique_ptr<persist::DurableStore> store_;
  /// Generations replaced by a re-bootstrap, kept alive for readers that
  /// raced the swap. Drain thread appends; destructor reaps.
  std::vector<std::unique_ptr<persist::DurableStore>> retired_;
  std::atomic<persist::DurableStore*> store_ptr_{nullptr};
  std::atomic<storage::GraphDb*> db_ptr_{nullptr};

  std::string dir_;
  schema::SchemaPtr schema_;
  persist::BackendFactory factory_;
  ConnectOptions options_;
  SocketAddress address_;     // guarded by mu_ (Repoint)
  bool force_bootstrap_ = false;  // guarded by mu_
  OwnedFd pending_fd_;        // initial connection, consumed by ConnectLoop
  std::atomic<int> live_fd_{-1};  // the in-flight session's socket
  uint64_t generation_ = 1;   // drain thread (and Connect) only
  uint64_t pos_seq_ = 0;      // applied position: segment... (drain only)
  uint64_t pos_records_ = 0;  // ...and frames applied within it

  std::atomic<bool> promoted_{false};
  std::atomic<bool> fatal_{false};
  std::atomic<uint64_t> records_applied_{0};
  std::atomic<int64_t> last_progress_us_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> resumes_{0};
  std::atomic<uint64_t> rebootstraps_{0};
  mutable std::mutex mu_;
  Status status_;
  LastTracedApply last_traced_;
  // Lag metric cells, resolved once at construction.
  obs::Counter* m_applied_ = nullptr;
  obs::Counter* m_skew_ = nullptr;
  obs::Gauge* g_lag_ = nullptr;
  obs::Histogram* h_lag_ = nullptr;
  /// Apply-loop lifecycle (flag → wake → join shutdown ordering). The
  /// bounded socket polls double as the wake-up, so no explicit
  /// wake callback is needed here.
  persist::DrainThread drain_;
};

}  // namespace nepal::replication

#endif  // NEPAL_REPLICATION_REPLICA_STORE_H_
