// GraphDb: the graph data management layer.
//
// Sits between applications/loaders and a StorageBackend. Responsibilities
// (Section 3.1 of the paper):
//  - schema validation of every insert/update (strong typing),
//  - allowed-edge enforcement (graph schema),
//  - uid allocation and the global uniqueness constraint,
//  - unique-field constraints,
//  - the transaction-time clock (monotone; settable for replay loads),
//  - cascade of node removal onto incident edges.

#ifndef NEPAL_STORAGE_GRAPHDB_H_
#define NEPAL_STORAGE_GRAPHDB_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/status.h"
#include "schema/record.h"
#include "schema/schema.h"
#include "storage/backend.h"
#include "storage/write_log.h"

namespace nepal::storage {

/// One deferred write for GraphDb::ApplyBatch. Built via the factory
/// functions; `uid` is an input for Update/Remove and an output (the
/// assigned uid) for AddNode/AddEdge. `forced_uid` pins the allocator the
/// way SyncNextUid does, for WAL replay reproducing original uids.
struct Mutation {
  enum class Kind : uint8_t { kSetTime, kAddNode, kAddEdge, kUpdate, kRemove };

  Kind kind = Kind::kSetTime;
  Timestamp time = 0;             // kSetTime
  std::string class_name;         // kAddNode / kAddEdge
  schema::FieldValues fields;     // kAddNode / kAddEdge / kUpdate
  Uid source = 0;                 // kAddEdge
  Uid target = 0;                 // kAddEdge
  Uid uid = 0;                    // in: kUpdate/kRemove; out: adds
  Uid forced_uid = 0;             // adds: 0 = allocate, else pin allocator
  /// kUpdate replay path: pre-validated (field index, value) changes from a
  /// WAL record, applied verbatim instead of re-validating `fields`.
  std::vector<std::pair<int, Value>> raw_changes;
  bool use_raw_changes = false;

  static Mutation SetTime(Timestamp t) {
    Mutation m;
    m.kind = Kind::kSetTime;
    m.time = t;
    return m;
  }
  static Mutation AddNode(std::string class_name, schema::FieldValues fields) {
    Mutation m;
    m.kind = Kind::kAddNode;
    m.class_name = std::move(class_name);
    m.fields = std::move(fields);
    return m;
  }
  static Mutation AddEdge(std::string class_name, Uid source, Uid target,
                          schema::FieldValues fields) {
    Mutation m;
    m.kind = Kind::kAddEdge;
    m.class_name = std::move(class_name);
    m.source = source;
    m.target = target;
    m.fields = std::move(fields);
    return m;
  }
  static Mutation Update(Uid uid, schema::FieldValues fields) {
    Mutation m;
    m.kind = Kind::kUpdate;
    m.uid = uid;
    m.fields = std::move(fields);
    return m;
  }
  static Mutation Remove(Uid uid) {
    Mutation m;
    m.kind = Kind::kRemove;
    m.uid = uid;
    return m;
  }
};

class GraphDb {
 public:
  GraphDb(schema::SchemaPtr schema, std::unique_ptr<StorageBackend> backend);

  const schema::Schema& schema() const { return *schema_; }
  schema::SchemaPtr schema_ptr() const { return schema_; }
  StorageBackend& backend() { return *backend_; }
  const StorageBackend& backend() const { return *backend_; }

  // ---- Transaction-time clock ----

  /// Transaction time the next write will carry. Starts at
  /// 2017-01-01 00:00:00 and only moves when SetTime advances it, so all
  /// writes of one batch (e.g. one snapshot diff) share an instant.
  Timestamp Now() const {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return now_;
  }
  /// Moves the clock forward (replay loading). Rejects going backwards.
  Status SetTime(Timestamp t);

  // ---- Write API ----

  /// Inserts a node of class `class_name`; returns its uid.
  Result<Uid> AddNode(const std::string& class_name,
                      const schema::FieldValues& fields);
  /// Inserts an edge from `source` to `target`; both endpoints must
  /// currently exist and the edge must be permitted by an allow rule.
  Result<Uid> AddEdge(const std::string& class_name, Uid source, Uid target,
                      const schema::FieldValues& fields);
  /// Updates fields of a currently-existing element (new version opens).
  Status UpdateElement(Uid uid, const schema::FieldValues& fields);
  /// Deletes an element; deleting a node cascades to its incident edges.
  Status RemoveElement(Uid uid);

  /// Applies N mutations as one atomic group commit: the writer lock is
  /// taken once, every mutation is validated against an overlay of the
  /// batch's own effects BEFORE anything is applied (so a mid-batch
  /// validation failure leaves no partial state), all mutations share one
  /// transaction-time instant per SetTime and one commit epoch (snapshot
  /// readers see all of the batch or none of it), and the WAL receives the
  /// whole batch as one frame group — at most one fsync per batch. Assigned
  /// uids are written back into the adds' `uid` fields.
  Status ApplyBatch(std::span<Mutation> muts);

  /// Looks up the current version of an element by uid.
  Result<ElementVersion> GetCurrent(Uid uid) const;

  // ---- Snapshot epochs ----

  /// Epoch of the latest published commit. Monotone; safe to read without
  /// mutex(). A TimeView pinned to this value (TimeView::WithEpoch) sees
  /// exactly the state the store held at capture time, even while later
  /// writers mutate it — provided each backend probe holds mutex() shared
  /// for its own duration (nql::LockedExecutor does, per operator call).
  uint64_t commit_epoch() const {
    return commit_epoch_.load(std::memory_order_acquire);
  }

  /// The view a probe under mutex() (held shared) should read: `view`
  /// without its epoch when no commit has published past the pin, `view`
  /// itself otherwise. Writers apply and publish under the exclusive lock,
  /// so at the head the store *is* the snapshot, and the unpinned view
  /// keeps the backends' current-version fast paths.
  TimeView ReadViewLocked(const TimeView& view) const {
    return view.has_epoch() && commit_epoch() <= view.epoch()
               ? view.WithEpoch(0)
               : view;
  }

  size_t node_count() const {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return node_count_;
  }
  size_t edge_count() const {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return edge_count_;
  }

  // ---- Durability (see src/persist) ----

  /// Attaches (or detaches, with nullptr) a write-ahead log. Every
  /// subsequent successful write appends a logical record before the
  /// writer lock is released, so the log carries commits in order. A
  /// failed append is returned to the writer as an error; the in-memory
  /// write has already been applied, so the session should be treated as
  /// no longer durable past that point.
  void set_write_log(WriteLog* log) {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    write_log_ = log;
  }
  WriteLog* write_log() const {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return write_log_;
  }

  // ---- Replica protection (see src/replication) ----

  /// While read-only, every write method fails with kReadOnly unless the
  /// calling thread holds a ReplayScope. A warm-standby follower flips
  /// this on so stray writers cannot diverge it from the primary; only the
  /// replication apply path (which replays shipped WAL records through the
  /// public API) may mutate it. Promotion flips it back off.
  void set_read_only(bool read_only) {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    read_only_ = read_only;
  }
  bool read_only() const {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return read_only_;
  }

  /// Marks the calling thread as the replication/recovery replay thread
  /// for the scope's lifetime, letting its writes through a read-only
  /// database. One replay thread at a time (the apply loop is single-
  /// threaded); scopes do not nest across threads.
  class ReplayScope {
   public:
    explicit ReplayScope(GraphDb& db) : db_(db) {
      db_.replay_thread_.store(std::this_thread::get_id(),
                               std::memory_order_release);
    }
    ~ReplayScope() {
      db_.replay_thread_.store(std::thread::id(), std::memory_order_release);
    }
    ReplayScope(const ReplayScope&) = delete;
    ReplayScope& operator=(const ReplayScope&) = delete;

   private:
    GraphDb& db_;
  };

  /// WAL-replay support: forces the uid allocator so replay reproduces the
  /// original uid sequence (failed writes consumed uids the log never saw).
  /// Rejects moving backwards — a logged uid below the allocator means the
  /// log does not belong to this database state.
  Status SyncNextUid(Uid uid);

  /// Checkpoint-restore support: called on a freshly constructed GraphDb
  /// after the backend has been repopulated (StorageBackend::RestoreChain).
  /// Rebuilds the unique index and node/edge counters from the backend's
  /// current snapshot and forces the clock and uid allocator.
  Status AdoptRecoveredState(Timestamp now, Uid next_uid);

  /// Clock / uid-allocator reads for callers already holding mutex()
  /// shared (the checkpoint writer spans one shared-lock scope over these
  /// and its backend scans). All other callers use Now().
  Timestamp NowLocked() const { return now_; }
  Uid NextUidLocked() const { return next_uid_; }

  // ---- Concurrency ----

  /// Guards the backend and all GraphDb bookkeeping: every write method
  /// takes it exclusively. Readers hold it shared around each backend probe
  /// — a planner reading statistics, one operator call, one field lookup —
  /// and pin their views to a commit epoch for consistency across probes.
  /// std::shared_mutex is not recursive: do not lock it around GraphDb's
  /// own methods (they lock internally), and hold it across no call that
  /// may take it again.
  std::shared_mutex& mutex() const { return mutex_; }

 private:
  /// Class the unique field at layout index `idx` was declared on.
  static const schema::ClassDef* DeclaringClass(const schema::ClassDef* cls,
                                                int idx);
  Status CheckAndIndexUniques(const schema::ClassDef* cls,
                              const std::vector<Value>& row, Uid uid);
  void DropUniques(const ElementVersion& v);
  /// GetCurrent body without locking, for use inside write methods that
  /// already hold `mutex_` exclusively.
  Result<ElementVersion> GetCurrentLocked(Uid uid) const;
  /// Rejects writes on a read-only replica unless the calling thread holds
  /// a ReplayScope. Caller holds `mutex_` exclusively.
  Status CheckWritableLocked() const;

  // Write bodies shared by the single-op API and ApplyBatch. All assume
  // `mutex_` is held exclusively and the backend's write epoch is set;
  // `row`/`changes` are already schema-validated. WAL records for the
  // mutation are appended to `*wal` (only when a write log is attached);
  // the caller ships them — one Append per single op, one AppendBatch per
  // batch.
  Status SetTimeLocked(Timestamp t, std::vector<WalRecord>* wal);
  Result<Uid> AddNodeLocked(const schema::ClassDef* cls,
                            std::vector<Value> row, Uid forced_uid,
                            std::vector<WalRecord>* wal);
  Result<Uid> AddEdgeLocked(const schema::ClassDef* cls, Uid source,
                            Uid target, std::vector<Value> row,
                            Uid forced_uid, std::vector<WalRecord>* wal);
  Status UpdateElementLocked(Uid uid,
                             const std::vector<std::pair<int, Value>>& changes,
                             std::vector<WalRecord>* wal);
  Status RemoveElementLocked(Uid uid, std::vector<WalRecord>* wal);
  /// Allocates the next uid, honoring a replay-forced value (SyncNextUid
  /// semantics). Caller holds `mutex_` exclusively.
  Result<Uid> AllocateUidLocked(Uid forced_uid);
  /// Ships collected WAL records for a single-op write (one Append each).
  Status AppendWalLocked(const std::vector<WalRecord>& wal);

  mutable std::shared_mutex mutex_;
  schema::SchemaPtr schema_;
  std::unique_ptr<StorageBackend> backend_;
  WriteLog* write_log_ = nullptr;
  bool read_only_ = false;
  std::atomic<std::thread::id> replay_thread_{};
  Timestamp now_;
  Uid next_uid_ = 1;
  /// Latest published commit epoch. Writers stamp versions with
  /// commit_epoch_ + 1 under the exclusive lock and publish (store-release)
  /// once the whole write — the whole batch — is applied. Starts at 1 so a
  /// freshly opened database has a valid snapshot epoch and 0 can mean
  /// "no epoch" in TimeView.
  std::atomic<uint64_t> commit_epoch_{1};
  size_t node_count_ = 0;
  size_t edge_count_ = 0;
  /// (declaring class order, field index, value) -> uid.
  std::map<std::tuple<int, int, Value>, Uid> unique_index_;
};

}  // namespace nepal::storage

#endif  // NEPAL_STORAGE_GRAPHDB_H_
