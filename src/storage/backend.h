// StorageBackend: the retargetable seam.
//
// The paper's Nepal translates queries to Gremlin or PostgreSQL; this repo
// implements the same architecture with two in-process engines behind this
// interface (src/graphstore mirrors the Gremlin strategy, src/relational the
// Postgres one). The query translator produces a backend-neutral operator
// DAG (nepal/plan.h); each backend supplies a PathOperatorExecutor (see
// storage/pathset.h) that evaluates Select, SelectSeeds, Extend and
// Finalize with its own physical strategy, plus the primitive reads
// declared here. Union and repetition rounds are the executor's
// (nepal/executor.h), built from those operators.

#ifndef NEPAL_STORAGE_BACKEND_H_
#define NEPAL_STORAGE_BACKEND_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "stats/stats.h"
#include "storage/element.h"

namespace nepal::storage {

class PathOperatorExecutor;

class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// "graphstore" or "relational".
  virtual std::string name() const = 0;

  // ---- Write path (called by GraphDb with monotone transaction times) ----

  /// Commit epoch the next write belongs to. GraphDb sets it under the
  /// writer lock before calling the write methods below; backends stamp
  /// every version they open/close with it so epoch-pinned TimeViews can
  /// reconstruct the store as of any published commit (see
  /// TimeView::WithEpoch). One ApplyBatch shares a single epoch, which is
  /// what makes a batch all-or-nothing for readers.
  void set_write_epoch(uint64_t epoch) { write_epoch_ = epoch; }
  uint64_t write_epoch() const { return write_epoch_; }

  /// Opens a new node version valid from `t`.
  virtual Status InsertNode(Uid uid, const schema::ClassDef* cls,
                            std::vector<Value> row, Timestamp t) = 0;
  virtual Status InsertEdge(Uid uid, const schema::ClassDef* cls,
                            std::vector<Value> row, Uid source, Uid target,
                            Timestamp t) = 0;
  /// Closes the current version at `t` and opens a new one with the given
  /// (field index, value) changes applied.
  virtual Status Update(Uid uid,
                        const std::vector<std::pair<int, Value>>& changes,
                        Timestamp t) = 0;
  /// Closes the current version at `t` (the element stops existing).
  virtual Status Delete(Uid uid, Timestamp t) = 0;

  // ---- Read path ----

  /// Emits every version admitted by `view` that matches `spec`.
  virtual void Scan(const ScanSpec& spec, const TimeView& view,
                    const ElementSink& sink) const = 0;

  /// Emits the version(s) of one element admitted by `view`.
  virtual void Get(Uid uid, const TimeView& view,
                   const ElementSink& sink) const = 0;

  /// Emits edge versions incident to `node` admitted by `view`;
  /// kOut = edges with source == node. `edge_cls` (nullable) restricts to a
  /// class subtree.
  virtual void IncidentEdges(Uid node, Direction dir,
                             const schema::ClassDef* edge_cls,
                             const TimeView& view,
                             const ElementSink& sink) const = 0;

  /// True if a current version of `uid` exists (or existed under `view`).
  virtual bool Exists(Uid uid, const TimeView& view) const = 0;

  // ---- Statistics (anchor costing; "database statistics if available,
  //      otherwise schema hints") ----

  /// Current-snapshot cardinality of a class subtree.
  virtual size_t CountClass(const schema::ClassDef* cls) const = 0;

  /// Estimated number of rows a scan would emit. Implemented once here from
  /// the maintained statistics so both backends cost identically for
  /// identical data: exact per-value counters when available, schema hints
  /// (unique -> 1, equality -> ~10% of the class) otherwise.
  double EstimateScan(const ScanSpec& spec) const;

  /// Incrementally maintained statistics (cardinalities, degrees, value
  /// counters, history depth). Backends update them on every write, so a
  /// planner reads them under GraphDb::mutex() held shared.
  const stats::GraphStats& stats() const { return stats_; }

  // ---- Durability (checkpoint restore; see src/persist) ----

  /// Rebuilds one element's full version chain on a freshly constructed
  /// backend. `chain` is ordered by version start time, versions are
  /// pairwise disjoint, and at most the last one is open. Statistics are
  /// NOT maintained by this call — a checkpoint restores them wholesale via
  /// RestoreStats, which is what lets a cold start skip re-deriving stats
  /// from every element. Chains must be restored in ascending uid order so
  /// physical iteration orders match the original insertion order.
  virtual Status RestoreChain(Uid uid, std::vector<ElementVersion> chain) = 0;

  /// Called once after the last RestoreChain of a recovery. Backends whose
  /// physical iteration order is not a pure function of uid order (the
  /// relational store's current tables reflect update history: an UPDATE
  /// retires the old row and appends the new one) use this to re-establish
  /// the order live execution would have produced, so a restored database
  /// answers queries byte-identically to the original.
  virtual Status FinishRestore() { return Status::OK(); }

  /// Installs statistics deserialized from a checkpoint (pairs with
  /// RestoreChain, which deliberately skips stats maintenance).
  void RestoreStats(stats::GraphStats s) { stats_ = std::move(s); }

  /// Approximate resident bytes (storage-overhead experiments).
  virtual size_t MemoryUsage() const = 0;

  /// Number of stored versions (current + history) with a non-empty
  /// interval; zero-length versions are not counted.
  virtual size_t VersionCount() const = 0;

  // ---- Retargeting ----

  /// The operator executor evaluating pathway plans against this backend.
  /// The default is the step-wise TraverserExecutor; backends with a bulk
  /// execution strategy override this.
  virtual std::unique_ptr<PathOperatorExecutor> CreateExecutor() const;

 protected:
  StorageBackend() = default;
  explicit StorageBackend(const schema::Schema* schema) : stats_(schema) {}

  stats::GraphStats stats_;
  uint64_t write_epoch_ = 0;
};

}  // namespace nepal::storage

#endif  // NEPAL_STORAGE_BACKEND_H_
