// Snapshot-read decorators (EngineOptions::snapshot_reads, src/views).
//
// In snapshot mode a reader does not hold a source's shared lock across a
// whole evaluation; every TimeView is pinned to a commit epoch captured at
// the start, which keeps results identical to a locked read at capture
// time even while writers commit underneath. The stores' data structures
// are plain std containers though, so each primitive read still has to
// exclude writers for its own duration — these decorators wrap the real
// backend/executor and take the db's lock shared around every call.
//
// Shared by the query engine (snapshot-mode queries) and the materialized
// view catalog (initial builds and incremental repairs pinned to a repair
// epoch).

#ifndef NEPAL_NEPAL_SNAPSHOT_H_
#define NEPAL_NEPAL_SNAPSHOT_H_

#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "storage/backend.h"
#include "storage/graphdb.h"
#include "storage/pathset.h"

namespace nepal::nql {

/// Forwards one operator call at a time under a brief shared lock of the
/// source's mutex. ExtendBlock is forwarded too (not defaulted) so a
/// backend's specialized block implementation runs, under one lock hold.
class LockedExecutor final : public storage::PathOperatorExecutor {
 public:
  LockedExecutor(storage::GraphDb* db,
                 std::unique_ptr<storage::PathOperatorExecutor> inner)
      : db_(db), inner_(std::move(inner)) {}

  storage::PathSet Select(const storage::CompiledAtom& atom,
                          const storage::TimeView& view) override;
  storage::PathSet SelectSeeds(const std::vector<Uid>& nodes,
                               const storage::TimeView& view) override;
  storage::PathSet ExtendAtom(const storage::PathSet& frontier,
                              const storage::CompiledAtom& atom,
                              storage::Direction dir,
                              const storage::TimeView& view) override;
  storage::PathSet ExtendBlock(
      const storage::PathSet& frontier,
      const std::vector<storage::CompiledAtom>& alternatives, int min_rep,
      int max_rep, storage::Direction dir,
      const storage::TimeView& view) override;
  storage::PathSet FinalizeTail(const storage::PathSet& frontier,
                                const storage::TimeView& view) override;
  /// Rendering reads only the schema, so it takes no lock.
  std::vector<std::string> ToSql(const storage::CompiledAtom& atom,
                                 storage::Direction dir,
                                 const storage::TimeView& view, int input,
                                 int output) const override {
    return inner_->ToSql(atom, dir, view, input, output);
  }

 private:
  storage::GraphDb* db_;
  std::unique_ptr<storage::PathOperatorExecutor> inner_;
};

/// Read-only view of a source's backend for snapshot evaluation: reads
/// forward under a brief shared lock, statistics are copied once on first
/// use (so anchor costing works off one stable snapshot; queries that skip
/// planning — e.g. served from a materialized view — never take the source
/// lock at all), and writes fail.
class LockedBackend final : public storage::StorageBackend {
 public:
  explicit LockedBackend(storage::GraphDb* db);

  std::string name() const override { return inner_->name(); }

  Status InsertNode(Uid, const schema::ClassDef*, std::vector<Value>,
                    Timestamp) override {
    return WriteRejected();
  }
  Status InsertEdge(Uid, const schema::ClassDef*, std::vector<Value>, Uid, Uid,
                    Timestamp) override {
    return WriteRejected();
  }
  Status Update(Uid, const std::vector<std::pair<int, Value>>&,
                Timestamp) override {
    return WriteRejected();
  }
  Status Delete(Uid, Timestamp) override { return WriteRejected(); }
  Status RestoreChain(Uid, std::vector<storage::ElementVersion>) override {
    return WriteRejected();
  }

  void Scan(const storage::ScanSpec& spec, const storage::TimeView& view,
            const storage::ElementSink& sink) const override;
  void Get(Uid uid, const storage::TimeView& view,
           const storage::ElementSink& sink) const override;
  void IncidentEdges(Uid node, storage::Direction dir,
                     const schema::ClassDef* edge_cls,
                     const storage::TimeView& view,
                     const storage::ElementSink& sink) const override;
  bool Exists(Uid uid, const storage::TimeView& view) const override;
  size_t CountClass(const schema::ClassDef* cls) const override;
  size_t MemoryUsage() const override;
  size_t VersionCount() const override;

  /// Copies the source's statistics under a brief shared lock the first
  /// time a planner asks; concurrent shards race through call_once.
  const stats::GraphStats& stats() const override;

  std::unique_ptr<storage::PathOperatorExecutor> CreateExecutor()
      const override;

 private:
  Status WriteRejected() const {
    return Status::Internal("snapshot-read backend is read-only");
  }

  storage::GraphDb* db_;
  const storage::StorageBackend* inner_;
  mutable std::once_flag stats_once_;
};

}  // namespace nepal::nql

#endif  // NEPAL_NEPAL_SNAPSHOT_H_
