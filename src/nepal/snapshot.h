// LockedExecutor: the operator executor every read evaluates through.
//
// A query never holds a source's lock across its evaluation. Every TimeView
// is pinned to a commit epoch captured up front, which keeps results
// identical to a read of the store at that commit even while writers commit
// underneath. The stores' data structures are plain std containers though,
// so each primitive read still has to exclude writers for its own duration:
// this decorator wraps a backend's executor and takes the db's lock shared
// around every operator call.
//
// Under that lock, a call whose pinned epoch is still the source's commit
// epoch reads with the unpinned view (GraphDb::ReadViewLocked): nothing has
// been written since the pin, so the store is the snapshot and the
// backends' current-version fast paths apply. Calls after a commit read
// the pinned view; both kinds read the pinned state.
//
// Planning reads a source's live statistics, so it holds the same lock
// shared for its own duration (PlanMatchLocked).
//
// Shared by the query engine and the materialized view catalog (initial
// builds and incremental repairs pinned to a repair epoch).

#ifndef NEPAL_NEPAL_SNAPSHOT_H_
#define NEPAL_NEPAL_SNAPSHOT_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nepal/plan.h"
#include "storage/graphdb.h"
#include "storage/pathset.h"

namespace nepal::nql {

/// Forwards one operator call at a time under a brief shared lock of the
/// source's mutex. The executor runs a Loop's rounds itself (one
/// ExtendAtom call per body atom per round, plus a goal-directed Loop's
/// Select/SelectSeeds/ExtendAtom labelling calls), so each round takes the
/// lock on its own and writers interleave between rounds; the pinned view
/// keeps every round at the query's snapshot. ExtendBlock is not
/// overridden: the engine never calls it. The caller must not hold the
/// source's mutex.
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

/// PlanMatch against `db`'s backend, holding its mutex shared for the
/// duration of planning only. The caller must not hold the mutex.
Result<MatchPlan> PlanMatchLocked(storage::GraphDb* db, const RpeNode& rpe,
                                  const PlanOptions& options,
                                  const storage::TimeView& view);

}  // namespace nepal::nql

#endif  // NEPAL_NEPAL_SNAPSHOT_H_
