#include "nepal/snapshot.h"

#include <shared_mutex>

namespace nepal::nql {

using storage::PathSet;
using storage::TimeView;

PathSet LockedExecutor::Select(const storage::CompiledAtom& atom,
                               const TimeView& view) {
  std::shared_lock<std::shared_mutex> lock(db_->mutex());
  return inner_->Select(atom, db_->ReadViewLocked(view));
}

PathSet LockedExecutor::SelectSeeds(const std::vector<Uid>& nodes,
                                    const TimeView& view) {
  std::shared_lock<std::shared_mutex> lock(db_->mutex());
  return inner_->SelectSeeds(nodes, db_->ReadViewLocked(view));
}

PathSet LockedExecutor::ExtendAtom(const PathSet& frontier,
                                   const storage::CompiledAtom& atom,
                                   storage::Direction dir,
                                   const TimeView& view) {
  std::shared_lock<std::shared_mutex> lock(db_->mutex());
  return inner_->ExtendAtom(frontier, atom, dir, db_->ReadViewLocked(view));
}

PathSet LockedExecutor::FinalizeTail(const PathSet& frontier,
                                     const TimeView& view) {
  std::shared_lock<std::shared_mutex> lock(db_->mutex());
  return inner_->FinalizeTail(frontier, db_->ReadViewLocked(view));
}

Result<MatchPlan> PlanMatchLocked(storage::GraphDb* db, const RpeNode& rpe,
                                  const PlanOptions& options,
                                  const TimeView& view) {
  std::shared_lock<std::shared_mutex> lock(db->mutex());
  return PlanMatch(rpe, db->backend(), options, view);
}

}  // namespace nepal::nql
