// TraverserExecutor: the step-wise operator executor.
//
// Evaluates Select/Extend over a StorageBackend one traverser (path state)
// at a time, the way the paper's Gremlin target executes: each Extend step
// walks adjacency from every frontier element. The traversers of one
// Extend share its reads (storage/frontier_reads.h): each distinct frontier
// node's versions and incident edges are read once per call, and each
// traverser then extends against them in turn. In a goal-directed Loop's
// round, the edge step applies the atom's RoundFilter to every child
// before it copies the parent: it prunes by the goal labels and looks one
// edge ahead from the child's far node. Backends with a bulk execution
// strategy (the relational engine) provide their own PathOperatorExecutor
// instead.

#ifndef NEPAL_STORAGE_TRAVERSER_EXECUTOR_H_
#define NEPAL_STORAGE_TRAVERSER_EXECUTOR_H_

#include "storage/backend.h"
#include "storage/frontier_reads.h"
#include "storage/pathset.h"

namespace nepal::storage {

class TraverserExecutor : public PathOperatorExecutor {
 public:
  /// `backend` must outlive the executor.
  explicit TraverserExecutor(const StorageBackend* backend)
      : backend_(backend) {}

  PathSet Select(const CompiledAtom& atom, const TimeView& view) override;
  PathSet SelectSeeds(const std::vector<Uid>& nodes,
                      const TimeView& view) override;
  PathSet ExtendAtom(const PathSet& frontier, const CompiledAtom& atom,
                     Direction dir, const TimeView& view) override;
  PathSet FinalizeTail(const PathSet& frontier, const TimeView& view) override;

 private:
  const StorageBackend* backend_;
};

}  // namespace nepal::storage

#endif  // NEPAL_STORAGE_TRAVERSER_EXECUTOR_H_
