// TraverserExecutor: the step-wise operator executor.
//
// Evaluates Select/Extend over a StorageBackend one traverser (path state)
// at a time, the way the paper's Gremlin target executes: each Extend step
// walks adjacency from every frontier element. Backends with a bulk
// execution strategy (the relational engine) provide their own
// PathOperatorExecutor instead.

#ifndef NEPAL_STORAGE_TRAVERSER_EXECUTOR_H_
#define NEPAL_STORAGE_TRAVERSER_EXECUTOR_H_

#include "storage/backend.h"
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
  void ExtendByEdgeAtom(const PathState& state, const CompiledAtom& atom,
                        Direction dir, const TimeView& view, PathSet* out);
  void ExtendByNodeAtom(const PathState& state, const CompiledAtom& atom,
                        Direction dir, const TimeView& view, PathSet* out);
  /// Runs the edge-matching step from `state`'s frontier node. `node` is
  /// that node when the step also appends it (the implicit node of
  /// edge·edge or of a seed), no element when it is already in the path;
  /// `valid` is `state.valid`, narrowed by `node`.
  void EdgeStep(const PathState& state, const PathElement& node,
                const Interval& valid, const CompiledAtom& atom,
                Direction dir, const TimeView& view, PathSet* out);

  const StorageBackend* backend_;
};

}  // namespace nepal::storage

#endif  // NEPAL_STORAGE_TRAVERSER_EXECUTOR_H_
