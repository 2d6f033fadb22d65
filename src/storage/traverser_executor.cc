#include "storage/traverser_executor.h"

namespace nepal::storage {

PathSet TraverserExecutor::Select(const CompiledAtom& atom,
                                  const TimeView& view) {
  PathSet out;
  backend_->Scan(atom.ToScanSpec(), view, [&](const ElementVersion& v) {
    out.push_back(AnchorState(v));
  });
  return out;
}

PathSet TraverserExecutor::SelectSeeds(const std::vector<Uid>& nodes,
                                       const TimeView& /*view*/) {
  // Visibility of a seed is enforced at its first materialization.
  return SeedStates(nodes);
}

PathSet TraverserExecutor::ExtendAtom(const PathSet& frontier,
                                      const CompiledAtom& atom, Direction dir,
                                      const TimeView& view) {
  PathSet out;
  for (const PathState& state : frontier) {
    if (atom.is_edge()) {
      ExtendByEdgeAtom(state, atom, dir, view, &out);
    } else {
      ExtendByNodeAtom(state, atom, dir, view, &out);
    }
  }
  return out;
}

void TraverserExecutor::EdgeStep(const PathState& state,
                                 const CompiledAtom& atom, Direction dir,
                                 const TimeView& view, PathSet* out) {
  backend_->IncidentEdges(
      state.frontier, dir == Direction::kOut ? Direction::kOut : Direction::kIn,
      atom.cls, view, [&](const ElementVersion& e) {
        if (!atom.Matches(e)) return;
        PathState next;
        if (!TryAppendElement(state, e, &next)) return;
        next.frontier = dir == Direction::kOut ? e.target : e.source;
        next.frontier_in_path = false;
        // The far endpoint must not already appear in the path; it will be
        // materialized by a later step, but reject the cycle early.
        if (next.Contains(next.frontier)) return;
        out->push_back(std::move(next));
      });
}

void TraverserExecutor::ExtendByEdgeAtom(const PathState& state,
                                         const CompiledAtom& atom,
                                         Direction dir, const TimeView& view,
                                         PathSet* out) {
  if (state.frontier_in_path) {
    EdgeStep(state, atom, dir, view, out);
    return;
  }
  // Edge atom right after an edge atom (or on a seed): materialize the
  // implicit, unconstrained node between them first.
  backend_->Get(state.frontier, view, [&](const ElementVersion& v) {
    PathState with_node;
    if (!TryAppendElement(state, v, &with_node)) return;
    with_node.frontier = v.uid;
    with_node.frontier_in_path = true;
    EdgeStep(with_node, atom, dir, view, out);
  });
}

void TraverserExecutor::ExtendByNodeAtom(const PathState& state,
                                         const CompiledAtom& atom,
                                         Direction dir, const TimeView& view,
                                         PathSet* out) {
  if (!state.frontier_in_path) {
    // The frontier node itself must satisfy the atom.
    backend_->Get(state.frontier, view, [&](const ElementVersion& v) {
      if (!atom.Matches(v)) return;
      PathState next;
      if (!TryAppendElement(state, v, &next)) return;
      next.frontier = v.uid;
      next.frontier_in_path = true;
      out->push_back(std::move(next));
    });
    return;
  }
  // Node atom right after a node atom: traverse one implicit,
  // unconstrained edge, then match the far node.
  backend_->IncidentEdges(
      state.frontier, dir == Direction::kOut ? Direction::kOut : Direction::kIn,
      /*edge_cls=*/nullptr, view, [&](const ElementVersion& e) {
        Uid far = dir == Direction::kOut ? e.target : e.source;
        if (state.Contains(far)) return;
        PathState with_edge;
        if (!TryAppendElement(state, e, &with_edge)) return;
        backend_->Get(far, view, [&](const ElementVersion& v) {
          if (!atom.Matches(v)) return;
          PathState next;
          if (!TryAppendElement(with_edge, v, &next)) return;
          next.frontier = far;
          next.frontier_in_path = true;
          out->push_back(std::move(next));
        });
      });
}

PathSet TraverserExecutor::FinalizeTail(const PathSet& frontier,
                                        const TimeView& view) {
  PathSet out;
  for (const PathState& state : frontier) {
    if (state.frontier_in_path) {
      out.push_back(state);
      continue;
    }
    // Materialize the implicit final node.
    backend_->Get(state.frontier, view, [&](const ElementVersion& v) {
      PathState next;
      if (!TryAppendElement(state, v, &next)) return;
      next.frontier = v.uid;
      next.frontier_in_path = true;
      out.push_back(std::move(next));
    });
  }
  return out;
}

}  // namespace nepal::storage
