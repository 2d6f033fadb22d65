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

// Every extension below checks first and copies last (see ExtendedState):
// a path is built only once all of its cycle checks and its interval
// intersection have passed on the parent state.

void TraverserExecutor::EdgeStep(const PathState& state,
                                 const PathElement& node,
                                 const Interval& valid,
                                 const CompiledAtom& atom, Direction dir,
                                 const TimeView& view, PathSet* out) {
  backend_->IncidentEdges(
      state.frontier, dir == Direction::kOut ? Direction::kOut : Direction::kIn,
      atom.cls, view, [&](const ElementVersion& e) {
        if (!atom.Matches(e)) return;
        const Uid far = dir == Direction::kOut ? e.target : e.source;
        // Neither the edge nor its far endpoint may already appear in the
        // path; the endpoint is materialized by a later step, but the cycle
        // is rejected here.
        if (e.uid == node.uid || far == node.uid || far == e.uid ||
            state.ContainsAny(e.uid, far)) {
          return;
        }
        const Interval iv = valid.Intersect(e.valid);
        if (iv.empty()) return;
        out->push_back(
            ExtendedState(state, node, {e.uid, e.cls}, iv, far, false));
      });
}

void TraverserExecutor::ExtendByEdgeAtom(const PathState& state,
                                         const CompiledAtom& atom,
                                         Direction dir, const TimeView& view,
                                         PathSet* out) {
  if (state.frontier_in_path) {
    EdgeStep(state, {}, state.valid, atom, dir, view, out);
    return;
  }
  // Edge atom right after an edge atom (or on a seed): the implicit,
  // unconstrained node between them is appended with the edge.
  backend_->Get(state.frontier, view, [&](const ElementVersion& v) {
    if (state.Contains(v.uid)) return;
    const Interval iv = state.valid.Intersect(v.valid);
    if (iv.empty()) return;
    EdgeStep(state, {v.uid, v.cls}, iv, atom, dir, view, out);
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
  // unconstrained edge, then match the far node; both are appended at once.
  backend_->IncidentEdges(
      state.frontier, dir == Direction::kOut ? Direction::kOut : Direction::kIn,
      /*edge_cls=*/nullptr, view, [&](const ElementVersion& e) {
        const Uid far = dir == Direction::kOut ? e.target : e.source;
        if (far == e.uid || state.ContainsAny(e.uid, far)) return;
        const Interval iv = state.valid.Intersect(e.valid);
        if (iv.empty()) return;
        backend_->Get(far, view, [&](const ElementVersion& v) {
          if (!atom.Matches(v) || v.uid == e.uid) return;
          const Interval both = iv.Intersect(v.valid);
          if (both.empty()) return;
          out->push_back(ExtendedState(state, {e.uid, e.cls}, {v.uid, v.cls},
                                       both, far, true));
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
