#include "storage/traverser_executor.h"

#include <array>
#include <optional>

namespace nepal::storage {

namespace {

// Every extension below checks first and copies last (see ExtendedState):
// a path is built only once all of its cycle checks and its interval
// intersection have passed on the parent state.

/// The edge-matching step from `state`'s frontier node over `edges`.
/// `node` is that node when the step also appends it (the implicit node of
/// edge·edge or of a seed), no element when it is already in the path;
/// `valid` is `state.valid`, narrowed by `node`. In a goal-directed Loop's
/// round, `round` drops the children the Loop cannot use.
void EdgeStep(const PathState& state, const PathElement& node,
              const Interval& valid, std::span<const FrontierReads::Edge> edges,
              RoundReads* round, PathSet* out) {
  for (const FrontierReads::Edge& e : edges) {
    // Neither the edge nor its far endpoint may already appear in the
    // path; the endpoint is materialized by a later step, but the cycle is
    // rejected here.
    const Interval iv = EdgeStepValid(state, std::array{node.uid}, valid,
                                      e.uid, e.far, e.valid);
    if (iv.empty()) continue;
    if (round != nullptr && !round->Keeps(state, node.uid, e.uid, e.far, iv)) {
      continue;
    }
    out->push_back(
        ExtendedState(state, node, {e.uid, e.cls}, iv, e.far, false));
  }
}

void ExtendByEdgeAtom(const PathState& state, FrontierReads& reads,
                      RoundReads* round, PathSet* out) {
  const uint32_t group = reads.Group(state.frontier);
  if (state.frontier_in_path) {
    EdgeStep(state, {}, state.valid, reads.Edges(group), round, out);
    return;
  }
  // Edge atom right after an edge atom (or on a seed): the implicit,
  // unconstrained node between them is appended with the edge.
  if (state.Contains(state.frontier)) return;
  for (const FrontierReads::NodeVersion& v : reads.Versions(group)) {
    const Interval iv = state.valid.Intersect(v.valid);
    if (iv.empty()) continue;
    EdgeStep(state, {state.frontier, v.cls}, iv, reads.Edges(group), round,
             out);
  }
}

void ExtendByNodeAtom(const PathState& state, FrontierReads& reads,
                      PathSet* out) {
  if (!state.frontier_in_path) {
    // The frontier node itself must satisfy the atom.
    reads.AppendFrontierNode(state, out);
    return;
  }
  // Node atom right after a node atom: traverse one implicit,
  // unconstrained edge, then match the far node; both are appended at once.
  const uint32_t group = reads.Group(state.frontier);
  for (const FrontierReads::Edge& e : reads.Edges(group)) {
    if (state.ContainsAny(e.uid, e.far)) continue;
    const Interval iv = state.valid.Intersect(e.valid);
    if (iv.empty()) continue;
    for (const FrontierReads::NodeVersion& v :
         reads.Versions(reads.Group(e.far))) {
      const Interval both = iv.Intersect(v.valid);
      if (both.empty()) continue;
      out->push_back(ExtendedState(state, {e.uid, e.cls}, {e.far, v.cls},
                                   both, e.far, true));
    }
  }
}

}  // namespace

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
  FrontierReads reads(*backend_, &atom, dir, view);
  std::optional<RoundReads> round;
  if (atom.round_filter != nullptr) {
    round.emplace(*backend_, *atom.round_filter, dir, view);
  }
  for (const PathState& state : frontier) {
    if (atom.is_edge()) {
      ExtendByEdgeAtom(state, reads, round ? &*round : nullptr, &out);
    } else {
      ExtendByNodeAtom(state, reads, &out);
    }
  }
  return out;
}

PathSet TraverserExecutor::FinalizeTail(const PathSet& frontier,
                                        const TimeView& view) {
  PathSet out;
  // Materializes the implicit final node of every state not yet closed.
  FrontierReads reads(*backend_, nullptr, Direction::kOut, view);
  for (const PathState& state : frontier) {
    if (state.frontier_in_path) {
      out.push_back(state);
    } else {
      reads.AppendFrontierNode(state, &out);
    }
  }
  return out;
}

}  // namespace nepal::storage
