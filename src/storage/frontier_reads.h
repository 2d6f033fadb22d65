// FrontierReads: the backend reads of one Extend call, grouped by node.
//
// The states of one Extend often share a handful of frontier nodes (a
// repetition round over a small switching core holds thousands of paths
// ending at a few dozen nodes). Both backends' Extend operators read
// through a FrontierReads: each distinct node's visible versions, and for
// the graphstore its incident edges, are read at most once per call, on
// first use, into flat arrays, and every state then runs its own cycle
// checks and interval intersections against those reads. Nodes get dense
// group ids from a storage::PathIndex in first-use order. A FrontierReads
// lives for one call, so an executor keeps no read state between calls,
// and the parallel shards that share one executor share no reads.
//
// In the rounds of a goal-directed Loop, an edge Extend also applies the
// Loop's RoundFilter (storage/pathset.h) through a RoundReads: it prunes
// each child by the goal labels and looks one edge ahead from the child's
// far node, both before the copy. Its own readers read each distinct far
// node once per call. The look-ahead and the next round's Extend run the
// one predicate, EdgeStepValid.

#ifndef NEPAL_STORAGE_FRONTIER_READS_H_
#define NEPAL_STORAGE_FRONTIER_READS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <span>
#include <vector>

#include "storage/backend.h"
#include "storage/pathset.h"

namespace nepal::storage {

class FrontierReads {
 public:
  /// A version of a node visible under the view.
  struct NodeVersion {
    const schema::ClassDef* cls;
    Interval valid;
  };
  /// A visible version of an edge incident to a node, seen from that node:
  /// `far` is the endpoint the step moves to.
  struct Edge {
    Uid uid;
    const schema::ClassDef* cls;
    Uid far;
    Interval valid;
  };

  /// The reads of one Extend by `atom` in `dir` under `view` (the paper's
  /// four-way concatenation decides what each read admits):
  ///  - a node atom admits the node versions it matches and every incident
  ///    edge (the implicit edge of node·node);
  ///  - an edge atom admits every node version (the implicit node of
  ///    edge·edge or of a seed) and the incident edges it matches;
  ///  - a null atom (FinalizeTail) admits every node version and reads no
  ///    edges.
  /// Edges are those leaving the node for kOut, entering it otherwise.
  /// `backend` and `atom` must outlive the reads.
  FrontierReads(const StorageBackend& backend, const CompiledAtom* atom,
                Direction dir, const TimeView& view);
  // The index and the arrays hold the address of the arena.
  FrontierReads(const FrontierReads&) = delete;
  FrontierReads& operator=(const FrontierReads&) = delete;

  /// The group id of `node`, assigned on first use.
  uint32_t Group(Uid node);

  /// The admitted versions of `group`'s node, in the backend's Get order.
  /// The span stays valid until the next Versions call.
  std::span<const NodeVersion> Versions(uint32_t group);

  /// The admitted edges incident to `group`'s node, in the backend's
  /// IncidentEdges order. An edge whose far endpoint is its own uid is
  /// left out: no path can hold both. The span stays valid until the next
  /// Edges call.
  std::span<const Edge> Edges(uint32_t group);

  /// Appends `state` extended by each admitted version of its frontier
  /// node, which is not yet in its path, to `out` as an in-path state;
  /// the cycle check and the interval intersection run on `state` first.
  void AppendFrontierNode(const PathState& state, PathSet* out);

 private:
  static constexpr uint32_t kUnread = UINT32_MAX;
  /// The index and every array start with room for this many entries, so
  /// a call over a lookup's frontier (a few dozen nodes) never regrows
  /// them.
  static constexpr size_t kInitialEntries = 64;

  struct NodeGroup {
    Uid node;
    uint32_t versions_begin = kUnread, versions_end = 0;
    uint32_t edges_begin = kUnread, edges_end = 0;
  };

  const StorageBackend& backend_;
  const CompiledAtom* node_atom_;  // filters node versions when set
  const CompiledAtom* edge_atom_;  // filters incident edges when set
  Direction dir_;
  const TimeView& view_;
  // The index and the flat arrays live in an inline buffer, so a call
  // over a lookup's frontier reads without a heap allocation; a larger one
  // spills to the heap in growing blocks, all freed when the call ends.
  std::array<std::byte, 16384> buffer_;
  std::pmr::monotonic_buffer_resource arena_{buffer_.data(), buffer_.size()};
  PathIndex index_{kInitialEntries, &arena_};
  std::pmr::vector<NodeGroup> groups_{&arena_};  // by group id
  std::pmr::vector<NodeVersion> versions_{&arena_};
  std::pmr::vector<Edge> edges_{&arena_};
};

/// The checks of one edge step, run on the parent before anything is
/// copied: edge `edge` to `far` may extend the path made of `state`'s uids
/// followed by `pending`, the elements the step appends ahead of the edge
/// that `state` does not hold (kInvalidUid for none), when neither the edge
/// nor `far` is in that path. Returns the child's interval, `valid`
/// intersected with `edge_valid`; empty when the step is rejected.
template <size_t N>
Interval EdgeStepValid(const PathState& state,
                       const std::array<Uid, N>& pending,
                       const Interval& valid, Uid edge, Uid far,
                       const Interval& edge_valid) {
  for (Uid u : pending) {
    if (u == edge || u == far) return Interval::None();
  }
  if (state.ContainsAny(edge, far)) return Interval::None();
  return valid.Intersect(edge_valid);
}

/// A goal-directed Loop's RoundFilter as one edge Extend applies it.
class RoundReads {
 public:
  /// `backend` and `filter` must outlive the reads.
  RoundReads(const StorageBackend& backend, const RoundFilter& filter,
             Direction dir, const TimeView& view);

  /// Whether the child that an edge step builds from `state` — appending
  /// `node` (the implicit node; kInvalidUid for none), then `edge`, and
  /// moving to `far` over `valid` — is kept (see RoundFilter). The
  /// look-ahead asks whether some edge of the body's atoms at `far`
  /// passes, for the child and a version of `far`, the checks the next
  /// round's Extend runs: EdgeStepValid.
  bool Keeps(const PathState& state, Uid node, Uid edge, Uid far,
             const Interval& valid);

 private:
  const RoundFilter& filter_;
  // One reader per body atom, apart from the Extend's own: a span from a
  // reader stays valid only until that reader's next Edges call.
  std::vector<std::unique_ptr<FrontierReads>> reads_;
};

}  // namespace nepal::storage

#endif  // NEPAL_STORAGE_FRONTIER_READS_H_
