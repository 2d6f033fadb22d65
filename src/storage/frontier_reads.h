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

#ifndef NEPAL_STORAGE_FRONTIER_READS_H_
#define NEPAL_STORAGE_FRONTIER_READS_H_

#include <array>
#include <cstddef>
#include <cstdint>
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

}  // namespace nepal::storage

#endif  // NEPAL_STORAGE_FRONTIER_READS_H_
