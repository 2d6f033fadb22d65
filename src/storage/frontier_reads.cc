#include "storage/frontier_reads.h"

namespace nepal::storage {

namespace {

/// splitmix64 of a uid: PathIndex probes by the low bits.
uint64_t NodeHash(Uid uid) {
  uint64_t h = static_cast<uint64_t>(uid) + 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

}  // namespace

FrontierReads::FrontierReads(const StorageBackend& backend,
                             const CompiledAtom* atom, Direction dir,
                             const TimeView& view)
    : backend_(backend),
      node_atom_(atom != nullptr && !atom->is_edge() ? atom : nullptr),
      edge_atom_(atom != nullptr && atom->is_edge() ? atom : nullptr),
      dir_(dir),
      view_(view) {
  groups_.reserve(kInitialEntries);
  versions_.reserve(kInitialEntries);
  edges_.reserve(kInitialEntries);
}

uint32_t FrontierReads::Group(Uid node) {
  const auto [id, fresh] = index_.Insert(
      NodeHash(node), [&](uint32_t id) { return groups_[id].node == node; });
  if (fresh) groups_.push_back({node});
  return id;
}

std::span<const FrontierReads::NodeVersion> FrontierReads::Versions(
    uint32_t group) {
  NodeGroup& g = groups_[group];
  if (g.versions_begin == kUnread) {
    g.versions_begin = static_cast<uint32_t>(versions_.size());
    // The sink captures `this` alone, so std::function stores it inline.
    backend_.Get(g.node, view_, [this](const ElementVersion& v) {
      if (node_atom_ == nullptr || node_atom_->Matches(v)) {
        versions_.push_back({v.cls, v.valid});
      }
    });
    g.versions_end = static_cast<uint32_t>(versions_.size());
  }
  return {versions_.data() + g.versions_begin,
          versions_.data() + g.versions_end};
}

std::span<const FrontierReads::Edge> FrontierReads::Edges(uint32_t group) {
  NodeGroup& g = groups_[group];
  if (g.edges_begin == kUnread) {
    g.edges_begin = static_cast<uint32_t>(edges_.size());
    backend_.IncidentEdges(
        g.node, dir_ == Direction::kOut ? Direction::kOut : Direction::kIn,
        edge_atom_ != nullptr ? edge_atom_->cls : nullptr, view_,
        [this](const ElementVersion& e) {
          if (edge_atom_ != nullptr && !edge_atom_->Matches(e)) return;
          const Uid far = dir_ == Direction::kOut ? e.target : e.source;
          if (far != e.uid) edges_.push_back({e.uid, e.cls, far, e.valid});
        });
    g.edges_end = static_cast<uint32_t>(edges_.size());
  }
  return {edges_.data() + g.edges_begin, edges_.data() + g.edges_end};
}

void FrontierReads::AppendFrontierNode(const PathState& state, PathSet* out) {
  if (state.Contains(state.frontier)) return;
  for (const NodeVersion& v : Versions(Group(state.frontier))) {
    const Interval iv = state.valid.Intersect(v.valid);
    if (iv.empty()) continue;
    out->push_back(ExtendedState(state, {}, {state.frontier, v.cls}, iv,
                                 state.frontier, true));
  }
}

RoundReads::RoundReads(const StorageBackend& backend,
                       const RoundFilter& filter, Direction dir,
                       const TimeView& view)
    : filter_(filter) {
  reads_.reserve(filter.atoms.size());
  for (const CompiledAtom& atom : filter.atoms) {
    reads_.push_back(
        std::make_unique<FrontierReads>(backend, &atom, dir, view));
  }
}

bool RoundReads::Keeps(const PathState& state, Uid node, Uid edge, Uid far,
                       const Interval& valid) {
  const int left = filter_.rounds_left;
  const int hops = filter_.hops->Find(far);
  if (hops == 0) return true;  // a goal match
  if (left == 0) return false;
  // The prune: unlabelled (-1) or farther than the rounds left.
  if (left <= filter_.goal_depth && (hops < 0 || hops > left)) return false;
  // The next round appends `far` (a version of it) as the implicit node,
  // then one edge of a body atom.
  const std::array<Uid, 3> pending{node, edge, far};
  for (const std::unique_ptr<FrontierReads>& reads : reads_) {
    const uint32_t group = reads->Group(far);
    for (const FrontierReads::NodeVersion& v : reads->Versions(group)) {
      const Interval at = valid.Intersect(v.valid);
      if (at.empty()) continue;
      for (const FrontierReads::Edge& e : reads->Edges(group)) {
        if (!EdgeStepValid(state, pending, at, e.uid, e.far, e.valid)
                 .empty()) {
          return true;
        }
      }
    }
  }
  return false;
}

}  // namespace nepal::storage
