#include "storage/pathset.h"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <utility>

namespace nepal::storage {

namespace {

/// One round of the identity hash: folds `v` into `h`.
uint64_t HashStep(uint64_t h, uint64_t v) {
  h ^= v * 0x9e3779b97f4a7c15ull;
  h = (h << 27) | (h >> 37);
  return h * 0xc2b2ae3d27d4eb4full + 0x165667b19e3779f9ull;
}

/// The canonical order CanonicalizePaths documents.
bool CanonicalLess(const PathState& a, const PathState& b) {
  auto [ia, ib] =
      std::mismatch(a.uids.begin(), a.uids.end(), b.uids.begin(), b.uids.end());
  if (ia != a.uids.end() || ib != b.uids.end()) {
    if (ia == a.uids.end()) return true;
    if (ib == b.uids.end()) return false;
    return *ia < *ib;
  }
  if (a.frontier != b.frontier) return a.frontier < b.frontier;
  if (a.frontier_in_path != b.frontier_in_path) return !a.frontier_in_path;
  if (a.valid.start != b.valid.start) return a.valid.start < b.valid.start;
  return a.valid.end < b.valid.end;
}

void AppendMoved(PathSet* from, PathSet* to) {
  to->insert(to->end(), std::make_move_iterator(from->begin()),
             std::make_move_iterator(from->end()));
}

}  // namespace

bool FieldCondition::Eval(const ElementVersion& v) const {
  int cmp;
  if (field_index < 0) {
    // `id` pseudo-field.
    int64_t uid = static_cast<int64_t>(v.uid);
    cmp = Value(uid).Compare(value);
  } else {
    const Value* field = &v.fields[static_cast<size_t>(field_index)];
    // Structured-data access: walk composite members / map keys.
    for (const std::string& key : subpath) {
      if (field->kind() != ValueKind::kMap) return false;
      const ValueMap& map = field->AsMap();
      auto it = map.find(key);
      if (it == map.end()) return false;
      field = &it->second;
    }
    if (field->is_null()) return false;  // null satisfies no comparison
    cmp = field->Compare(value);
  }
  switch (op) {
    case Op::kEq:
      return cmp == 0;
    case Op::kNe:
      return cmp != 0;
    case Op::kLt:
      return cmp < 0;
    case Op::kLe:
      return cmp <= 0;
    case Op::kGt:
      return cmp > 0;
    case Op::kGe:
      return cmp >= 0;
  }
  return false;
}

std::string FieldCondition::ToString() const {
  const char* op_str = "=";
  switch (op) {
    case Op::kEq:
      op_str = "=";
      break;
    case Op::kNe:
      op_str = "<>";
      break;
    case Op::kLt:
      op_str = "<";
      break;
    case Op::kLe:
      op_str = "<=";
      break;
    case Op::kGt:
      op_str = ">";
      break;
    case Op::kGe:
      op_str = ">=";
      break;
  }
  std::string path = field_index < 0 ? std::string("id") : field_name;
  for (const std::string& key : subpath) path += "." + key;
  return path + op_str + value.ToString();
}

bool CompiledAtom::Matches(const ElementVersion& v) const {
  if (!v.cls->IsSubclassOf(cls)) return false;
  for (const FieldCondition& cond : conditions) {
    if (!cond.Eval(v)) return false;
  }
  return true;
}

ScanSpec CompiledAtom::ToScanSpec() const {
  ScanSpec spec;
  spec.cls = cls;
  std::vector<FieldCondition> residual;
  auto pushable_eq = [](const FieldCondition& cond) {
    return cond.op == FieldCondition::Op::kEq && cond.field_index >= 0 &&
           cond.subpath.empty();
  };
  // The optimizer may have chosen which equality to push (the most
  // selective one); otherwise the first pushable equality wins.
  const FieldCondition* chosen = nullptr;
  if (pushdown_condition >= 0 &&
      static_cast<size_t>(pushdown_condition) < conditions.size() &&
      pushable_eq(conditions[static_cast<size_t>(pushdown_condition)])) {
    chosen = &conditions[static_cast<size_t>(pushdown_condition)];
  }
  for (const FieldCondition& cond : conditions) {
    if (cond.op == FieldCondition::Op::kEq && cond.field_index < 0 &&
        !spec.uid && cond.value.kind() == ValueKind::kInt &&
        cond.value.AsInt() >= 0) {
      spec.uid = static_cast<Uid>(cond.value.AsInt());
      continue;
    }
    if (pushable_eq(cond) && !spec.eq &&
        (chosen == nullptr || chosen == &cond)) {
      spec.eq = std::make_pair(cond.field_index, cond.value);
      continue;
    }
    residual.push_back(cond);
  }
  if (!residual.empty()) {
    spec.filter = [residual](const ElementVersion& v) {
      for (const FieldCondition& cond : residual) {
        if (!cond.Eval(v)) return false;
      }
      return true;
    };
  }
  return spec;
}

std::string CompiledAtom::ToString() const {
  std::string out = cls->name() + "(";
  for (size_t i = 0; i < conditions.size(); ++i) {
    if (i > 0) out += ", ";
    out += conditions[i].ToString();
  }
  out += ")";
  return out;
}

void PathState::Reverse() {
  std::reverse(uids.begin(), uids.end());
  std::reverse(concepts.begin(), concepts.end());
  std::swap(frontier, head_frontier);
  std::swap(frontier_in_path, head_in_path);
}

uint64_t PathState::IdentityHash() const {
  uint64_t h = HashStep(0, uids.size());
  for (Uid u : uids) h = HashStep(h, u);
  h = HashStep(h, frontier);
  h = HashStep(h, static_cast<uint64_t>(frontier_in_path));
  h = HashStep(h, static_cast<uint64_t>(valid.start));
  h = HashStep(h, static_cast<uint64_t>(valid.end));
  // splitmix64 finalizer: PathIndex probes by the low bits.
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

bool PathState::SameIdentity(const PathState& other) const {
  return frontier == other.frontier &&
         frontier_in_path == other.frontier_in_path &&
         valid.start == other.valid.start && valid.end == other.valid.end &&
         uids == other.uids;
}

std::string PathState::ToString() const {
  std::string out = "[";
  for (size_t i = 0; i < uids.size(); ++i) {
    if (i > 0) out += ", ";
    out += concepts[i]->name() + "#" + std::to_string(uids[i]);
  }
  out += "]";
  if (!frontier_in_path && frontier != kInvalidUid) {
    out += "~>" + std::to_string(frontier);
  }
  return out;
}

PathState AnchorState(const ElementVersion& v) {
  PathState state;
  state.uids.push_back(v.uid);
  state.concepts.push_back(v.cls);
  state.valid = v.valid;
  if (v.is_edge()) {
    state.frontier = v.target;
    state.frontier_in_path = false;
    state.head_frontier = v.source;
    state.head_in_path = false;
  } else {
    state.frontier = v.uid;
    state.frontier_in_path = true;
    state.head_frontier = v.uid;
    state.head_in_path = true;
  }
  return state;
}

PathSet SeedStates(const std::vector<Uid>& nodes) {
  PathSet out;
  out.reserve(nodes.size());
  for (Uid uid : nodes) {
    PathState state;
    state.frontier = uid;
    state.frontier_in_path = false;
    state.head_frontier = uid;
    state.head_in_path = false;
    out.push_back(std::move(state));
  }
  return out;
}

PathState ExtendedState(const PathState& state, const PathElement& implicit,
                        const PathElement& matched, const Interval& valid,
                        Uid frontier, bool frontier_in_path) {
  const bool two = implicit.cls != nullptr;
  PathState next;
  next.uids.reserve(state.uids.size() + (two ? 2 : 1));
  next.uids.assign(state.uids.begin(), state.uids.end());
  next.concepts.reserve(state.concepts.size() + (two ? 2 : 1));
  next.concepts.assign(state.concepts.begin(), state.concepts.end());
  if (two) {
    next.uids.push_back(implicit.uid);
    next.concepts.push_back(implicit.cls);
  }
  next.uids.push_back(matched.uid);
  next.concepts.push_back(matched.cls);
  next.valid = valid;
  next.frontier = frontier;
  next.frontier_in_path = frontier_in_path;
  if (state.uids.empty()) {
    // First element of a seed-grown path becomes the head.
    const PathElement& first = two ? implicit : matched;
    next.head_frontier = first.uid;
    next.head_in_path = !first.cls->is_edge();
  } else {
    next.head_frontier = state.head_frontier;
    next.head_in_path = state.head_in_path;
  }
  return next;
}

PathIndex::PathIndex(size_t expected, std::pmr::memory_resource* memory)
    : slots_(memory), hashes_(memory) {
  size_t capacity = 16;
  while (capacity * 3 < expected * 4) capacity *= 2;
  slots_.assign(capacity, 0);
  hashes_.assign(capacity, 0);
}

void PathIndex::Grow() {
  std::pmr::vector<uint32_t> old_slots(slots_.size() * 2, 0,
                                       slots_.get_allocator());
  std::pmr::vector<uint64_t> old_hashes(hashes_.size() * 2, 0,
                                        hashes_.get_allocator());
  old_slots.swap(slots_);
  old_hashes.swap(hashes_);
  const size_t mask = slots_.size() - 1;
  for (size_t j = 0; j < old_slots.size(); ++j) {
    if (old_slots[j] == 0) continue;
    size_t i = static_cast<size_t>(old_hashes[j]) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = old_slots[j];
    hashes_[i] = old_hashes[j];
  }
}

bool GoalHops::Insert(Uid node, int hops) {
  if ((size_ + 1) * 2 > slots_.size()) {
    // Keeps the load at most one half: double, then re-place every entry.
    std::vector<Entry> old(slots_.size() * 2);
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    --shift_;
    for (const Entry& e : old) {
      if (e.node == kInvalidUid) continue;
      size_t i = Slot(e.node);
      while (slots_[i].node != kInvalidUid) i = (i + 1) & mask_;
      slots_[i] = e;
    }
  }
  for (size_t i = Slot(node);; i = (i + 1) & mask_) {
    if (slots_[i].node == kInvalidUid) {
      slots_[i] = {node, hops};
      ++size_;
      return true;
    }
    if (slots_[i].node == node) return false;
  }
}

void DedupPaths(PathSet* paths) {
  PathSet& all = *paths;
  if (all.size() < 2) return;
  // Compacts in place: ids name the kept prefix all[0, kept).
  PathIndex index(all.size());
  size_t kept = 0;
  for (size_t i = 0; i < all.size(); ++i) {
    const bool fresh =
        index
            .Insert(all[i].IdentityHash(),
                    [&](uint32_t id) { return all[id].SameIdentity(all[i]); })
            .second;
    if (!fresh) continue;
    if (kept != i) all[kept] = std::move(all[i]);
    ++kept;
  }
  all.erase(all.begin() + static_cast<std::ptrdiff_t>(kept), all.end());
}

void CanonicalizePaths(PathSet* paths) {
  // Stable, so the first occurrence of each identity heads its run.
  std::stable_sort(paths->begin(), paths->end(), CanonicalLess);
  paths->erase(std::unique(paths->begin(), paths->end(),
                           [](const PathState& a, const PathState& b) {
                             return a.SameIdentity(b);
                           }),
               paths->end());
}

PathSet RepeatRounds(const PathSet& frontier, int min_rep, int max_rep,
                     const std::function<PathSet(const PathSet&)>& round,
                     const std::function<bool(const PathState&)>& keep,
                     RoundCounts* counts) {
  PathSet collected;
  RoundCounts tally;
  // By path length, the latest collected round holding one: a second round
  // with that length is the only way the union can repeat a path.
  std::vector<int> round_of_length;
  bool collide = false;
  auto collect = [&](auto&& path, int k) {
    if (keep && !keep(path)) return;
    const size_t length = path.uids.size();
    if (length >= round_of_length.size()) {
      round_of_length.resize(length + 1, -1);
    }
    collide = collide || (round_of_length[length] >= 0 &&
                          round_of_length[length] != k);
    round_of_length[length] = k;
    collected.push_back(std::forward<decltype(path)>(path));
  };
  if (min_rep == 0) {
    for (const PathState& path : frontier) collect(path, 0);
  }
  PathSet current;  // round k, once built
  for (int k = 1; k <= max_rep; ++k) {
    const PathSet& previous = k == 1 ? frontier : current;
    if (previous.empty()) break;
    PathSet next = round(previous);
    tally.built += next.size();
    // Round k-1 is finished once round k is built: move out what it hands
    // on, and free the rest with it.
    if (k > 1 && k - 1 >= min_rep) {
      for (PathState& path : current) collect(std::move(path), k - 1);
    }
    current = std::move(next);
    if (k == max_rep && k >= min_rep) {
      for (PathState& path : current) collect(std::move(path), k);
    }
  }
  tally.collected = collected.size();
  if (collide) DedupPaths(&collected);
  if (counts != nullptr) *counts = tally;
  return collected;
}

PathSet PathOperatorExecutor::ExtendBlock(
    const PathSet& frontier, const std::vector<CompiledAtom>& alternatives,
    int min_rep, int max_rep, Direction dir, const TimeView& view) {
  return RepeatRounds(frontier, min_rep, max_rep, [&](const PathSet& current) {
    PathSet next;
    for (const CompiledAtom& atom : alternatives) {
      PathSet branch = ExtendAtom(current, atom, dir, view);
      AppendMoved(&branch, &next);
    }
    DedupPaths(&next);
    return next;
  });
}

}  // namespace nepal::storage
