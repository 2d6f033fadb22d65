// Pathways under construction, compiled atoms, and the retargetable
// operator-executor interface.
//
// A query plan is a DAG of Select / Extend / Union / Loop operators over
// *pathway states*; the executor (nepal/executor.h) runs a Loop's rounds
// itself, its body program once per round (RepeatRounds below). A
// PathState mirrors the paper's TEMP-table layout: `uids` is the uid_list,
// `concepts` the concept_list, and `frontier` the curr_uid — the open node
// at the growing end of the path. Both execution backends implement
// PathOperatorExecutor: the graphstore with per-traverser adjacency steps,
// the relational engine with bulk hash joins that also render themselves
// to SQL. Both read each distinct frontier node once per Extend
// (storage/frontier_reads.h).
//
// A goal-directed Loop (nepal/plan.h) runs a copy of its body whose atoms
// carry a RoundFilter: both backends' edge Extends then drop, before the
// copy, every child that the Loop would neither extend nor hand on.
//
// Extension semantics (the paper's four-way concatenation, Section 3.3):
//  - consuming a node atom right after a node atom traverses one *implicit,
//    unconstrained* edge (which is recorded in the path),
//  - consuming an edge atom right after an edge atom materializes the
//    implicit node between them,
//  - an RPE that starts/ends with an edge atom gets implicit endpoint nodes,
//  - paths never repeat an element (the uid_list cycle check).

#ifndef NEPAL_STORAGE_PATHSET_H_
#define NEPAL_STORAGE_PATHSET_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <memory_resource>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "storage/element.h"

namespace nepal::storage {

/// One comparison against a field of the atom's class. `field_index == -1`
/// addresses the `id` pseudo-field (the element uid). A non-empty `subpath`
/// digs into structured data: composite (data_type) members and map keys,
/// e.g. `Router(config.mgmt.vrf='oam')`. (List/set elements are not
/// addressable by predicate.)
struct FieldCondition {
  enum class Op { kEq, kNe, kLt, kLe, kGt, kGe };

  int field_index = -1;
  std::string field_name;  // for rendering
  std::vector<std::string> subpath;
  Op op = Op::kEq;
  Value value;

  bool Eval(const ElementVersion& v) const;
  std::string ToString() const;
};

struct RoundFilter;

/// A resolved RPE atom: class (matched over its whole subtree) plus field
/// conditions. E.g. VM(status='Green').
struct CompiledAtom {
  const schema::ClassDef* cls = nullptr;
  std::vector<FieldCondition> conditions;
  /// Index into `conditions` of the equality the optimizer chose to push
  /// into the ScanSpec (predicate-pushdown rewrite). -1 keeps the default
  /// behaviour: the first pushable equality wins.
  int pushdown_condition = -1;
  /// The filter of the round being built, on the edge atoms of the body
  /// copy a goal-directed Loop runs; null everywhere else, plans included.
  /// An edge Extend applies it to every child before the copy.
  const RoundFilter* round_filter = nullptr;

  bool is_edge() const { return cls->is_edge(); }
  bool Matches(const ElementVersion& v) const;

  /// Scan with id/equality conditions pushed down and the rest residual.
  ScanSpec ToScanSpec() const;

  std::string ToString() const;
};

/// A pathway being built. Grows at the tail; `frontier` is the open node
/// there. `frontier_in_path` distinguishes the two traverser states:
/// after a node atom the frontier is already recorded in `uids`; after an
/// edge atom it is the edge's far endpoint, not yet recorded.
struct PathState {
  std::vector<Uid> uids;
  std::vector<const schema::ClassDef*> concepts;
  Interval valid = Interval::All();  // running intersection of versions
  Uid frontier = kInvalidUid;
  bool frontier_in_path = false;
  /// The open node at the fixed (head) end, used when the path is reversed
  /// to grow the prefix side.
  Uid head_frontier = kInvalidUid;
  bool head_in_path = false;

  bool Contains(Uid uid) const {
    for (Uid u : uids) {
      if (u == uid) return true;
    }
    return false;
  }
  /// Contains(a) || Contains(b), in one pass over `uids`.
  bool ContainsAny(Uid a, Uid b) const {
    for (Uid u : uids) {
      if (u == a || u == b) return true;
    }
    return false;
  }

  /// Swaps head and tail in place: reverses uids/concepts and exchanges the
  /// frontier bookkeeping. Used to grow the prefix side of an anchored plan.
  void Reverse();

  /// A state's identity — what deduplication compares — is
  /// (uids, frontier, frontier_in_path, valid). IdentityHash is a 64-bit
  /// hash of it; SameIdentity compares it field by field. A hash match
  /// counts as a duplicate only once SameIdentity confirms it.
  uint64_t IdentityHash() const;
  bool SameIdentity(const PathState& other) const;

  std::string ToString() const;
};

using PathSet = std::vector<PathState>;

/// The single-element state of an anchor match: `v` recorded, the tail
/// frontier at its open end (an edge's target, or the node itself) and the
/// head frontier at the other.
PathState AnchorState(const ElementVersion& v);

/// Seed states for imported anchors: one empty uid list per node, both
/// frontiers at the node and not yet recorded.
PathSet SeedStates(const std::vector<Uid>& nodes);

/// An element a path extension appends: its uid and concept. A null `cls`
/// marks no element.
struct PathElement {
  Uid uid = kInvalidUid;
  const schema::ClassDef* cls = nullptr;
};

/// The one copy of a path extension. Both backends' Extend operators check
/// first and copy last: every cycle check runs on the parent `state` (the
/// matched element, the implicit node or edge before it, the far endpoint)
/// together with the interval intersection that yields `valid`, and only a
/// path that passes them all is built here. `state`'s vectors are copied
/// once, with room for `implicit` (when it names an element) and `matched`,
/// the tail frontier moves to `frontier`, and a seed state's first element
/// becomes its head.
PathState ExtendedState(const PathState& state, const PathElement& implicit,
                        const PathElement& matched, const Interval& valid,
                        Uid frontier, bool frontier_in_path);

/// Removes states with the identity of an earlier state, keeping the first
/// occurrence in input order. The surviving set is input-order
/// independent; the output order is not.
void DedupPaths(PathSet* paths);

/// Sorts states into canonical order and removes duplicates, keeping the
/// first occurrence. Canonical order is numeric and lexicographic over the
/// identity: the uid sequence element by element (a proper prefix first),
/// then frontier, frontier_in_path (false first), valid.start and
/// valid.end. Unlike DedupPaths the result — including its order — is
/// independent of the input order, which makes merged shard outputs of the
/// parallel executor deterministic and lets tests compare path sets across
/// different anchor choices byte-for-byte.
void CanonicalizePaths(PathSet* paths);

/// What one RepeatRounds call built and handed on.
struct RoundCounts {
  size_t built = 0;      // paths of rounds 1..max_rep, as `round` built them
  size_t collected = 0;  // paths collected, before the union dedup
};

/// The round loop of a repetition {min_rep, max_rep}: round 0 is
/// `frontier`, round k+1 is `round(round k)`, and the loop stops after
/// round max_rep or at the first empty round. `round` deduplicates what it
/// returns; RepeatRounds never deduplicates a round. Returns the paths of
/// rounds min_rep..max_rep that `keep` accepts (all of them when `keep` is
/// empty), in round order. Round k lives only until round k+1 is built: its
/// kept paths then move to the output and the rest are freed; `frontier` is
/// read in place, and copied only for the paths of round 0 that are kept.
/// A path's identity includes its uid list, so two rounds can hold one
/// path only when they hold paths of the same length: the union is
/// deduplicated when two collected rounds do.
///
/// An open repetition passes max_rep = kUnboundedRep (nepal/rpe.h). The
/// loop then ends at the first empty round, which comes when `round`
/// appends at least one element to every path it builds (every Extend does,
/// and runs the cycle check).
PathSet RepeatRounds(const PathSet& frontier, int min_rep, int max_rep,
                     const std::function<PathSet(const PathSet&)>& round,
                     const std::function<bool(const PathState&)>& keep = {},
                     RoundCounts* counts = nullptr);

/// Open-addressing hash index that hands out dense ids 0, 1, 2, ... in
/// insertion order, keyed by 64-bit hashes (PathState::IdentityHash). It
/// stores no paths: the caller keeps whatever an id names and confirms each
/// hash match with its own equality test.
class PathIndex {
 public:
  /// Sized for `expected` entries; the table lives in `memory`.
  explicit PathIndex(
      size_t expected = 0,
      std::pmr::memory_resource* memory = std::pmr::get_default_resource());

  /// Returns {id, false} for an earlier entry with hash `hash` for which
  /// `same(id)` holds; otherwise records the next id under `hash` and
  /// returns {id, true}.
  template <typename Same>
  std::pair<uint32_t, bool> Insert(uint64_t hash, const Same& same) {
    if ((size_ + 1) * 4 > slots_.size() * 3) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t i = static_cast<size_t>(hash) & mask;; i = (i + 1) & mask) {
      const uint32_t slot = slots_[i];
      if (slot == 0) {
        slots_[i] = static_cast<uint32_t>(++size_);
        hashes_[i] = hash;
        return {slot_id(size_), true};
      }
      if (hashes_[i] == hash && same(slot_id(slot))) {
        return {slot_id(slot), false};
      }
    }
  }

  /// The id of an earlier entry with hash `hash` for which `same(id)`
  /// holds; nullopt when there is none.
  template <typename Same>
  std::optional<uint32_t> Find(uint64_t hash, const Same& same) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = static_cast<size_t>(hash) & mask;; i = (i + 1) & mask) {
      const uint32_t slot = slots_[i];
      if (slot == 0) return std::nullopt;
      if (hashes_[i] == hash && same(slot_id(slot))) return slot_id(slot);
    }
  }

  size_t size() const { return size_; }

 private:
  static uint32_t slot_id(size_t slot) {
    return static_cast<uint32_t>(slot - 1);
  }
  void Grow();

  std::pmr::vector<uint32_t> slots_;  // id + 1; 0 marks an empty slot
  std::pmr::vector<uint64_t> hashes_;
  size_t size_ = 0;
};

/// The goal labels of a goal-directed Loop: each labelled node's fewest
/// hops to a goal match, in one flat open-addressing table keyed by uid.
class GoalHops {
 public:
  /// Labels `node` with `hops` unless it is labelled; true if it was not.
  bool Insert(Uid node, int hops);

  /// The hops of `node`; -1 when it is unlabelled.
  int Find(Uid node) const {
    for (size_t i = Slot(node);; i = (i + 1) & mask_) {
      if (slots_[i].node == kInvalidUid) return -1;
      if (slots_[i].node == node) return slots_[i].hops;
    }
  }

  size_t size() const { return size_; }

 private:
  struct Entry {
    Uid node = kInvalidUid;  // kInvalidUid marks an empty slot
    int hops = 0;
  };
  /// Fibonacci hashing: the top bits of uid × 2^64/φ.
  size_t Slot(Uid node) const {
    return static_cast<size_t>((node * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  std::vector<Entry> slots_ = std::vector<Entry>(16);
  size_t mask_ = 15;
  int shift_ = 60;
  size_t size_ = 0;
};

/// The round filter of a goal-directed Loop: its goal labels, the rounds
/// left after the round being built, and the body's atoms. The executor
/// keeps one per Loop invocation and updates it before each round; the
/// edge Extends of that round read it (storage/frontier_reads.h,
/// RoundReads). A child whose far node `far` has `left` rounds after it:
///  - is pruned once `left` falls to the goal depth, unless `far` is
///    labelled within `left` hops;
///  - is kept when `far` is a goal match (hop 0): the Loop hands it on;
///  - is kept otherwise only when the next round can extend it over one
///    of `atoms`.
struct RoundFilter {
  const GoalHops* hops = nullptr;
  int goal_depth = 0;   // 0 for an open Loop, whose rounds are never pruned
  int rounds_left = 0;  // after the round being built
  std::vector<CompiledAtom> atoms;  // the body's, without a filter
};

/// The retargetable operator set. One instance per (backend, query).
class PathOperatorExecutor {
 public:
  virtual ~PathOperatorExecutor() = default;

  /// Anchor evaluation: single-element states for every element matching
  /// the atom under `view`.
  virtual PathSet Select(const CompiledAtom& atom, const TimeView& view) = 0;

  /// Seed states for imported anchors (join-provided node uids). A seed has
  /// an empty uid list; the first atom consumed decides whether the seed
  /// node is matched directly (node atom) or becomes an implicit endpoint
  /// (edge atom).
  virtual PathSet SelectSeeds(const std::vector<Uid>& nodes,
                              const TimeView& view) = 0;

  /// Extends every state by one atom. kOut grows along edge direction
  /// (source -> target), kIn against it.
  virtual PathSet ExtendAtom(const PathSet& frontier, const CompiledAtom& atom,
                             Direction dir, const TimeView& view) = 0;

  /// Repetition block [a1|...|an]{min,max}: returns the union of frontiers
  /// after k iterations for every k in [min, max] (including the input
  /// frontier when min == 0). The payload is restricted to an alternation
  /// of atoms, as in the paper's ExtendBlock. The default runs RepeatRounds
  /// over ExtendAtom, deduplicating each round; no backend specializes it.
  /// The engine never calls it — its Loop runs the same rounds itself so
  /// that it can prune each one — and the virtual stays only because
  /// nepalbench's tracing decorator overrides it.
  virtual PathSet ExtendBlock(const PathSet& frontier,
                              const std::vector<CompiledAtom>& alternatives,
                              int min_rep, int max_rep, Direction dir,
                              const TimeView& view);

  /// Closes the growing end: if the last consumed atom was an edge, the
  /// frontier node is materialized as the implicit final node.
  virtual PathSet FinalizeTail(const PathSet& frontier,
                               const TimeView& view) = 0;

  /// EXPLAIN VERBOSE: the backend SQL of one plan operator, rendered from
  /// the plan rather than from a run — the Select of `atom` when `input`
  /// is 0, else the Extend of TEMP table `input` by `atom` in `dir` —
  /// creating TEMP table `output`. Empty (the default) when the backend
  /// has no SQL form.
  virtual std::vector<std::string> ToSql(const CompiledAtom& /*atom*/,
                                         Direction /*dir*/,
                                         const TimeView& /*view*/,
                                         int /*input*/, int /*output*/) const {
    return {};
  }
};

}  // namespace nepal::storage

#endif  // NEPAL_STORAGE_PATHSET_H_
