// Regular-path automaton — the NFA side of the graph × NFA product.
//
// A resolved RPE compiles to a Thompson-style epsilon-NFA (one fragment per
// Atom/Seq/Alt/Rep node) whose transitions carry CompiledAtoms instead of
// characters. Epsilon transitions are then eliminated by closure, states are
// renumbered in BFS order from the start state (so construction is
// deterministic and EXPLAIN output is stable), and the result is a plain
// table: per-state transition lists plus an accept bitmap.
//
// Bounded repetitions [r]{i,j} expand to i mandatory body copies followed by
// j-i optional ones (a DAG — each copy encodes a distinct iteration count).
// The planner builds automata only for unbounded repetitions ([r]*, [r]+,
// [r]{i,}) whose body is not one atom or an alternation of atoms (those
// run as open Loops), so a bounded one reaches this code nested in an
// unbounded body. An unbounded repetition adds a single looping body copy,
// which is the part no finite unroll can express. The executor
// (nepal/executor.cc) runs the product traversal with memoized
// (state, path) visitation, so cyclic automata terminate on cyclic graphs.

#ifndef NEPAL_NEPAL_NFA_H_
#define NEPAL_NEPAL_NFA_H_

#include <string>
#include <vector>

#include "nepal/logical_plan.h"
#include "nepal/rpe.h"
#include "storage/pathset.h"

namespace nepal::nql {

struct NfaTransition {
  int target = -1;
  storage::CompiledAtom atom;
};

struct Nfa {
  /// Start state; 0 after renumbering (−1 only for the empty automaton).
  int start = -1;
  /// Per-state outgoing transitions, indexed by state id.
  std::vector<std::vector<NfaTransition>> states;
  /// Accept bitmap, indexed by state id.
  std::vector<bool> accept;

  size_t num_states() const { return states.size(); }
  size_t num_transitions() const {
    size_t n = 0;
    for (const auto& out : states) n += out.size();
    return n;
  }
  /// True when the start state accepts: the automaton matches the empty
  /// atom sequence, i.e. the input frontier passes through unchanged.
  bool accepts_empty() const {
    return start >= 0 && static_cast<size_t>(start) < accept.size() &&
           accept[static_cast<size_t>(start)];
  }

  /// Multi-line rendering for EXPLAIN: one line per state with its
  /// transitions; when `state_est` is non-null (per-state arrival estimates
  /// from the optimizer, parallel to `states`), appends "~N" to each state.
  std::string ToString(const std::vector<double>* state_est = nullptr) const;
};

/// Compiles an optimized logical subtree (typically a kRep node) into an
/// epsilon-free NFA. Pruned subtrees follow EmitProgram's conventions: a
/// pruned child inside a sequence or a pruned optional branch matches only
/// the empty sequence.
Nfa BuildNfa(const LogicalNode& node);

/// Convenience overload for a resolved RPE subtree (no optimizer
/// annotations).
Nfa BuildNfa(const RpeNode& resolved);

/// The automaton recognizing the reversed atom sequences, used when a
/// program runs backwards (prefix side of an anchored plan, or seeded
/// evaluation from the target side).
Nfa ReverseNfa(const Nfa& nfa);

}  // namespace nepal::nql

#endif  // NEPAL_NEPAL_NFA_H_
