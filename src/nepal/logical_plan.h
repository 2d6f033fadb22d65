// Logical plan IR — stage 1 of the three-stage planning pipeline
// (logical plan -> cost-based optimizer -> physical Step/Program plan).
//
// The logical tree mirrors the resolved RPE's shape (Atom / Seq / Alt /
// Rep) but is owned by the planner, so the optimizer (nepal/optimizer.h)
// can rewrite it — push predicates into atoms and prune statically-dead
// alternation branches against the allowed-edge rules — before the
// physical program is emitted. Keeping an explicit algebra between the AST
// and the operators is the classic G-CORE-style separation: rewrites happen
// here, operator selection later.

#ifndef NEPAL_NEPAL_LOGICAL_PLAN_H_
#define NEPAL_NEPAL_LOGICAL_PLAN_H_

#include <string>
#include <vector>

#include "nepal/rpe.h"
#include "storage/pathset.h"

namespace nepal::nql {

struct LogicalNode {
  enum class Kind { kAtom, kSeq, kAlt, kRep };

  Kind kind = Kind::kAtom;

  storage::CompiledAtom atom;        // kAtom
  std::vector<LogicalNode> children;  // kSeq / kAlt / kRep (Rep: exactly one)

  // kRep bounds (inclusive).
  int min_rep = 1;
  int max_rep = 1;

  // ---- Optimizer annotations ----

  /// Statically empty: the allowed-edge rules admit no element sequence
  /// through this subtree. Pruned Alt branches emit nothing; a pruned
  /// mandatory node makes the whole plan statically empty.
  bool pruned = false;

  bool is_optional() const { return kind == Kind::kRep && min_rep == 0; }

  std::string ToString() const;
};

struct LogicalPlan {
  LogicalNode root;

  /// Set by the pruning rewrite when a mandatory element is infeasible:
  /// the query is provably empty and needs no anchors at all.
  bool statically_empty = false;

  /// Human-readable log of the rewrites the optimizer applied, surfaced by
  /// EXPLAIN.
  std::vector<std::string> rewrites;

  std::string ToString() const { return root.ToString(); }
};

/// Builds the logical tree for a resolved RPE (structure copy; atoms are
/// already CompiledAtoms after ResolveRpe).
LogicalPlan BuildLogicalPlan(const RpeNode& resolved);

}  // namespace nepal::nql

#endif  // NEPAL_NEPAL_LOGICAL_PLAN_H_
