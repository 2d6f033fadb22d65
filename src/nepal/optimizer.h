// Cost-based optimizer — stage 2 of the planning pipeline.
//
// Rewrite rules over the logical plan, always applied:
//   - predicate pushdown: choose the most selective equality condition
//     (by exact value-counter statistics) to push into the ScanSpec;
//   - dead-branch pruning: alternation branches (and optional repetitions)
//     that the schema's allowed-edge rules prove can never match a single
//     element sequence are marked pruned and emit nothing.
//
// Plus the cost model used for anchor selection: scan estimates scaled by
// history depth for temporal views, and per-step row propagation through
// physical programs (cardinality × expected traversal fan-out) following
// the paper's four-way concatenation semantics.

#ifndef NEPAL_NEPAL_OPTIMIZER_H_
#define NEPAL_NEPAL_OPTIMIZER_H_

#include <string>

#include "nepal/logical_plan.h"
#include "nepal/plan.h"
#include "storage/backend.h"

namespace nepal::nql {

/// Estimation facade over one backend's statistics and the query's time
/// view. All row estimates are current-snapshot figures scaled by the
/// history-depth statistic when the view needs closed versions.
class CostEstimator {
 public:
  CostEstimator(const storage::StorageBackend& backend,
                const storage::TimeView& view)
      : backend_(backend), view_(view) {}

  const storage::StorageBackend& backend() const { return backend_; }
  const stats::GraphStats& stats() const { return backend_.stats(); }
  const schema::Schema* schema() const { return stats().schema(); }

  /// Rows a Select/scan of the atom emits, unscaled (the legacy anchor
  /// cost; what StorageBackend::EstimateScan returns).
  double ScanRaw(const storage::CompiledAtom& atom) const;
  /// As ScanRaw, scaled by the class's history depth for temporal views.
  double Scan(const storage::CompiledAtom& atom) const;

  /// Fraction of `cls` elements the atom's conditions keep (0..1).
  double ConditionSelectivity(const storage::CompiledAtom& atom) const;

  /// Average `edge_cls`-subtree edges per `node_cls` element in `dir`
  /// (history-scaled for temporal views). `node_cls` nullptr means the
  /// node root. The per-node denominator counts only elements whose class
  /// the schema's allow rules permit to carry such an edge: a frontier
  /// whose class guess widened to the node root must not dilute a hub's
  /// degree across node classes that can never be incident to the edge.
  double Fanout(const schema::ClassDef* node_cls, storage::Direction dir,
                const schema::ClassDef* edge_cls) const;

  double Cardinality(const schema::ClassDef* cls) const;

  /// Best guess for the class of the node reached by traversing an
  /// `edge_cls` edge from a `from_node`-class node in `dir` (LCA of the
  /// far-side classes of the matching allow rules; node root if unknown).
  const schema::ClassDef* FarNodeClass(const schema::ClassDef* from_node,
                                       const schema::ClassDef* edge_cls,
                                       storage::Direction dir) const;

  double HistoryScale(const schema::ClassDef* cls) const;

 private:
  const storage::StorageBackend& backend_;
  storage::TimeView view_;
};

/// Applies the rewrite rules in place (pushdown, then pruning when the
/// backend has a schema), appending one line per applied rewrite to
/// plan->rewrites and setting plan->statically_empty when a mandatory
/// element is infeasible.
void OptimizeLogicalPlan(LogicalPlan* plan,
                         const storage::StorageBackend& backend,
                         const storage::TimeView& view);

/// Frontier bookkeeping for the row-propagation walk, mirroring
/// PathState::frontier_in_path: after a node atom the frontier node is
/// part of the path; after an edge atom it is the unmatched far endpoint.
struct TraversalState {
  const schema::ClassDef* cls = nullptr;  // best class guess; null = unknown
  bool in_path = true;
};

/// Propagates row estimates through a physical program, setting
/// Step::est_rows on every step (including union branches and loop
/// bodies). Returns the estimated rows flowing out; accumulates the sum of
/// all intermediate row counts (the traversal work) into *work.
double AnnotateProgram(Program* program, double rows_in,
                       storage::Direction dir, TraversalState* state,
                       const CostEstimator& est, double* work);

/// Sets Step::goal_depth on each top-level bounded Loop of `program`, and
/// Step::open_goal on each top-level open one, which AnnotateProgram
/// annotated for a run in `dir` (suffix, reversed prefix or seeded
/// program). Nested Loops get no goal, so a goal's labelling runs once per
/// logical invocation at every parallelism. Called for the plan that runs
/// only, not for every anchor candidate costed.
void PlanGoals(Program* program, storage::Direction dir,
               const CostEstimator& est);

/// Initial traversal state right after Select(anchor) on the growing
/// (suffix, kOut) or head (prefix, kIn) side.
TraversalState AnchorState(const storage::CompiledAtom& anchor,
                           storage::Direction dir, const CostEstimator& est);

}  // namespace nepal::nql

#endif  // NEPAL_NEPAL_OPTIMIZER_H_
