// ViewFootprint: the dependency set of a materialized pathway view.
//
// The maintenance loop sees every WAL record of the database and must
// decide, per view, whether the touched element can possibly appear in (or
// create) a cached pathway. The footprint is computed once at registration
// from the view's compiled MatchPlan: the classes of every CompiledAtom in
// the anchor set and the physical programs (union branches and loop bodies
// included), plus two conservative flags for the elements
// pathway semantics materializes *implicitly*:
//
//  - consecutive node atoms traverse an implicit, unconstrained edge that
//    is recorded in the path — any edge class is then relevant;
//  - an RPE that starts/ends with an edge atom (or chains two edge atoms)
//    materializes implicit endpoint/between nodes — any node class is then
//    relevant.
//
// Class relevance is subclass-aware in both directions: a write of class C
// affects an atom over class A when either subtree contains the other
// (scanning "as A" reads C rows; an atom over the subclass C never sees
// rows of a proper ancestor, but an atom over an ancestor sees C).
//
// `max_atoms` bounds the number of atoms any matching fragment consumes
// (rpe MaxAtoms), which bounds how far — in elements, implicit ones
// included — a cached path can stretch from any of its members. The repair
// pass uses `radius()` to find anchor elements whose pathway could reach a
// touched element. Unbounded repetitions set `unbounded`; the catalog falls
// back to a full rebuild for relevant writes on such views.

#ifndef NEPAL_VIEWS_FOOTPRINT_H_
#define NEPAL_VIEWS_FOOTPRINT_H_

#include <string>
#include <vector>

#include "nepal/plan.h"
#include "nepal/rpe.h"

namespace nepal::views {

struct ViewFootprint {
  /// Deduplicated classes of every atom in the compiled plan.
  std::vector<const schema::ClassDef*> classes;
  /// True when a path may record an implicit (unconstrained) edge: writes
  /// of any edge class are relevant.
  bool implicit_edges = false;
  /// True when a path may materialize an implicit endpoint/between node:
  /// writes of any node class are relevant.
  bool implicit_nodes = false;
  /// MaxAtoms of the view's RPE; kUnboundedRep when open-ended.
  int max_atoms = 0;
  /// Any atom sits under an unbounded repetition — incremental repair has
  /// no hop bound, so relevant writes trigger a full rebuild instead.
  bool unbounded = false;

  /// Can a write touching an element of class `cls` change the view?
  bool Relevant(const schema::ClassDef* cls) const;

  /// Element-hop bound between a touched element and the anchor element of
  /// any cached path containing it (implicit elements counted). Meaningless
  /// when `unbounded`.
  int radius() const;

  /// Diagnostic rendering for `\views`, e.g. "{VM, HostedOn, Host} +implicit-edges r=9".
  std::string ToString() const;
};

/// Computes the footprint of a registered view from its compiled plan and
/// resolved RPE (the RPE supplies the implicit-element analysis and the
/// atom-count bound; the plan supplies the surviving atom classes after
/// dead-branch pruning).
ViewFootprint CollectFootprint(const nql::MatchPlan& plan,
                               const nql::RpeNode& resolved_rpe);

}  // namespace nepal::views

#endif  // NEPAL_VIEWS_FOOTPRINT_H_
