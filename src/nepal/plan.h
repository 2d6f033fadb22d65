// Query planning for one MATCHES predicate.
//
// Planning is a three-stage pipeline:
//  1. logical plan — an Atom/Seq/Alt/Rep algebra tree built from the
//     resolved RPE (nepal/logical_plan.h);
//  2. cost-based optimizer — rewrite rules (predicate pushdown, dead-branch
//     pruning against allowed-edge rules) and anchor selection over the
//     statistics subsystem (nepal/optimizer.h, src/stats);
//  3. physical plan — the Step/Program operator DAG emitted below.
//
// Anchored evaluation follows Section 5.1 of the paper:
//  1. enumerate anchor candidates —
//       Atom: the atom itself;
//       Sequence: candidates of every child (all are mandatory);
//       Alternation: the cross product of the children's candidates,
//         approximated (as in the paper) by the union of each child's best;
//       Repetition: Rep(r,n,m) -> Seq(r, Rep(r,n-1,m-1)), candidates of the
//         first r; repetitions with n == 0 contribute none;
//  2. cost every candidate — by estimated scan rows plus expected traversal
//     fan-out of its prefix/suffix programs — and pick the cheapest;
//  3. split the RPE around each anchor occurrence into a prefix program
//     (run backwards) and a suffix program (run forwards).
//
// Programs are linear step lists; Alternation compiles to a Union of
// sub-programs, and every repetition compiles to a Loop step, bounded
// ([r]{i,j}) or open ([r]*, [r]+, [r]{i,}), whose rounds the executor runs
// itself. An open Loop ends at its first empty round. Paths are simple, so
// that round comes, at the latest, after as many rounds as the view has
// visible elements, as long as every round appends at least one element to
// every path. EmitProgram makes sure every open body does:
//  - ε-removal: a nullable body r (one that can match the empty sequence)
//    becomes its non-empty part r−ε and the minimum drops to 0, since
//    r{i,} = (r−ε)* when each of the i copies may match ε; a body whose
//    only match is ε makes the repetition the empty program;
//  - flattening: a body that is one Loop{1,j} is replaced by that Loop's
//    body, since [[r]{1,j}]{m,} = [r]{m,} (any count of r's at or past m
//    splits into m or more blocks of 1..j).
// A Loop whose body is one atom or an alternation of atoms is the paper's
// ExtendBlock. An open Loop over any other body may reach one path in
// several rounds (its matches differ in length), so it skips any path that
// an earlier round at or past min_rep already reached.
//
// Goal-directed rounds: a top-level Loop whose body is an alternation of
// edge atoms and whose next step is a node atom N can be goal-directed.
// A bounded one carries a goal depth h chosen at plan time
// (Step::goal_depth). The executor then labels every node within h body
// hops of N's matches — a backward search from them — and its round
// filter keeps the backends from building, in each round, the paths whose
// frontier cannot reach a match in the rounds left: exactly the paths the
// Extend of N would drop. An open one (Step::open_goal) labels N's matches
// alone: it has no rounds left to prune by. Either builds a path only if
// it ends at a goal match or the next round can extend it, and hands on
// only the paths the Extend of N can accept.

#ifndef NEPAL_NEPAL_PLAN_H_
#define NEPAL_NEPAL_PLAN_H_

#include <optional>
#include <string>
#include <vector>

#include "nepal/logical_plan.h"
#include "nepal/rpe.h"
#include "storage/backend.h"
#include "storage/pathset.h"

namespace nepal::nql {

struct Step;
using Program = std::vector<Step>;

struct Step {
  enum class Kind { kAtom, kUnion, kLoop };
  Kind kind = Kind::kAtom;

  storage::CompiledAtom atom;      // kAtom
  std::vector<Program> branches;   // kUnion
  Program body;                    // kLoop
  int min_rep = 1;                 // kLoop
  int max_rep = 1;                 // kLoop (kUnboundedRep = open)

  /// Bounded kLoop: goal depth h (see the header comment). 0 runs every
  /// round unpruned; h > 0 requires the next step of the program to be a
  /// node atom (the goal) and the body to be an alternation of edge atoms.
  /// Set by PlanGoals from `round_est`, the frontier estimates after 0..
  /// max_rep rounds that AnnotateProgram fills in.
  int goal_depth = 0;
  std::vector<double> round_est;
  /// Open kLoop: the goal filter — the Loop labels the matches of its goal
  /// (the next step, a node atom) and hands on only the paths that end at
  /// one or whose frontier is already in the path. Set by PlanGoals under
  /// the same conditions as a bounded Loop's goal, with goal_depth 0.
  /// ReverseProgram clears it, goal_depth and round_est.
  bool open_goal = false;

  /// Whether a Loop labels its goal: a bounded one with goal_depth > 0 or
  /// an open one with open_goal.
  bool goal_directed() const { return goal_depth > 0 || open_goal; }

  /// Optimizer row estimate for this step's output (cardinality × expected
  /// fan-out); -1 when not annotated. Threaded into obs::QueryStats so
  /// EXPLAIN ANALYZE can report estimated vs actual rows.
  double est_rows = -1;

  /// Operator-stats node id (obs::QueryStatsGroup), assigned by the
  /// executor when it registers the plan for EXPLAIN ANALYZE; -1 when the
  /// step is not instrumented. `goal_op_id` is a goal-directed Loop's
  /// labelling operator.
  int op_id = -1;
  int goal_op_id = -1;

  std::string ToString() const;
};

/// Mirror-image of a program: steps reversed, recursively.
Program ReverseProgram(const Program& program);

/// The atoms of a Loop body that is one atom or an alternation of atoms
/// (the paper's ExtendBlock payload); nullopt for any other body.
std::optional<std::vector<storage::CompiledAtom>> AsAtomAlternation(
    const Program& body);

std::string ProgramToString(const Program& program);
/// As ProgramToString, appending "~N" row estimates to annotated steps.
std::string ProgramToStringWithEstimates(const Program& program);

/// One way to evaluate the RPE: Select the anchor atom, extend forwards
/// through `suffix`, then backwards through `prefix` (already reversed).
struct AnchoredPlan {
  storage::CompiledAtom anchor;
  /// Estimated rows the anchor Select emits (bare scan estimate).
  double anchor_cost = 0;
  /// Estimated rows after the suffix / after both sides; -1 if unannotated.
  double est_after_suffix = -1;
  double est_rows = -1;
  Program reversed_prefix;  // run with Direction::kIn after reversal
  Program suffix;           // run with Direction::kOut
};

/// The full plan for a MATCHES predicate: the union over the chosen anchor
/// set (one AnchoredPlan per alternation branch covered).
struct MatchPlan {
  std::vector<AnchoredPlan> anchors;
  /// Estimated anchor scan rows of the chosen candidate (the legacy cost
  /// metric; the engine compares it against join-seed counts).
  double total_cost = 0;
  /// Full cost-model total: scan + estimated traversal work. This is the
  /// figure the optimizer minimized and the one recorded in bench output.
  double optimizer_cost = 0;
  /// True when dead-branch pruning proved the RPE matches nothing under
  /// the allowed-edge rules; `anchors` is empty and evaluation yields an
  /// empty pathway set.
  bool statically_empty = false;
  /// Rendered logical plan and the optimizer rewrites applied to it.
  std::string logical;
  std::vector<std::string> rewrites;
  std::string ToString() const;
};

struct PlanOptions {
  /// Upper bound accepted for repetition bounds (length limitation).
  int max_repetition = 32;
  /// Worker lanes for frontier-parallel evaluation. 1 runs the exact serial
  /// executor (pre-concurrency behavior, byte-identical output); 0 resolves
  /// to std::thread::hardware_concurrency(). Values > 1 shard each step's
  /// frontier over the shared work-stealing pool and merge with
  /// canonical-order deduplication, so parallel results are deterministic
  /// regardless of thread count or scheduling.
  int parallelism = 0;
};

/// Resolves PlanOptions::parallelism to the worker-lane count actually
/// used (0 maps to std::thread::hardware_concurrency()).
size_t EffectiveParallelism(const PlanOptions& options);

/// Builds the anchored plan for a resolved, normalized RPE: logical plan,
/// optimizer rewrites, anchor selection, physical emission. The `view`
/// scales estimates for historical reads (history-depth statistics). Fails
/// with PlanError if the RPE has no anchor (every atom sits inside a {0,n}
/// repetition). `options` is unread; it stays for nepalbench's call site.
Result<MatchPlan> PlanMatch(
    const RpeNode& rpe, const storage::StorageBackend& backend,
    const PlanOptions& options,
    const storage::TimeView& view = storage::TimeView::Current());

/// Emits the physical program for an optimized logical subtree.
Program EmitProgram(const LogicalNode& node);

/// Compiles an RPE for seeded evaluation (imported anchor, no split):
/// builds the logical plan, applies the optimizer rewrites, and emits the
/// physical program annotated with row estimates starting from `seed_rows`
/// seed states (skipped when seed_rows < 0).
Program CompileSeededProgram(const RpeNode& rpe,
                             const storage::StorageBackend& backend,
                             const storage::TimeView& view, double seed_rows);

}  // namespace nepal::nql

#endif  // NEPAL_NEPAL_PLAN_H_
