#include "nepal/optimizer.h"

#include <algorithm>

namespace nepal::nql {

namespace {

using storage::CompiledAtom;
using storage::Direction;

/// Two class subtrees intersect iff one contains the other's root
/// (pre-order intervals are nested or disjoint).
bool Overlaps(const schema::ClassDef* a, const schema::ClassDef* b) {
  return a->SubtreeContains(b) || b->SubtreeContains(a);
}

/// True if some allow rule admits edges of `cls` at all.
bool EdgeClassFeasible(const schema::ClassDef* cls,
                       const schema::Schema& schema) {
  for (const schema::EdgeRule& rule : schema.edge_rules()) {
    if (Overlaps(rule.edge_class, cls)) return true;
  }
  return false;
}

/// Can an element matching `b` directly follow an element matching `a` in
/// a pathway? Four-way concatenation semantics (Section 3.3) against the
/// allowed-edge rules: node->edge needs a rule sourcing the node class,
/// edge->node a rule targeting it, node->node an implicit (unconstrained)
/// edge between the classes, edge->edge an implicit node that is target of
/// one rule and source of another.
bool FeasiblePair(const CompiledAtom& a, const CompiledAtom& b,
                  const schema::Schema& schema) {
  const auto& rules = schema.edge_rules();
  if (!a.is_edge() && b.is_edge()) {
    for (const auto& r : rules) {
      if (Overlaps(r.edge_class, b.cls) && Overlaps(r.source_class, a.cls)) {
        return true;
      }
    }
    return false;
  }
  if (a.is_edge() && !b.is_edge()) {
    for (const auto& r : rules) {
      if (Overlaps(r.edge_class, a.cls) && Overlaps(r.target_class, b.cls)) {
        return true;
      }
    }
    return false;
  }
  if (!a.is_edge() && !b.is_edge()) {
    for (const auto& r : rules) {
      if (Overlaps(r.source_class, a.cls) && Overlaps(r.target_class, b.cls)) {
        return true;
      }
    }
    return false;
  }
  // edge -> edge: the implicit node in between must be reachable as a
  // target of some rule admitting `a` and a source of some rule admitting
  // `b`, with overlapping node classes.
  for (const auto& r1 : rules) {
    if (!Overlaps(r1.edge_class, a.cls)) continue;
    for (const auto& r2 : rules) {
      if (!Overlaps(r2.edge_class, b.cls)) continue;
      if (Overlaps(r1.target_class, r2.source_class)) return true;
    }
  }
  return false;
}

bool AnyFeasiblePair(const std::vector<const CompiledAtom*>& lasts,
                     const std::vector<const CompiledAtom*>& firsts,
                     const schema::Schema& schema) {
  for (const CompiledAtom* a : lasts) {
    for (const CompiledAtom* b : firsts) {
      if (FeasiblePair(*a, *b, schema)) return true;
    }
  }
  return false;
}

// ---- Predicate pushdown ----

bool PushableEq(const storage::FieldCondition& cond) {
  return cond.op == storage::FieldCondition::Op::kEq &&
         cond.field_index >= 0 && cond.subpath.empty();
}

void ApplyPushdown(LogicalNode* node, const CostEstimator& est,
                   std::vector<std::string>* log) {
  if (node->kind == LogicalNode::Kind::kAtom) {
    CompiledAtom& atom = node->atom;
    int first_pushable = -1;
    int best = -1;
    double best_count = 0;
    for (size_t i = 0; i < atom.conditions.size(); ++i) {
      if (!PushableEq(atom.conditions[i])) continue;
      if (first_pushable < 0) first_pushable = static_cast<int>(i);
      auto count = est.stats().EqCount(atom.cls, atom.conditions[i].field_index,
                                       atom.conditions[i].value);
      if (!count) continue;  // untracked: selectivity unknown
      if (best < 0 || *count < best_count) {
        best = static_cast<int>(i);
        best_count = *count;
      }
    }
    if (best >= 0 && best != first_pushable) {
      atom.pushdown_condition = best;
      log->push_back("pushdown: " + atom.cls->name() + " scans by " +
                     atom.conditions[static_cast<size_t>(best)].ToString() +
                     " (" + std::to_string(static_cast<long long>(best_count)) +
                     " rows, most selective equality)");
    }
    return;
  }
  for (LogicalNode& child : node->children) ApplyPushdown(&child, est, log);
}

// ---- Dead-branch pruning ----

/// Which atoms can start / end a match of this subtree, and whether it can
/// match the empty sequence. A pruned node reports the empty boundary.
struct Boundary {
  std::vector<const CompiledAtom*> firsts, lasts;
  bool can_be_empty = false;
};

bool Skippable(const LogicalNode& node, const Boundary& b) {
  return b.can_be_empty || (node.pruned && node.is_optional());
}

Boundary PruneNode(LogicalNode* node, const schema::Schema& schema,
                   std::vector<std::string>* log) {
  switch (node->kind) {
    case LogicalNode::Kind::kAtom: {
      if (node->atom.is_edge() && !EdgeClassFeasible(node->atom.cls, schema)) {
        node->pruned = true;
        log->push_back("prune: no allow rule admits edge class " +
                       node->atom.cls->name());
        return {};
      }
      return Boundary{{&node->atom}, {&node->atom}, false};
    }
    case LogicalNode::Kind::kSeq: {
      std::vector<Boundary> bounds;
      bounds.reserve(node->children.size());
      for (LogicalNode& child : node->children) {
        bounds.push_back(PruneNode(&child, schema, log));
      }
      // A dead mandatory child kills the sequence; a dead optional child
      // simply matches the empty sequence and is skipped at emission.
      for (size_t i = 0; i < node->children.size(); ++i) {
        if (node->children[i].pruned && !node->children[i].is_optional()) {
          node->pruned = true;
          return {};
        }
      }
      // Adjacency feasibility between directly consecutive mandatory
      // children (a skippable child in between makes the crossing
      // avoidable, so nothing can be concluded there).
      const Boundary* prev = nullptr;
      const LogicalNode* prev_node = nullptr;
      for (size_t i = 0; i < node->children.size(); ++i) {
        if (Skippable(node->children[i], bounds[i])) {
          prev = nullptr;
          continue;
        }
        if (prev != nullptr &&
            !AnyFeasiblePair(prev->lasts, bounds[i].firsts, schema)) {
          node->pruned = true;
          log->push_back("prune: no allowed edge lets " +
                         prev_node->ToString() + " precede " +
                         node->children[i].ToString());
          return {};
        }
        prev = &bounds[i];
        prev_node = &node->children[i];
      }
      Boundary out;
      out.can_be_empty = true;
      for (size_t i = 0; i < node->children.size(); ++i) {
        out.firsts.insert(out.firsts.end(), bounds[i].firsts.begin(),
                          bounds[i].firsts.end());
        if (!Skippable(node->children[i], bounds[i])) break;
      }
      for (size_t i = node->children.size(); i-- > 0;) {
        out.lasts.insert(out.lasts.end(), bounds[i].lasts.begin(),
                         bounds[i].lasts.end());
        if (!Skippable(node->children[i], bounds[i])) break;
      }
      for (size_t i = 0; i < node->children.size(); ++i) {
        if (!Skippable(node->children[i], bounds[i])) {
          out.can_be_empty = false;
          break;
        }
      }
      return out;
    }
    case LogicalNode::Kind::kAlt: {
      Boundary out;
      size_t alive = 0;
      for (LogicalNode& child : node->children) {
        Boundary b = PruneNode(&child, schema, log);
        if (child.pruned && !child.is_optional()) {
          log->push_back("prune: dead alternation branch " + child.ToString());
          continue;
        }
        ++alive;
        out.firsts.insert(out.firsts.end(), b.firsts.begin(), b.firsts.end());
        out.lasts.insert(out.lasts.end(), b.lasts.begin(), b.lasts.end());
        out.can_be_empty = out.can_be_empty || Skippable(child, b);
      }
      if (alive == 0) {
        node->pruned = true;
        return {};
      }
      return out;
    }
    case LogicalNode::Kind::kRep: {
      Boundary body = PruneNode(&node->children[0], schema, log);
      if (node->children[0].pruned && !node->children[0].is_optional()) {
        node->pruned = true;
        if (node->is_optional()) {
          // {0,n} over a dead body can only match zero iterations.
          log->push_back("prune: optional repetition " + node->ToString() +
                         " reduced to the empty match");
          return Boundary{{}, {}, true};
        }
        return {};
      }
      body.can_be_empty = body.can_be_empty || node->min_rep == 0;
      return body;
    }
  }
  return {};
}

}  // namespace

// ---- CostEstimator ----

double CostEstimator::ScanRaw(const CompiledAtom& atom) const {
  return backend_.EstimateScan(atom.ToScanSpec());
}

double CostEstimator::HistoryScale(const schema::ClassDef* cls) const {
  if (!view_.needs_history()) return 1.0;
  return stats().HistoryDepth(cls);
}

double CostEstimator::Scan(const CompiledAtom& atom) const {
  return ScanRaw(atom) * HistoryScale(atom.cls);
}

double CostEstimator::Cardinality(const schema::ClassDef* cls) const {
  if (cls == nullptr) return 0.0;
  return stats().bound() ? stats().Cardinality(cls)
                         : static_cast<double>(backend_.CountClass(cls));
}

double CostEstimator::ConditionSelectivity(const CompiledAtom& atom) const {
  double sel = 1.0;
  double card = std::max(1.0, Cardinality(atom.cls));
  for (const storage::FieldCondition& cond : atom.conditions) {
    double s;
    if (cond.field_index < 0) {
      // `id` pseudo-field.
      s = cond.op == storage::FieldCondition::Op::kEq ? 1.0 / card : 1.0 / 3.0;
    } else if (PushableEq(cond)) {
      auto count = stats().EqCount(atom.cls, cond.field_index, cond.value);
      s = count ? *count / card : 0.1;
    } else if (cond.op == storage::FieldCondition::Op::kNe) {
      s = 0.9;
    } else {
      s = 1.0 / 3.0;
    }
    sel *= std::clamp(s, 0.0, 1.0);
  }
  return sel;
}

double CostEstimator::Fanout(const schema::ClassDef* node_cls, Direction dir,
                             const schema::ClassDef* edge_cls) const {
  const schema::Schema* s = schema();
  if (s == nullptr) return 0.0;
  if (node_cls == nullptr) node_cls = s->node_root();
  if (edge_cls == nullptr) edge_cls = s->edge_root();
  auto per_dir = [&](stats::DegreeDir d) {
    double edges =
        static_cast<double>(stats().EdgeCount(node_cls, d, edge_cls));
    if (edges <= 0.0) return 0.0;
    // Denominator: only the elements of node_cls whose class some allow
    // rule permits on this side of the edge. A frontier widened to the
    // node root must not dilute a hub class's degree across classes that
    // can never carry such an edge — that bias made full-edge scans look
    // cheaper than selective endpoint anchors.
    std::vector<const schema::ClassDef*> near;
    for (const schema::EdgeRule& rule : s->edge_rules()) {
      if (!Overlaps(rule.edge_class, edge_cls)) continue;
      const schema::ClassDef* side =
          d == stats::DegreeDir::kIn ? rule.target_class : rule.source_class;
      if (side->SubtreeContains(node_cls)) {
        near.push_back(node_cls);
      } else if (node_cls->SubtreeContains(side)) {
        near.push_back(side);
      }
    }
    double denom = 0.0;
    for (size_t i = 0; i < near.size(); ++i) {
      bool covered = false;
      for (size_t j = 0; j < near.size() && !covered; ++j) {
        if (j == i) continue;
        if (near[j] == near[i]) {
          if (j < i) covered = true;  // exact duplicate: count once
        } else if (near[j]->SubtreeContains(near[i])) {
          covered = true;  // nested class: the ancestor's count includes it
        }
      }
      if (!covered) denom += Cardinality(near[i]);
    }
    if (denom <= 0.0) {
      // No rule narrows the incident side: plain average over the class.
      return stats().AvgDegree(node_cls, d, edge_cls);
    }
    return edges / denom;
  };
  double f = 0.0;
  if (dir == Direction::kOut || dir == Direction::kBoth) {
    f += per_dir(stats::DegreeDir::kOut);
  }
  if (dir == Direction::kIn || dir == Direction::kBoth) {
    f += per_dir(stats::DegreeDir::kIn);
  }
  return f * HistoryScale(edge_cls);
}

const schema::ClassDef* CostEstimator::FarNodeClass(
    const schema::ClassDef* from_node, const schema::ClassDef* edge_cls,
    Direction dir) const {
  const schema::Schema* s = schema();
  if (s == nullptr) return nullptr;
  if (edge_cls == nullptr) edge_cls = s->edge_root();
  // Rules at or below the queried edge class shadow ancestor rules: an
  // OnServer traversal is described by `allow OnServer (Container -> Host)`,
  // not by the wider `allow hosted_on (...)` it specializes — folding the
  // ancestor rule in would widen the far class all the way to the node root.
  const schema::ClassDef* folded = nullptr;
  for (bool specific_only : {true, false}) {
    for (const schema::EdgeRule& rule : s->edge_rules()) {
      if (specific_only ? !edge_cls->SubtreeContains(rule.edge_class)
                        : !Overlaps(rule.edge_class, edge_cls)) {
        continue;
      }
      const schema::ClassDef* near =
          dir == Direction::kIn ? rule.target_class : rule.source_class;
      const schema::ClassDef* far =
          dir == Direction::kIn ? rule.source_class : rule.target_class;
      if (from_node != nullptr && !Overlaps(near, from_node)) continue;
      folded = folded == nullptr ? far : s->LeastCommonAncestor(folded, far);
    }
    if (folded != nullptr) break;
  }
  return folded == nullptr ? s->node_root() : folded;
}

// ---- Row propagation ----

TraversalState AnchorState(const CompiledAtom& anchor, Direction dir,
                           const CostEstimator& est) {
  TraversalState st;
  if (anchor.is_edge()) {
    st.cls = est.FarNodeClass(nullptr, anchor.cls, dir);
    st.in_path = false;
  } else {
    st.cls = anchor.cls;
    st.in_path = true;
  }
  return st;
}

namespace {

double ClassSelectivity(const CostEstimator& est,
                        const schema::ClassDef* frontier,
                        const schema::ClassDef* atom_cls) {
  if (frontier != nullptr && atom_cls->SubtreeContains(frontier)) return 1.0;
  if (frontier != nullptr && frontier->SubtreeContains(atom_cls)) {
    double fc = est.Cardinality(frontier);
    return fc > 0 ? std::min(1.0, est.Cardinality(atom_cls) / fc) : 1.0;
  }
  // Unknown or unrelated frontier guess: the atom's share of all nodes.
  const schema::Schema* s = est.schema();
  double root = s != nullptr ? est.Cardinality(s->node_root()) : 0.0;
  return root > 0 ? std::min(1.0, est.Cardinality(atom_cls) / root) : 1.0;
}

/// Cardinality of the frontier's class guess, history-scaled: the cap on
/// the rows a repetition's frontier can reach. Unknown statistics leave it
/// effectively uncapped.
double FrontierCap(const TraversalState& st, const CostEstimator& est) {
  const schema::ClassDef* cls = st.cls;
  if (cls == nullptr && est.schema() != nullptr) {
    cls = est.schema()->node_root();
  }
  double card =
      cls != nullptr ? est.Cardinality(cls) * est.HistoryScale(cls) : 0.0;
  return card > 0 ? card : 1e12;
}

double AtomStepRows(double rows, const CompiledAtom& atom, Direction dir,
                    TraversalState* st, const CostEstimator& est) {
  if (atom.is_edge()) {
    // Edge after edge first materializes the implicit node (1:1); either
    // way the step's fan-out is the frontier node's average degree over
    // the atom's edge class, filtered by the edge conditions.
    rows *= est.Fanout(st->cls, dir, atom.cls) * est.ConditionSelectivity(atom);
    st->cls = est.FarNodeClass(st->cls, atom.cls, dir);
    st->in_path = false;
  } else {
    if (st->in_path) {
      // Node after node traverses one implicit, unconstrained edge.
      rows *= est.Fanout(st->cls, dir, nullptr);
      st->cls = est.FarNodeClass(st->cls, nullptr, dir);
    }
    rows *= ClassSelectivity(est, st->cls, atom.cls) *
            est.ConditionSelectivity(atom);
    if (st->cls == nullptr || !atom.cls->SubtreeContains(st->cls)) {
      st->cls = atom.cls;
    }
    st->in_path = true;
  }
  return rows;
}

/// Rounds an open Loop is annotated over past its mandatory ones.
constexpr int kOpenLoopRounds = 12;

/// The rows rounds max(min_rep, 1), max(min_rep, 1) + 1, ... of an open
/// Loop hand on, from `rows` input rows. Each round re-costs the body from
/// the previous round's fresh rows, as a bounded Loop does, and caps them
/// by FrontierCap — the rows of the repeating rounds together, each
/// mandatory round below min_rep alone. The walk stops at the first round
/// that adds nothing, or after kOpenLoopRounds rounds past the mandatory
/// ones, so the estimate is finite although the rounds are not numbered.
/// round_est stays empty: goal depths are sized for bounded Loops only.
double OpenLoopRows(Step* loop, double rows, Direction dir,
                    TraversalState* state, const CostEstimator& est) {
  loop->round_est.clear();
  const int first = std::max(loop->min_rep, 1);
  double reached = 0;  // rows of the repeating rounds so far
  double fresh = rows;
  for (int k = 1; k < first + kOpenLoopRounds && fresh > 1e-9; ++k) {
    double unused = 0;
    // Scratch copies after the first round: the displayed body annotation
    // keeps the first-iteration estimates.
    Program scratch;
    if (k > 1) scratch = loop->body;
    const double grown = AnnotateProgram(k == 1 ? &loop->body : &scratch,
                                         fresh, dir, state, est, &unused);
    const double cap = FrontierCap(*state, est);
    if (k < first) {
      fresh = std::min(grown, cap);
    } else {
      fresh = std::min(grown, std::max(0.0, cap - reached));
      reached += fresh;
    }
  }
  return reached;
}

}  // namespace

double AnnotateProgram(Program* program, double rows_in, Direction dir,
                       TraversalState* state, const CostEstimator& est,
                       double* work) {
  double rows = rows_in;
  for (Step& step : *program) {
    // Nested bodies/branches are annotated recursively but their work is
    // already reflected in the enclosing step's own output estimate, so
    // only top-level steps feed the work accumulator (no double counting).
    double nested_work = 0;
    switch (step.kind) {
      case Step::Kind::kAtom:
        rows = AtomStepRows(rows, step.atom, dir, state, est);
        break;
      case Step::Kind::kUnion: {
        double total = 0;
        TraversalState out_state = *state;
        bool picked = false;
        for (Program& branch : step.branches) {
          TraversalState bs = *state;
          total += AnnotateProgram(&branch, rows, dir, &bs, est, &nested_work);
          if (!picked && !branch.empty()) {
            out_state = bs;
            picked = true;
          }
        }
        *state = out_state;
        rows = total;
        break;
      }
      case Step::Kind::kLoop: {
        // Per-iteration costing: the frontier's class context evolves as
        // the body traverses (a selective endpoint widens toward the edge
        // rules' LCA class after one hop), so each iteration is re-costed
        // with the state the previous one produced instead of extrapolating
        // the first iteration's fan-out geometrically — the latter wildly
        // overprices anchors whose first hop is denser than the rest.
        TraversalState bs = *state;
        double total = step.min_rep == 0 ? rows : 0.0;
        if (step.max_rep == kUnboundedRep) {
          total += OpenLoopRows(&step, rows, dir, &bs, est);
          *state = bs;
          rows = total;
          break;
        }
        step.round_est = {rows};
        for (int k = 1; k <= step.max_rep; ++k) {
          double cur;
          if (k == 1) {
            cur = AnnotateProgram(&step.body, rows, dir, &bs, est,
                                  &nested_work);
          } else {
            // Scratch copy: the displayed body annotation keeps the
            // first-iteration estimates.
            Program scratch = step.body;
            cur = AnnotateProgram(&scratch, step.round_est.back(), dir, &bs,
                                  est, &nested_work);
          }
          step.round_est.push_back(cur);
          if (k >= step.min_rep) total += cur;
        }
        *state = bs;
        rows = total;
        break;
      }
    }
    step.est_rows = rows;
    *work += rows;
  }
  return rows;
}

// ---- Goal-directed rounds ----

namespace {

/// Whether `loop`, followed by `next`, can have a goal: its body is an
/// alternation of edge atoms, `next` a node atom N, and N's scan estimate
/// is no larger than `frontier`, the Loop's rows where they meet N.
bool HasGoal(const Step& loop, const Step& next, double frontier,
             const CostEstimator& est) {
  if (next.kind != Step::Kind::kAtom || next.atom.is_edge()) return false;
  auto atoms = AsAtomAlternation(loop.body);
  if (!atoms) return false;
  for (const CompiledAtom& atom : *atoms) {
    if (!atom.is_edge()) return false;
  }
  return est.Scan(next.atom) <= frontier;
}

/// Step::goal_depth of a bounded `loop`, followed by `next` in a program
/// run in `dir`: zero unless HasGoal holds against the last round's
/// estimate. The backward layer starts at N's scan estimate and grows one
/// body hop at a time while it stays no larger than the forward frontier
/// it meets (Step::round_est): level l meets the frontier after round
/// max_rep - l. A selective N facing a selective anchor settles near the
/// middle; an unselective N (Host() after a top-down walk) stays at 0.
int GoalDepth(const Step& loop, const Step& next, Direction dir,
              const CostEstimator& est) {
  if (loop.round_est.size() != static_cast<size_t>(loop.max_rep) + 1) {
    return 0;
  }
  auto meets = [&](int level) {
    return loop.round_est[static_cast<size_t>(loop.max_rep - level)];
  };
  if (!HasGoal(loop, next, meets(0), est)) return 0;
  double layer = est.Scan(next.atom);
  const Direction back =
      dir == Direction::kOut ? Direction::kIn : Direction::kOut;
  TraversalState st = AnchorState(next.atom, back, est);
  int depth = 0;
  while (depth < loop.max_rep) {
    Program scratch = loop.body;
    double unused = 0;
    const double grown =
        AnnotateProgram(&scratch, layer, back, &st, est, &unused);
    const double frontier = meets(depth + 1);
    if (frontier <= 0 || grown > frontier) break;
    layer = grown;
    ++depth;
  }
  return depth;
}

}  // namespace

void PlanGoals(Program* program, Direction dir, const CostEstimator& est) {
  for (size_t i = 0; i + 1 < program->size(); ++i) {
    Step& step = (*program)[i];
    if (step.kind != Step::Kind::kLoop) continue;
    if (step.max_rep == kUnboundedRep) {
      // No rounds to size a depth by: the goal filters the output alone.
      step.open_goal = HasGoal(step, (*program)[i + 1], step.est_rows, est);
    } else {
      step.goal_depth = GoalDepth(step, (*program)[i + 1], dir, est);
    }
  }
}

// ---- Rewrite driver ----

void OptimizeLogicalPlan(LogicalPlan* plan,
                         const storage::StorageBackend& backend,
                         const storage::TimeView& view) {
  CostEstimator est(backend, view);
  ApplyPushdown(&plan->root, est, &plan->rewrites);
  if (est.schema() != nullptr) {
    PruneNode(&plan->root, *est.schema(), &plan->rewrites);
    if (plan->root.pruned && !plan->root.is_optional()) {
      plan->statically_empty = true;
    }
  }
}

}  // namespace nepal::nql
