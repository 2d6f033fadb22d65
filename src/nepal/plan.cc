#include "nepal/plan.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <thread>

#include "nepal/optimizer.h"

namespace nepal::nql {

size_t EffectiveParallelism(const PlanOptions& options) {
  if (options.parallelism > 1) {
    return static_cast<size_t>(options.parallelism);
  }
  if (options.parallelism <= 0) {
    size_t hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }
  return 1;
}

std::string Step::ToString() const {
  switch (kind) {
    case Kind::kAtom:
      return "Extend(" + atom.ToString() + ")";
    case Kind::kUnion: {
      std::string out = "Union(";
      for (size_t i = 0; i < branches.size(); ++i) {
        if (i > 0) out += " | ";
        out += ProgramToString(branches[i]);
      }
      return out + ")";
    }
    case Kind::kLoop: {
      std::string rep = RepSuffix(min_rep, max_rep);
      if (goal_depth > 0) {
        rep.insert(rep.size() - 1, " goal " + std::to_string(goal_depth));
      } else if (open_goal) {
        rep += "{goal 0}";
      }
      return "Loop" + rep + "(" + ProgramToString(body) + ")";
    }
  }
  return "?";
}

std::string ProgramToString(const Program& program) {
  if (program.empty()) return "<empty>";
  std::string out;
  for (size_t i = 0; i < program.size(); ++i) {
    if (i > 0) out += " ; ";
    out += program[i].ToString();
  }
  return out;
}

namespace {

std::string FormatEstimate(double rows) {
  char buf[32];
  if (rows >= 100.0 || rows == std::floor(rows)) {
    std::snprintf(buf, sizeof(buf), "~%.0f", rows);
  } else {
    std::snprintf(buf, sizeof(buf), "~%.2f", rows);
  }
  return buf;
}

}  // namespace

std::string ProgramToStringWithEstimates(const Program& program) {
  if (program.empty()) return "<empty>";
  std::string out;
  for (size_t i = 0; i < program.size(); ++i) {
    if (i > 0) out += " ; ";
    out += program[i].ToString();
    if (program[i].est_rows >= 0) out += FormatEstimate(program[i].est_rows);
  }
  return out;
}

Program ReverseProgram(const Program& program) {
  Program out;
  out.reserve(program.size());
  for (auto it = program.rbegin(); it != program.rend(); ++it) {
    Step step = *it;
    if (step.kind == Step::Kind::kUnion) {
      for (Program& branch : step.branches) {
        branch = ReverseProgram(branch);
      }
    } else if (step.kind == Step::Kind::kLoop) {
      step.body = ReverseProgram(step.body);
      step.goal_depth = 0;  // its goal was the step after it
      step.open_goal = false;
      step.round_est.clear();
    }
    out.push_back(std::move(step));
  }
  return out;
}

std::optional<std::vector<storage::CompiledAtom>> AsAtomAlternation(
    const Program& body) {
  if (body.size() != 1) return std::nullopt;
  const Step& step = body[0];
  if (step.kind == Step::Kind::kAtom) {
    return std::vector<storage::CompiledAtom>{step.atom};
  }
  if (step.kind != Step::Kind::kUnion) return std::nullopt;
  std::vector<storage::CompiledAtom> atoms;
  for (const Program& branch : step.branches) {
    if (branch.size() != 1 || branch[0].kind != Step::Kind::kAtom) {
      return std::nullopt;
    }
    atoms.push_back(branch[0].atom);
  }
  return atoms;
}

// ---- Physical emission (stage 3) ----

namespace {

bool Nullable(const Program& program);

/// Whether `step` can match the empty sequence.
bool Nullable(const Step& step) {
  switch (step.kind) {
    case Step::Kind::kAtom:
      return false;
    case Step::Kind::kUnion:
      return std::any_of(step.branches.begin(), step.branches.end(),
                         [](const Program& b) { return Nullable(b); });
    case Step::Kind::kLoop:
      return step.min_rep == 0 || Nullable(step.body);
  }
  return false;
}

bool Nullable(const Program& program) {
  return std::all_of(program.begin(), program.end(),
                     [](const Step& s) { return Nullable(s); });
}

/// `branches` as one program: nullopt for none, the branch itself for one,
/// their Union otherwise.
std::optional<Program> OneOf(std::vector<Program> branches) {
  if (branches.empty()) return std::nullopt;
  if (branches.size() == 1) return std::move(branches[0]);
  Step alt;
  alt.kind = Step::Kind::kUnion;
  alt.branches = std::move(branches);
  return Program{std::move(alt)};
}

std::optional<Program> NonEmpty(const Program& program);

/// The program matching the non-empty matches of `step`; nullopt when its
/// only match is ε. A Loop{i,j} over B becomes Loop{1,j} over B−ε (each
/// of the i copies may match ε), and [B]{0,1} becomes B−ε itself.
std::optional<Program> NonEmpty(const Step& step) {
  if (!Nullable(step)) return Program{step};
  switch (step.kind) {
    case Step::Kind::kAtom:
      break;
    case Step::Kind::kUnion: {
      std::vector<Program> branches;
      for (const Program& branch : step.branches) {
        if (std::optional<Program> part = NonEmpty(branch)) {
          branches.push_back(std::move(*part));
        }
      }
      return OneOf(std::move(branches));
    }
    case Step::Kind::kLoop: {
      std::optional<Program> body = NonEmpty(step.body);
      if (!body || step.max_rep == 0) return std::nullopt;
      if (step.max_rep == 1) return body;
      Step loop = step;
      loop.min_rep = 1;
      loop.body = std::move(*body);
      return Program{std::move(loop)};
    }
  }
  return std::nullopt;
}

/// The non-empty matches of `program`. When every step is nullable, such a
/// match starts at its first step that consumes something: the Union over
/// i of [s_i − ε, s_i+1, ..., s_n].
std::optional<Program> NonEmpty(const Program& program) {
  if (!Nullable(program)) return program;
  std::vector<Program> branches;
  for (size_t i = 0; i < program.size(); ++i) {
    std::optional<Program> head = NonEmpty(program[i]);
    if (!head) continue;
    head->insert(head->end(),
                 program.begin() + static_cast<std::ptrdiff_t>(i + 1),
                 program.end());
    branches.push_back(std::move(*head));
  }
  return OneOf(std::move(branches));
}

/// An open repetition's Loop, rewritten so that every round appends an
/// element to every path it builds (see the header comment): a nullable
/// body is replaced by its non-empty part with min_rep 0, or the whole
/// repetition by the empty program when ε is the body's only match; then
/// a body that is one Loop with min_rep 1 gives way to that Loop's body.
Program OpenLoop(Step loop) {
  if (Nullable(loop.body)) {
    std::optional<Program> body = NonEmpty(loop.body);
    if (!body) return {};
    loop.body = std::move(*body);
    loop.min_rep = 0;
  }
  while (loop.body.size() == 1 && loop.body[0].kind == Step::Kind::kLoop &&
         loop.body[0].min_rep == 1) {
    Program inner = std::move(loop.body[0].body);
    loop.body = std::move(inner);
  }
  return {std::move(loop)};
}

}  // namespace

Program EmitProgram(const LogicalNode& node) {
  switch (node.kind) {
    case LogicalNode::Kind::kAtom: {
      if (node.pruned) return {};
      Step step;
      step.kind = Step::Kind::kAtom;
      step.atom = node.atom;
      return {std::move(step)};
    }
    case LogicalNode::Kind::kSeq: {
      Program out;
      for (const LogicalNode& child : node.children) {
        // A pruned optional child matches only the empty sequence.
        if (child.pruned) continue;
        Program part = EmitProgram(child);
        out.insert(out.end(), std::make_move_iterator(part.begin()),
                   std::make_move_iterator(part.end()));
      }
      return out;
    }
    case LogicalNode::Kind::kAlt: {
      Step step;
      step.kind = Step::Kind::kUnion;
      for (const LogicalNode& child : node.children) {
        if (child.pruned) {
          // A pruned optional branch still matches the empty sequence; a
          // pruned mandatory branch emits nothing at all.
          if (child.is_optional()) step.branches.push_back(Program{});
          continue;
        }
        step.branches.push_back(EmitProgram(child));
      }
      return {std::move(step)};
    }
    case LogicalNode::Kind::kRep: {
      if (node.pruned) return {};
      Step step;
      step.kind = Step::Kind::kLoop;
      step.min_rep = node.min_rep;
      step.max_rep = node.max_rep;
      step.body = EmitProgram(node.children[0]);
      if (node.max_rep == kUnboundedRep) return OpenLoop(std::move(step));
      return {std::move(step)};
    }
  }
  return {};
}

Program CompileSeededProgram(const RpeNode& rpe,
                             const storage::StorageBackend& backend,
                             const storage::TimeView& view, double seed_rows) {
  LogicalPlan plan = BuildLogicalPlan(rpe);
  OptimizeLogicalPlan(&plan, backend, view);
  if (plan.statically_empty) {
    // A Union with zero branches yields the empty path set: the seeds are
    // dropped instead of being finalized as trivial matches.
    Step dead;
    dead.kind = Step::Kind::kUnion;
    dead.est_rows = 0;
    return {std::move(dead)};
  }
  Program program = EmitProgram(plan.root);
  if (seed_rows >= 0) {
    CostEstimator est(backend, view);
    // Seeds are bare node frontiers not yet recorded in the path.
    TraversalState st{nullptr, false};
    double work = 0;
    AnnotateProgram(&program, seed_rows, storage::Direction::kOut, &st, est,
                    &work);
  }
  return program;
}

// ---- Anchor selection (stage 2, candidate enumeration) ----

namespace {

/// One costed anchor occurrence: the split programs plus the figures the
/// optimizer minimizes. Memoized per logical atom node.
struct CostedOccurrence {
  double scan_raw = 0;   // bare EstimateScan (the legacy anchor cost)
  double total = 0;      // scan + estimated traversal work
  int conditions = 0;
  Program reversed_prefix;
  Program suffix;
  double est_after_suffix = -1;
  double est_rows = -1;
};

struct Candidate {
  std::vector<const LogicalNode*> atoms;
  double total = 0;
  double scan_total = 0;
  int conditions = 0;
};

/// Strict "a beats b" with a relative epsilon: on (near-)equal totals the
/// candidate carrying more conditions wins (a conditioned atom is the
/// better anchor even when the estimates tie), then the earlier one.
bool Better(double a_total, int a_conds, double b_total, int b_conds) {
  double eps = 1e-9 * std::max({1.0, std::fabs(a_total), std::fabs(b_total)});
  if (a_total < b_total - eps) return true;
  if (a_total > b_total + eps) return false;
  return a_conds > b_conds;
}

/// Splits the optimized logical tree around the `target` atom: `prefix`
/// holds the program for everything left of the anchor (in RPE order) and
/// `suffix` everything right of it.
bool SplitAroundAnchor(const LogicalNode& node, const LogicalNode* target,
                       Program* prefix, Program* suffix) {
  if (&node == target) return true;
  switch (node.kind) {
    case LogicalNode::Kind::kAtom:
      return false;
    case LogicalNode::Kind::kSeq: {
      for (size_t i = 0; i < node.children.size(); ++i) {
        if (!SplitAroundAnchor(node.children[i], target, prefix, suffix)) {
          continue;
        }
        Program before;
        for (size_t j = 0; j < i; ++j) {
          Program part = EmitProgram(node.children[j]);
          before.insert(before.end(), std::make_move_iterator(part.begin()),
                        std::make_move_iterator(part.end()));
        }
        prefix->insert(prefix->begin(),
                       std::make_move_iterator(before.begin()),
                       std::make_move_iterator(before.end()));
        for (size_t j = i + 1; j < node.children.size(); ++j) {
          Program part = EmitProgram(node.children[j]);
          suffix->insert(suffix->end(), std::make_move_iterator(part.begin()),
                         std::make_move_iterator(part.end()));
        }
        return true;
      }
      return false;
    }
    case LogicalNode::Kind::kAlt: {
      for (const LogicalNode& child : node.children) {
        if (child.pruned) continue;
        if (SplitAroundAnchor(child, target, prefix, suffix)) {
          // The other branches are covered by their own anchor occurrences.
          return true;
        }
      }
      return false;
    }
    case LogicalNode::Kind::kRep: {
      if (!SplitAroundAnchor(node.children[0], target, prefix, suffix)) {
        return false;
      }
      // The anchor sits in the first iteration; the remaining iterations
      // form Rep(r, n-1, m-1) on the suffix side. An unbounded maximum
      // stays unbounded: {1,∞} minus one iteration is {0,∞}.
      const bool unbounded = node.max_rep == kUnboundedRep;
      if (unbounded || node.max_rep - 1 >= 1) {
        LogicalNode rest;
        rest.kind = LogicalNode::Kind::kRep;
        rest.children.push_back(node.children[0]);
        rest.min_rep = std::max(node.min_rep - 1, 0);
        rest.max_rep = unbounded ? kUnboundedRep : node.max_rep - 1;
        Program part = EmitProgram(rest);
        suffix->insert(suffix->end(), std::make_move_iterator(part.begin()),
                       std::make_move_iterator(part.end()));
      }
      return true;
    }
  }
  return false;
}

struct AnchorContext {
  const LogicalNode* root;
  const CostEstimator* est;
  std::map<const LogicalNode*, CostedOccurrence> memo;
};

CostedOccurrence& CostOccurrence(AnchorContext* ctx, const LogicalNode* atom) {
  auto it = ctx->memo.find(atom);
  if (it != ctx->memo.end()) return it->second;
  CostedOccurrence occ;
  occ.scan_raw = ctx->est->ScanRaw(atom->atom);
  occ.conditions = static_cast<int>(atom->atom.conditions.size());
  Program prefix;
  SplitAroundAnchor(*ctx->root, atom, &prefix, &occ.suffix);
  occ.reversed_prefix = ReverseProgram(prefix);
  // Annotate both sides with row estimates (cardinality × expected
  // traversal fan-out). Execution runs the suffix forwards first, then the
  // reversed prefix backwards over the survivors.
  double work = 0;
  TraversalState st =
      AnchorState(atom->atom, storage::Direction::kOut, *ctx->est);
  double rows = ctx->est->Scan(atom->atom);
  occ.est_after_suffix = AnnotateProgram(&occ.suffix, rows,
                                         storage::Direction::kOut, &st,
                                         *ctx->est, &work);
  TraversalState pst =
      AnchorState(atom->atom, storage::Direction::kIn, *ctx->est);
  occ.est_rows = AnnotateProgram(&occ.reversed_prefix, occ.est_after_suffix,
                                 storage::Direction::kIn, &pst, *ctx->est,
                                 &work);
  occ.total = ctx->est->Scan(atom->atom) + work;
  return ctx->memo.emplace(atom, std::move(occ)).first->second;
}

/// Enumerates anchor candidates per the paper's rules (Section 5.1). Empty
/// result means "no anchor in this subtree".
std::vector<Candidate> EnumerateCandidates(const LogicalNode& node,
                                           AnchorContext* ctx) {
  if (node.pruned) return {};
  switch (node.kind) {
    case LogicalNode::Kind::kAtom: {
      const CostedOccurrence& occ = CostOccurrence(ctx, &node);
      Candidate c;
      c.atoms = {&node};
      c.total = occ.total;
      c.scan_total = occ.scan_raw;
      c.conditions = occ.conditions;
      return {std::move(c)};
    }
    case LogicalNode::Kind::kSeq: {
      std::vector<Candidate> out;
      for (const LogicalNode& child : node.children) {
        std::vector<Candidate> sub = EnumerateCandidates(child, ctx);
        out.insert(out.end(), std::make_move_iterator(sub.begin()),
                   std::make_move_iterator(sub.end()));
      }
      return out;
    }
    case LogicalNode::Kind::kAlt: {
      // Cross product of per-branch candidate sets, approximated (as in
      // the paper) by the union of each branch's best. Pruned mandatory
      // branches need no anchor; a branch reduced to the empty match makes
      // the whole Alt unanchorable (like any other unanchorable branch).
      Candidate combined;
      for (const LogicalNode& child : node.children) {
        if (child.pruned && !child.is_optional()) continue;
        std::vector<Candidate> sub = EnumerateCandidates(child, ctx);
        if (sub.empty()) return {};  // unanchorable branch => Alt is too
        const Candidate* best = &sub[0];
        for (const Candidate& c : sub) {
          if (Better(c.total, c.conditions, best->total, best->conditions)) {
            best = &c;
          }
        }
        combined.atoms.insert(combined.atoms.end(), best->atoms.begin(),
                              best->atoms.end());
        combined.total += best->total;
        combined.scan_total += best->scan_total;
        combined.conditions += best->conditions;
      }
      if (combined.atoms.empty()) return {};
      return {std::move(combined)};
    }
    case LogicalNode::Kind::kRep:
      // Rep(r,n,m) ~ Seq(r, Rep(r,n-1,m-1)): the first iteration is
      // mandatory iff n >= 1.
      if (node.min_rep == 0) return {};
      return EnumerateCandidates(node.children[0], ctx);
  }
  return {};
}

}  // namespace

Result<MatchPlan> PlanMatch(const RpeNode& rpe,
                            const storage::StorageBackend& backend,
                            const PlanOptions& /*options*/,
                            const storage::TimeView& view) {
  LogicalPlan logical = BuildLogicalPlan(rpe);
  OptimizeLogicalPlan(&logical, backend, view);

  MatchPlan plan;
  plan.logical = logical.ToString();
  plan.rewrites = logical.rewrites;
  if (logical.statically_empty) {
    plan.statically_empty = true;
    return plan;
  }

  CostEstimator est(backend, view);
  AnchorContext ctx{&logical.root, &est, {}};
  std::vector<Candidate> candidates = EnumerateCandidates(logical.root, &ctx);
  if (candidates.empty()) {
    return Status::PlanError(
        "RPE '" + rpe.ToString() +
        "' has no anchor: every atom sits inside a {0,n} repetition block. "
        "Rewrite the RPE or provide an anchor through a join.");
  }
  const Candidate* best = &candidates[0];
  for (const Candidate& c : candidates) {
    if (Better(c.total, c.conditions, best->total, best->conditions)) {
      best = &c;
    }
  }
  plan.total_cost = best->scan_total;
  plan.optimizer_cost = best->total;
  for (const LogicalNode* atom : best->atoms) {
    CostedOccurrence& occ = CostOccurrence(&ctx, atom);
    AnchoredPlan anchored;
    anchored.anchor = atom->atom;
    anchored.anchor_cost = occ.scan_raw;
    anchored.est_after_suffix = occ.est_after_suffix;
    anchored.est_rows = occ.est_rows;
    anchored.reversed_prefix = std::move(occ.reversed_prefix);
    anchored.suffix = std::move(occ.suffix);
    PlanGoals(&anchored.suffix, storage::Direction::kOut, est);
    PlanGoals(&anchored.reversed_prefix, storage::Direction::kIn, est);
    plan.anchors.push_back(std::move(anchored));
  }
  return plan;
}

std::string MatchPlan::ToString() const {
  std::string out;
  if (!logical.empty()) out += "logical  : " + logical + "\n";
  for (const std::string& rw : rewrites) {
    out += "rewrite  : " + rw + "\n";
  }
  if (statically_empty) {
    out += "statically empty: the allowed-edge rules admit no match";
    return out;
  }
  for (size_t i = 0; i < anchors.size(); ++i) {
    const AnchoredPlan& a = anchors[i];
    if (i > 0) out += "\n";
    out += "anchor " + a.anchor.ToString() + " (cost " +
           std::to_string(a.anchor_cost) + ")\n";
    out += "  forwards : " + ProgramToStringWithEstimates(a.suffix) + "\n";
    out += "  backwards: " + ProgramToStringWithEstimates(a.reversed_prefix);
  }
  return out;
}

}  // namespace nepal::nql
