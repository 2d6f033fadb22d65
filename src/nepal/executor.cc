#include "nepal/executor.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "nepal/optimizer.h"

namespace nepal::nql {

using storage::Direction;
using storage::PathSet;
using storage::PathState;
using storage::TimeView;

namespace {

/// Below this many frontier states a shard is not worth the scheduling
/// overhead; the step runs serially.
constexpr size_t kMinStatesPerShard = 8;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Resolved concurrency settings for one MATCHES evaluation. Per-state
/// independence of the extension operators (the paper's Section 3.3
/// operators never look across states) is what makes frontier sharding
/// legal.
struct ParallelContext {
  common::ThreadPool* pool = nullptr;
  size_t parallelism = 1;
  /// Operator-stats sink for this evaluation (null: not instrumented).
  obs::QueryStatsGroup* stats = nullptr;
  /// Whether goal-directed Loops label their goal. Off for RunAnchoredFrom:
  /// its callers run one plan per anchor seed, and a goal depth chosen for
  /// a whole anchor Select would pay the labelling once per seed.
  bool label_goals = true;

  bool enabled() const { return pool != nullptr && parallelism > 1; }
};

ParallelContext ContextFor(const PlanOptions& options) {
  ParallelContext ctx;
  ctx.parallelism = EffectiveParallelism(options);
  if (ctx.parallelism > 1) ctx.pool = &common::ThreadPool::Shared();
  return ctx;
}

/// Short operator rendering for the stats table.
std::string StepLabel(const Step& step) {
  switch (step.kind) {
    case Step::Kind::kAtom:
      return "Extend " + step.atom.ToString();
    case Step::Kind::kUnion:
      return "Union x" + std::to_string(step.branches.size());
    case Step::Kind::kLoop: {
      const std::string rep = RepSuffix(step.min_rep, step.max_rep);
      if (auto atoms = AsAtomAlternation(step.body)) {
        std::string alts;
        for (size_t i = 0; i < atoms->size(); ++i) {
          if (i > 0) alts += "|";
          alts += (*atoms)[i].ToString();
        }
        return "ExtendBlock" + rep + " " + alts;
      }
      return "Loop" + rep;
    }
  }
  return "?";
}

/// The paths an open Loop over a general body reached in its rounds at or
/// past min_rep, each stored once: its uids flattened into one arena, the
/// rest of its identity beside them. Lookups go through a PathIndex on
/// PathState::IdentityHash, confirmed field by field.
class PathMemo {
 public:
  /// Records `p`; false if a path with its identity was recorded before.
  bool Insert(const PathState& p) {
    const bool inserted =
        index_
            .Insert(p.IdentityHash(),
                    [&](uint32_t other) { return Same(other, p); })
            .second;
    if (inserted) {
      paths_.push_back({uids_.size(), p.uids.size(), p.frontier,
                        p.frontier_in_path, p.valid});
      uids_.insert(uids_.end(), p.uids.begin(), p.uids.end());
    }
    return inserted;
  }

  /// Keeps, in order, the paths of `paths` recorded here for the first
  /// time, recording them: what is left is deduplicated and new.
  void Filter(PathSet* paths) {
    PathSet& all = *paths;
    size_t kept = 0;
    for (size_t i = 0; i < all.size(); ++i) {
      if (!Insert(all[i])) continue;
      if (kept != i) all[kept] = std::move(all[i]);
      ++kept;
    }
    all.erase(all.begin() + static_cast<std::ptrdiff_t>(kept), all.end());
  }

 private:
  struct Identity {
    size_t offset;  // into uids_
    size_t length;
    Uid frontier;
    bool frontier_in_path;
    Interval valid;
  };

  bool Same(uint32_t id, const PathState& p) const {
    const Identity& m = paths_[id];
    return m.frontier == p.frontier &&
           m.frontier_in_path == p.frontier_in_path &&
           m.valid.start == p.valid.start && m.valid.end == p.valid.end &&
           m.length == p.uids.size() &&
           std::equal(p.uids.begin(), p.uids.end(),
                      uids_.begin() + static_cast<std::ptrdiff_t>(m.offset));
  }

  std::vector<Identity> paths_;
  std::vector<Uid> uids_;
  storage::PathIndex index_;
};

/// Node distances to a goal-directed Loop's goal (Step::goal_depth): every
/// node within goal_depth body hops of a goal match, hops taken in the
/// Loop's direction, labelled with its fewest hops (an open Loop's goal
/// depth is 0: the goal's matches alone) in a flat storage::GoalHops
/// table. Built once per logical Loop invocation by a backward search from
/// the goal's matches through the same operators and time view as the Loop
/// itself, so a label is a lower bound on the hops any path from that node
/// needs (simple-path and validity constraints only lengthen a path). Every
/// shard of the invocation reads the one table through its RoundFilter.
class GoalLabels {
 public:
  GoalLabels(storage::PathOperatorExecutor& exec, const Step& loop,
             const storage::CompiledAtom& goal, Direction dir,
             const TimeView& view)
      : depth_(loop.goal_depth) {
    std::vector<Uid> level;
    for (const PathState& p : exec.Select(goal, view)) {
      if (hops_.Insert(p.frontier, 0)) level.push_back(p.frontier);
    }
    targets_ = level.size();
    const Direction back =
        dir == Direction::kOut ? Direction::kIn : Direction::kOut;
    const std::vector<storage::CompiledAtom> atoms =
        *AsAtomAlternation(loop.body);
    for (int hop = 1; hop <= depth_ && !level.empty(); ++hop) {
      const PathSet seeds = exec.SelectSeeds(level, view);
      level.clear();
      for (const storage::CompiledAtom& atom : atoms) {
        for (const PathState& p : exec.ExtendAtom(seeds, atom, back, view)) {
          if (hops_.Insert(p.frontier, hop)) level.push_back(p.frontier);
        }
      }
    }
  }

  size_t targets() const { return targets_; }
  size_t labelled() const { return hops_.size(); }

  /// Whether the goal's Extend can accept `p`: its frontier is a goal match
  /// (hop 0) or already in the path (the Extend then walks one implicit
  /// edge). A frontier with no version matching the goal in the view fails
  /// that Extend, so the Loop hands on only the paths this accepts.
  bool Collects(const PathState& p) const {
    return p.frontier_in_path || hops_.Find(p.frontier) == 0;
  }

  /// A round filter over these labels for one invocation of `loop`, its
  /// rounds left still to be set. Its edge Extends then build only the
  /// children that pass the goal-distance test — the paths the goal's
  /// Extend would drop never get copied — and that are goal matches or can
  /// be extended by the next round. An open Loop's rounds left
  /// (kUnboundedRep - round) never fall to its depth 0: it is never pruned,
  /// only looked ahead for.
  storage::RoundFilter Filter(const Step& loop) const {
    return {&hops_, depth_, 0, *AsAtomAlternation(loop.body)};
  }

 private:
  int depth_;
  size_t targets_ = 0;
  storage::GoalHops hops_;
};

/// Points every atom of `program` at `filter`.
void AttachFilter(Program* program, const storage::RoundFilter* filter) {
  for (Step& step : *program) {
    step.atom.round_filter = filter;
    for (Program& branch : step.branches) AttachFilter(&branch, filter);
    AttachFilter(&step.body, filter);
  }
}

/// Registers one stats node per step (and one labelling node before each
/// goal-directed Loop), recursing into union branches and general loop
/// bodies. An atom-alternation body is reported as its Loop's one
/// ExtendBlock node (the paper's repetition block): its per-round steps
/// are not recorded individually.
void RegisterProgram(Program* program, obs::QueryStatsGroup* stats) {
  for (size_t i = 0; i < program->size(); ++i) {
    Step& step = (*program)[i];
    if (step.goal_directed()) {
      step.goal_op_id = stats->AddOp(
          "GoalLabel{" + std::to_string(step.goal_depth) + "} " +
              (*program)[i + 1].atom.ToString(),
          -1);
    }
    step.op_id = stats->AddOp(StepLabel(step), step.est_rows);
    if (step.kind == Step::Kind::kUnion) {
      for (Program& branch : step.branches) RegisterProgram(&branch, stats);
    } else if (step.kind == Step::Kind::kLoop &&
               !AsAtomAlternation(step.body).has_value()) {
      RegisterProgram(&step.body, stats);
    }
  }
}

/// How much a step invocation records about itself. Shard slices of a
/// sharded step contribute only strategy-level fields (wall time, shard
/// count, and the builds of a CountsOwnBuilds step); the enclosing logical
/// invocation records the partition-invariant row counts once.
enum class RecordKind { kFull, kShardSlice };

/// Whether a step's `built` is its own count rather than its rows_out: a
/// Loop counts its rounds.
bool CountsOwnBuilds(const Step& step) {
  return step.kind == Step::Kind::kLoop;
}

/// Whether round `round` of `loop` needs a DedupPaths of its own (an open
/// general Loop's memo aside), so that each round is deduplicated once.
/// Not when the body's last step deduplicates its output: a Union, or a
/// Loop that collects no round 0 (its rounds are deduplicated and so is
/// their union; a round 0 is its input, which may repeat a path). Nor
/// after round 1 of a one-atom body. Round 1 is deduplicated — the
/// frontier may mix node-ended and edge-ended paths, which the atom can
/// extend to the same path — but later rounds cannot repeat a path: their
/// input ends in the atom's kind, so every parent gains the same number of
/// elements; children of parents with different uid lists differ, parents
/// with equal uid lists differ in versions, whose intervals are disjoint
/// and stay so in their children, and the children of one parent differ
/// in the matched element or in a version pair.
bool RoundNeedsDedup(const Step& loop, int round) {
  if (loop.body.empty()) return true;
  const Step& last = loop.body.back();
  if (last.kind == Step::Kind::kUnion ||
      (last.kind == Step::Kind::kLoop && last.min_rep >= 1)) {
    return false;
  }
  return round == 1 || loop.body.size() > 1 ||
         last.kind != Step::Kind::kAtom;
}

PathSet RunProgramCtx(storage::PathOperatorExecutor& exec,
                      const Program& program, const PathSet& input,
                      Direction dir, const TimeView& view,
                      const ParallelContext& ctx);

PathSet RunStepCtx(storage::PathOperatorExecutor& exec, const Step& step,
                   const PathSet& frontier, Direction dir,
                   const TimeView& view, const ParallelContext& ctx,
                   const GoalLabels* labels,
                   RecordKind record_kind = RecordKind::kFull);

/// Splits `frontier` into `shards` contiguous chunks, runs the step over
/// each chunk on the pool, and merges the outputs in shard order. Because
/// sharding is a pure function of (frontier size, parallelism) and each
/// state extends independently, the merged output is deterministic; the
/// cross-shard DedupPaths restores the single-frontier dedup semantics of
/// the serial step. `merged_before_dedup` reports the summed shard output
/// size (the pre-dedup row count of the logical invocation). Every shard
/// prunes with the logical invocation's `labels`.
PathSet RunStepSharded(storage::PathOperatorExecutor& exec, const Step& step,
                       const PathSet& frontier, Direction dir,
                       const TimeView& view, const ParallelContext& ctx,
                       const GoalLabels* labels, size_t shards,
                       size_t* merged_before_dedup) {
  std::vector<PathSet> inputs(shards);
  const size_t base = frontier.size() / shards;
  const size_t rem = frontier.size() % shards;
  size_t pos = 0;
  for (size_t s = 0; s < shards; ++s) {
    const size_t len = base + (s < rem ? 1 : 0);
    inputs[s].assign(frontier.begin() + static_cast<std::ptrdiff_t>(pos),
                     frontier.begin() + static_cast<std::ptrdiff_t>(pos + len));
    pos += len;
  }

  // Each shard runs the step serially; the parallelism budget is already
  // spent on the shard fan-out itself. The stats sink is carried over so
  // slices report their wall time and nested steps keep recording.
  ParallelContext serial;
  serial.stats = ctx.stats;
  std::vector<PathSet> outputs(shards);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    tasks.push_back([&exec, &step, dir, &view, &serial, labels, &inputs,
                     &outputs, s] {
      outputs[s] = RunStepCtx(exec, step, inputs[s], dir, view, serial,
                              labels, RecordKind::kShardSlice);
    });
  }
  ctx.pool->RunBatch(std::move(tasks));

  size_t total = 0;
  for (const PathSet& out : outputs) total += out.size();
  *merged_before_dedup = total;
  PathSet merged;
  merged.reserve(total);
  for (PathSet& out : outputs) {
    merged.insert(merged.end(), std::make_move_iterator(out.begin()),
                  std::make_move_iterator(out.end()));
  }
  // A plain Extend never dedups serially, so neither does its sharded form
  // (multiplicity must match); Union/Loop steps dedup their whole output.
  if (step.kind != Step::Kind::kAtom) storage::DedupPaths(&merged);
  return merged;
}

PathSet RunStepCtx(storage::PathOperatorExecutor& exec, const Step& step,
                   const PathSet& frontier, Direction dir,
                   const TimeView& view, const ParallelContext& ctx,
                   const GoalLabels* labels, RecordKind record_kind) {
  obs::QueryStatsGroup* stats = ctx.stats;
  const bool record = stats != nullptr && step.op_id >= 0;
  const size_t rows_in = frontier.size();
  const uint64_t start = record ? NowNs() : 0;

  if (ctx.enabled()) {
    size_t shards = std::min(ctx.parallelism * 2,
                             frontier.size() / kMinStatesPerShard);
    if (shards >= 2) {
      size_t before_dedup = 0;
      PathSet out = RunStepSharded(exec, step, frontier, dir, view, ctx,
                                   labels, shards, &before_dedup);
      if (record) {
        // The logical invocation: partition-invariant row counts. Wall
        // time and shard counts — and a Loop's builds — were recorded by
        // the slices themselves.
        obs::OpSample sample;
        sample.rows_in = rows_in;
        sample.rows_out = out.size();
        sample.dedup_dropped = before_dedup - out.size();
        sample.invocations = 1;
        if (!CountsOwnBuilds(step)) sample.built = out.size();
        stats->Record(step.op_id, sample);
      }
      return out;
    }
  }

  size_t before_dedup = 0;
  size_t built = 0;
  PathSet out;
  switch (step.kind) {
    case Step::Kind::kAtom:
      out = exec.ExtendAtom(frontier, step.atom, dir, view);
      before_dedup = built = out.size();
      break;
    case Step::Kind::kUnion: {
      for (const Program& branch : step.branches) {
        PathSet result = RunProgramCtx(exec, branch, frontier, dir, view,
                                       ctx);
        out.insert(out.end(), std::make_move_iterator(result.begin()),
                   std::make_move_iterator(result.end()));
      }
      before_dedup = out.size();
      storage::DedupPaths(&out);
      built = out.size();
      break;
    }
    case Step::Kind::kLoop: {
      // One round runs the body program over the previous round, which it
      // reads in place, and is deduplicated once. A goal-directed Loop runs
      // a copy of its body whose atoms carry its round filter, so that each
      // round builds only the paths it can use, and hands on only the paths
      // its goal's Extend can accept.
      int round = 0;
      std::function<bool(const PathState&)> keep;
      std::optional<storage::RoundFilter> filter;
      Program filtered_body;
      if (labels != nullptr) {
        keep = [labels](const PathState& p) { return labels->Collects(p); };
        filter.emplace(labels->Filter(step));
        filtered_body = step.body;
        AttachFilter(&filtered_body, &*filter);
      }
      const Program& body = filter ? filtered_body : step.body;
      // An open Loop over a general body may reach one path in several
      // rounds. From round max(min_rep, 1) on, it skips the paths an
      // earlier round at or past min_rep reached (round 0 when min_rep is
      // 0): their continuations land in collected rounds all the same.
      std::optional<PathMemo> memo;
      if (step.max_rep == kUnboundedRep &&
          !AsAtomAlternation(step.body).has_value()) {
        memo.emplace();
        if (step.min_rep == 0) {
          for (const PathState& p : frontier) memo->Insert(p);
        }
      }
      storage::RoundCounts counts;
      out = storage::RepeatRounds(
          frontier, step.min_rep, step.max_rep,
          [&](const PathSet& current) {
            ++round;
            if (filter) filter->rounds_left = step.max_rep - round;
            PathSet next = RunProgramCtx(exec, body, current, dir, view, ctx);
            if (memo && round >= step.min_rep) {
              memo->Filter(&next);
            } else if (RoundNeedsDedup(step, round)) {
              storage::DedupPaths(&next);
            }
            return next;
          },
          keep, &counts);
      before_dedup = counts.collected;
      built = counts.built;
      break;
    }
  }

  if (record) {
    obs::OpSample sample;
    sample.wall_ns = NowNs() - start;
    sample.shards = 1;
    if (record_kind == RecordKind::kFull || CountsOwnBuilds(step)) {
      sample.built = built;
    }
    if (record_kind == RecordKind::kFull) {
      sample.rows_in = rows_in;
      sample.rows_out = out.size();
      sample.dedup_dropped = before_dedup - out.size();
      sample.invocations = 1;
    }
    stats->Record(step.op_id, sample);
  }
  return out;
}

/// Labels the goal of `program[i]`, when it is a goal-directed Loop, once
/// for the logical invocation, recording the targets and the nodes
/// labelled. The goal is the next step's atom.
std::optional<GoalLabels> LabelGoal(storage::PathOperatorExecutor& exec,
                                    const Program& program, size_t i,
                                    Direction dir, const TimeView& view,
                                    const ParallelContext& ctx) {
  const Step& loop = program[i];
  if (!loop.goal_directed() || !ctx.label_goals) return std::nullopt;
  const bool record = ctx.stats != nullptr && loop.goal_op_id >= 0;
  const uint64_t start = record ? NowNs() : 0;
  std::optional<GoalLabels> labels(std::in_place, exec, loop,
                                   program[i + 1].atom, dir, view);
  if (record) {
    ctx.stats->Record(loop.goal_op_id,
                      obs::OpSample::Invocation(labels->targets(),
                                                labels->labelled(),
                                                NowNs() - start));
  }
  return labels;
}

/// Runs `program` over `input`, which stays intact: the first step reads
/// it in place.
PathSet RunProgramCtx(storage::PathOperatorExecutor& exec,
                      const Program& program, const PathSet& input,
                      Direction dir, const TimeView& view,
                      const ParallelContext& ctx) {
  if (program.empty()) return input;
  PathSet frontier;
  for (size_t i = 0; i < program.size(); ++i) {
    const PathSet& in = i == 0 ? input : frontier;
    if (in.empty()) return PathSet();
    const std::optional<GoalLabels> labels =
        LabelGoal(exec, program, i, dir, view, ctx);
    frontier = RunStepCtx(exec, program[i], in, dir, view, ctx,
                          labels ? &*labels : nullptr);
  }
  return frontier;
}

void ReverseAll(PathSet* paths) {
  for (PathState& state : *paths) state.Reverse();
}

/// Stats node ids of the non-step operators of one anchored plan.
struct AnchorOpIds {
  int select = -1;
  int finalize_tail = -1;
  int finalize_head = -1;
};

/// Times `fn` and records an (rows_in, rows_out) sample against `op_id`.
PathSet RecordedCall(obs::QueryStatsGroup* stats, int op_id, size_t rows_in,
                     const std::function<PathSet()>& fn) {
  if (stats == nullptr || op_id < 0) return fn();
  const uint64_t start = NowNs();
  PathSet out = fn();
  stats->Record(op_id, obs::OpSample::Invocation(rows_in, out.size(),
                                                 NowNs() - start));
  return out;
}

/// Closes the growing end of `paths` (FinalizeTail), recorded against
/// `op_id`. When no state has a pending frontier node, FinalizeTail would
/// return a copy of its input: the paths pass through instead, and the
/// sample is recorded all the same.
PathSet Finalize(storage::PathOperatorExecutor& exec, PathSet paths,
                 const TimeView& view, obs::QueryStatsGroup* stats,
                 int op_id) {
  const bool pending =
      std::any_of(paths.begin(), paths.end(),
                  [](const PathState& p) { return !p.frontier_in_path; });
  return RecordedCall(stats, op_id, paths.size(), [&] {
    return pending ? exec.FinalizeTail(paths, view) : std::move(paths);
  });
}

/// The seeds-in half of an anchored plan: grow the suffix forwards, then
/// the prefix backwards over the reversed states.
PathSet RunFromSeeds(storage::PathOperatorExecutor& exec,
                     const AnchoredPlan& anchored, PathSet current,
                     const TimeView& view, const ParallelContext& ctx,
                     const AnchorOpIds& ids) {
  if (!anchored.suffix.empty()) {
    current = RunProgramCtx(exec, anchored.suffix, current, Direction::kOut,
                            view, ctx);
  }
  current = Finalize(exec, std::move(current), view, ctx.stats,
                     ids.finalize_tail);
  // With no prefix to grow and every head already closed, the reversals
  // cancel out and Finalize(head) passes the paths through: record that
  // pass-through without reversing anything.
  if (anchored.reversed_prefix.empty() &&
      std::all_of(current.begin(), current.end(),
                  [](const PathState& p) { return p.head_in_path; })) {
    return RecordedCall(ctx.stats, ids.finalize_head, current.size(),
                        [&] { return std::move(current); });
  }
  ReverseAll(&current);
  if (!anchored.reversed_prefix.empty()) {
    current = RunProgramCtx(exec, anchored.reversed_prefix, current,
                            Direction::kIn, view, ctx);
  }
  current = Finalize(exec, std::move(current), view, ctx.stats,
                     ids.finalize_head);
  ReverseAll(&current);
  return current;
}

/// One anchored plan, end to end: Select the anchor, then RunFromSeeds.
PathSet RunAnchoredPlan(storage::PathOperatorExecutor& exec,
                        const AnchoredPlan& anchored, const TimeView& view,
                        const ParallelContext& ctx, const AnchorOpIds& ids) {
  PathSet current = RecordedCall(ctx.stats, ids.select, 0, [&] {
    return exec.Select(anchored.anchor, view);
  });
  return RunFromSeeds(exec, anchored, std::move(current), view, ctx, ids);
}

}  // namespace

PathSet RunAnchoredFrom(storage::PathOperatorExecutor& exec,
                        const AnchoredPlan& anchored, PathSet seeds,
                        const TimeView& view) {
  ParallelContext ctx;
  ctx.label_goals = false;
  return RunFromSeeds(exec, anchored, std::move(seeds), view, ctx,
                      AnchorOpIds{});
}

Result<PathSet> EvaluateMatch(storage::PathOperatorExecutor& exec,
                              const storage::StorageBackend& backend,
                              const RpeNode& resolved_rpe,
                              const TimeView& view,
                              const PlanOptions& options,
                              obs::QueryStatsGroup* stats) {
  NEPAL_ASSIGN_OR_RETURN(MatchPlan plan,
                         PlanMatch(resolved_rpe, backend, options, view));
  return ExecuteMatch(exec, plan, view, options, stats);
}

PathSet ExecuteMatch(storage::PathOperatorExecutor& exec, MatchPlan& plan,
                     const TimeView& view, const PlanOptions& options,
                     obs::QueryStatsGroup* stats) {
  ParallelContext ctx = ContextFor(options);
  ctx.stats = stats;

  // Register every operator node up front — ids live in the plan's steps,
  // and registration must be sequenced before any (possibly concurrent)
  // recording.
  std::vector<AnchorOpIds> ids(plan.anchors.size());
  int merge_id = -1;
  if (stats != nullptr) {
    double merge_est = plan.anchors.empty() ? 0 : -1;
    for (size_t i = 0; i < plan.anchors.size(); ++i) {
      AnchoredPlan& anchored = plan.anchors[i];
      ids[i].select = stats->AddOp("Select " + anchored.anchor.ToString(),
                                   anchored.anchor_cost);
      RegisterProgram(&anchored.suffix, stats);
      ids[i].finalize_tail =
          stats->AddOp("Finalize(tail)", anchored.est_after_suffix);
      RegisterProgram(&anchored.reversed_prefix, stats);
      ids[i].finalize_head = stats->AddOp("Finalize(head)", anchored.est_rows);
      if (anchored.est_rows >= 0) {
        merge_est = merge_est < 0 ? anchored.est_rows
                                  : merge_est + anchored.est_rows;
      }
    }
    merge_id = stats->AddOp("Merge " + std::to_string(plan.anchors.size()) +
                                " anchor(s)",
                            merge_est);
  }

  PathSet all;
  if (ctx.enabled() && plan.anchors.size() > 1) {
    // Anchored plans are independent of one another (their union is the
    // match result): evaluate them concurrently, merge in plan order.
    std::vector<PathSet> results(plan.anchors.size());
    std::vector<std::function<void()>> tasks;
    tasks.reserve(plan.anchors.size());
    for (size_t i = 0; i < plan.anchors.size(); ++i) {
      tasks.push_back([&exec, &plan, &view, &ctx, &results, &ids, i] {
        results[i] = RunAnchoredPlan(exec, plan.anchors[i], view, ctx,
                                     ids[i]);
      });
    }
    ctx.pool->RunBatch(std::move(tasks));
    for (PathSet& result : results) {
      all.insert(all.end(), std::make_move_iterator(result.begin()),
                 std::make_move_iterator(result.end()));
    }
  } else {
    for (size_t i = 0; i < plan.anchors.size(); ++i) {
      PathSet current = RunAnchoredPlan(exec, plan.anchors[i], view, ctx,
                                        ids[i]);
      all.insert(all.end(), std::make_move_iterator(current.begin()),
                 std::make_move_iterator(current.end()));
    }
  }
  const size_t before_dedup = all.size();
  const uint64_t merge_start = stats != nullptr ? NowNs() : 0;
  storage::DedupPaths(&all);
  // Parallel mode pins the output to canonical order: the result is then
  // byte-identical for every thread count, machine, and anchor choice.
  // parallelism == 1 keeps the historical serial order untouched.
  if (ctx.enabled()) storage::CanonicalizePaths(&all);
  if (stats != nullptr) {
    obs::OpSample sample = obs::OpSample::Invocation(
        before_dedup, all.size(), NowNs() - merge_start);
    sample.dedup_dropped = before_dedup - all.size();
    stats->Record(merge_id, sample);
  }
  return all;
}

SeededPlan PlanMatchSeeded(const RpeNode& resolved_rpe,
                           const storage::StorageBackend& backend,
                           size_t seed_count, SeedSide side,
                           const TimeView& view) {
  // Compile unannotated, orient for the seeded side, then annotate with
  // row estimates in the direction the program will actually run.
  SeededPlan plan;
  plan.side = side;
  Program compiled = CompileSeededProgram(resolved_rpe, backend, view, -1);
  plan.program = side == SeedSide::kSource ? std::move(compiled)
                                           : ReverseProgram(compiled);
  CostEstimator est(backend, view);
  TraversalState st{nullptr, false};  // seeds: bare node frontiers
  double work = 0;
  const Direction dir =
      side == SeedSide::kSource ? Direction::kOut : Direction::kIn;
  plan.est_rows = AnnotateProgram(&plan.program,
                                  static_cast<double>(seed_count), dir, &st,
                                  est, &work);
  PlanGoals(&plan.program, dir, est);
  return plan;
}

PathSet ExecuteMatchSeeded(storage::PathOperatorExecutor& exec,
                           SeededPlan& plan, const std::vector<Uid>& seeds,
                           const TimeView& view, const PlanOptions& options,
                           obs::QueryStatsGroup* stats) {
  ParallelContext ctx = ContextFor(options);
  ctx.stats = stats;
  int select_id = -1, finalize_id = -1, merge_id = -1;
  if (stats != nullptr) {
    select_id =
        stats->AddOp("SelectSeeds", static_cast<double>(seeds.size()));
    RegisterProgram(&plan.program, stats);
    finalize_id = stats->AddOp("Finalize(tail)", plan.est_rows);
    merge_id = stats->AddOp("Merge 1 anchor(s)", plan.est_rows);
  }
  PathSet current = RecordedCall(stats, select_id, seeds.size(), [&] {
    return exec.SelectSeeds(seeds, view);
  });
  current = RunProgramCtx(exec, plan.program, current,
                          plan.side == SeedSide::kSource ? Direction::kOut
                                                         : Direction::kIn,
                          view, ctx);
  current = Finalize(exec, std::move(current), view, stats, finalize_id);
  if (plan.side == SeedSide::kTarget) ReverseAll(&current);
  const size_t before_dedup = current.size();
  const uint64_t merge_start = stats != nullptr ? NowNs() : 0;
  storage::DedupPaths(&current);
  if (ctx.enabled()) storage::CanonicalizePaths(&current);
  if (stats != nullptr) {
    obs::OpSample sample = obs::OpSample::Invocation(
        before_dedup, current.size(), NowNs() - merge_start);
    sample.dedup_dropped = before_dedup - current.size();
    stats->Record(merge_id, sample);
  }
  return current;
}

}  // namespace nepal::nql
