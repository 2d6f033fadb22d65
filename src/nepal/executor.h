// Program evaluation: drives a backend's PathOperatorExecutor through the
// step list of an anchored plan. Every repetition is a Loop step whose
// rounds the executor runs itself (storage::RepeatRounds), deduplicating
// each round once; an open Loop over a body that is not an atom
// alternation also skips the paths its earlier collected rounds reached.
// A goal-directed Loop runs a copy of its body whose atoms carry its
// storage::RoundFilter, so that the backends build only the paths it can
// extend or hand on.

#ifndef NEPAL_NEPAL_EXECUTOR_H_
#define NEPAL_NEPAL_EXECUTOR_H_

#include "nepal/plan.h"
#include "obs/query_stats.h"
#include "storage/pathset.h"

namespace nepal::nql {

/// The seeds-in half of one anchored plan, exactly as ExecuteMatch runs
/// it: grows anchor states (any subset of what its Select returns) through
/// the suffix, then the reversed prefix, finalizing both ends. Serial.
/// Goal-directed Loops run unpruned here (same rows): callers run one seed
/// group at a time, and a goal depth sized for a whole anchor Select would
/// repeat its labelling per group.
storage::PathSet RunAnchoredFrom(storage::PathOperatorExecutor& exec,
                                 const AnchoredPlan& anchored,
                                 storage::PathSet seeds,
                                 const storage::TimeView& view);

/// Evaluates a planned MATCHES predicate: Select each anchor, extend
/// forwards/backwards, finalize both ends, merge. Returns canonical
/// (source-to-target ordered) completed paths, deduplicated. The plan a
/// caller costed or explained is the one that runs.
///
/// When `stats` is non-null, the evaluation registers one operator node
/// per Select/Extend/Union/Loop step, plus one GoalLabel node per
/// goal-directed Loop (writing the op ids into `plan`'s steps), and
/// records rows_in / rows_out / dedup_dropped / shards / wall_ns samples
/// into it; recording is associative (see obs/query_stats.h), so it works
/// under any PlanOptions::parallelism.
storage::PathSet ExecuteMatch(storage::PathOperatorExecutor& exec,
                              MatchPlan& plan, const storage::TimeView& view,
                              const PlanOptions& options,
                              obs::QueryStatsGroup* stats = nullptr);

/// PlanMatch followed by ExecuteMatch, for a caller that already holds
/// the source's mutex shared (or reads a store no one writes) and runs
/// `exec` without locking. The engine plans and executes separately; this
/// stays for nepalbench's per-layer decomposition.
Result<storage::PathSet> EvaluateMatch(storage::PathOperatorExecutor& exec,
                                       const storage::StorageBackend& backend,
                                       const RpeNode& resolved_rpe,
                                       const storage::TimeView& view,
                                       const PlanOptions& options,
                                       obs::QueryStatsGroup* stats = nullptr);

enum class SeedSide { kSource, kTarget };

/// A seeded evaluation (imported anchor), compiled: the pathway's source
/// (or target) node is pinned to a seed, so no structural anchor is needed.
/// `program` is oriented for `side` and annotated with row estimates.
struct SeededPlan {
  Program program;
  SeedSide side = SeedSide::kSource;
  double est_rows = -1;  // estimated result rows
};

/// Compiles and annotates a seeded evaluation from `seed_count` seeds. The
/// backend supplies the statistics for the optimizer rewrites and the row
/// estimates, so the caller holds the source's mutex shared.
SeededPlan PlanMatchSeeded(const RpeNode& resolved_rpe,
                           const storage::StorageBackend& backend,
                           size_t seed_count, SeedSide side,
                           const storage::TimeView& view);

/// Runs a seeded plan from `seeds`: SelectSeeds, the program, finalize,
/// dedup. Records stats the way ExecuteMatch does.
storage::PathSet ExecuteMatchSeeded(storage::PathOperatorExecutor& exec,
                                    SeededPlan& plan,
                                    const std::vector<Uid>& seeds,
                                    const storage::TimeView& view,
                                    const PlanOptions& options,
                                    obs::QueryStatsGroup* stats = nullptr);

}  // namespace nepal::nql

#endif  // NEPAL_NEPAL_EXECUTOR_H_
