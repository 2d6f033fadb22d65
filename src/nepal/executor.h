// Program evaluation: drives a backend's PathOperatorExecutor through the
// step list of an anchored plan.

#ifndef NEPAL_NEPAL_EXECUTOR_H_
#define NEPAL_NEPAL_EXECUTOR_H_

#include "nepal/plan.h"
#include "obs/query_stats.h"
#include "storage/pathset.h"

namespace nepal::nql {

/// The seeds-in half of one anchored plan, exactly as ExecuteMatch runs
/// it: grows anchor states (any subset of what its Select returns) through
/// the suffix, then the reversed prefix, finalizing both ends. Serial.
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
/// per Select/Extend/ExtendBlock/Union/Loop step (writing the op ids into
/// `plan`'s steps) and records rows_in / rows_out / dedup_dropped / shards
/// / wall_ns samples into it; recording is associative (see
/// obs/query_stats.h), so it works under any PlanOptions::parallelism.
storage::PathSet ExecuteMatch(storage::PathOperatorExecutor& exec,
                              MatchPlan& plan, const storage::TimeView& view,
                              const PlanOptions& options,
                              obs::QueryStatsGroup* stats = nullptr);

/// PlanMatch followed by ExecuteMatch.
Result<storage::PathSet> EvaluateMatch(storage::PathOperatorExecutor& exec,
                                       const storage::StorageBackend& backend,
                                       const RpeNode& resolved_rpe,
                                       const storage::TimeView& view,
                                       const PlanOptions& options,
                                       obs::QueryStatsGroup* stats = nullptr);

enum class SeedSide { kSource, kTarget };

/// Seeded evaluation (imported anchor): the pathway's source (or target)
/// node is pinned to one of `seeds`, so no structural anchor is needed.
/// The backend supplies the statistics for the optimizer rewrites and the
/// row estimates (seeded from `seeds.size()`).
storage::PathSet EvaluateMatchSeeded(storage::PathOperatorExecutor& exec,
                                     const storage::StorageBackend& backend,
                                     const RpeNode& resolved_rpe,
                                     const std::vector<Uid>& seeds,
                                     SeedSide side,
                                     const storage::TimeView& view,
                                     const PlanOptions& options,
                                     obs::QueryStatsGroup* stats = nullptr);

}  // namespace nepal::nql

#endif  // NEPAL_NEPAL_EXECUTOR_H_
