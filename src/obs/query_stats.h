// Structured per-operator execution statistics (EXPLAIN ANALYZE).
//
// One QueryStatsBuilder lives for the duration of a top-level query run.
// The engine registers a QueryStatsGroup per range variable (plus "join"
// and "result" groups); the executor registers one operator node per
// Select / Extend / ExtendBlock / Union / Loop / Join step and records
// samples into it. Samples are plain additive tuples, so recording is
// associative and commutative: per-shard samples from the frontier-parallel
// executor merge into the same totals no matter how many shards ran or in
// what order. That is what lets EXPLAIN ANALYZE run at full
// PlanOptions::parallelism (unlike the legacy string trace, which is
// order-sensitive and forces serial execution — see
// storage/pathset.h).
//
// Partition invariance: for an operator node, `rows_in`, `rows_out` and
// `invocations` are recorded at the *logical* invocation level (the whole
// frontier entering/leaving the operator), so their totals are identical
// for parallelism = 1 and parallelism = N. `shards` and `wall_ns`
// deliberately reflect the execution strategy (a sharded step reports one
// slice per shard and the summed slice time); `dedup_dropped` counts
// duplicates removed at that node and can differ for operators *nested
// inside* a sharded step, where per-shard dedup sees only its slice.
// `built` counts the paths an operator built before it handed on its
// output: a Loop every round it built (after that round's dedup, memo and
// pruning), any other operator its rows_out. A sharded Loop sums its
// slices' counts, so like `dedup_dropped` it reflects per-shard dedup.
//
// Threading contract: AddGroup is thread-safe; within one group, AddOp
// calls are sequenced before any Record on that group (registration
// happens before evaluation starts); Record is thread-safe (atomic adds).
// Snapshot must only be called after all recording is done.

#ifndef NEPAL_OBS_QUERY_STATS_H_
#define NEPAL_OBS_QUERY_STATS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace nepal::obs {

/// Accumulated totals for one operator node.
struct OperatorStats {
  std::string group;  // range variable / phase the operator belongs to
  std::string op;     // operator rendering, e.g. "ExtendBlock{1,6} Vertical()"
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  uint64_t dedup_dropped = 0;
  uint64_t shards = 0;       // shard slices executed (serial: = invocations)
  uint64_t wall_ns = 0;      // summed across shard slices
  uint64_t invocations = 0;  // logical invocations
  /// Optimizer row estimate for this operator's output, set at plan
  /// registration time; -1 when the plan carried no estimate. EXPLAIN
  /// ANALYZE reports it next to the actual rows_out.
  double est_rows = -1;
  uint64_t built = 0;  // paths built before handing on rows_out

  /// Adds `other`'s numeric fields into this node (labels must match).
  void MergeCountsFrom(const OperatorStats& other);
  void AppendJson(std::string* out) const;
};

/// One additive sample recorded against an operator node.
struct OpSample {
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  uint64_t dedup_dropped = 0;
  uint64_t shards = 0;
  uint64_t wall_ns = 0;
  uint64_t invocations = 0;
  uint64_t built = 0;

  /// One whole serial invocation that built exactly its output: one shard,
  /// one invocation, `built` = `rows_out`.
  static OpSample Invocation(uint64_t rows_in, uint64_t rows_out,
                             uint64_t wall_ns = 0) {
    OpSample sample;
    sample.rows_in = rows_in;
    sample.rows_out = rows_out;
    sample.built = rows_out;
    sample.shards = 1;
    sample.wall_ns = wall_ns;
    sample.invocations = 1;
    return sample;
  }
};

/// The finished, immutable stats of one query run.
struct QueryStats {
  std::string backend;
  std::string query;
  uint64_t wall_ns = 0;
  uint64_t result_rows = 0;
  int parallelism = 0;
  /// Summed MatchPlan::total_cost of the plans this run evaluated (the
  /// optimizer's anchor-scan estimate); 0 when no MATCHES plan ran.
  double plan_cost = 0;
  std::vector<OperatorStats> operators;  // group order, then op order

  /// Folds `other` in, matching operators by (group, op) label and
  /// appending unmatched ones; numeric fields are summed. Used by the
  /// bench recorder to aggregate stats across repeated executions.
  void MergeFrom(const QueryStats& other);

  /// Aligned EXPLAIN ANALYZE table.
  std::string ToString() const;
  /// {"backend":..,"query":..,"wall_ns":..,"result_rows":..,
  ///  "parallelism":..,"operators":[...]}
  void AppendJson(std::string* out) const;
};

/// Registration + recording handle for one group of operator nodes.
class QueryStatsGroup {
 public:
  explicit QueryStatsGroup(std::string name) : name_(std::move(name)) {}

  /// Registers an operator node; returns its id. `est_rows` is the
  /// optimizer's output-row estimate (-1: no estimate). Must not race with
  /// Record on the same group (see the threading contract above).
  int AddOp(std::string op, double est_rows = -1);

  /// Atomically folds `sample` into node `op_id`. Thread-safe.
  void Record(int op_id, const OpSample& sample);

  const std::string& name() const { return name_; }

 private:
  friend class QueryStatsBuilder;
  struct Node {
    std::string op;
    double est_rows = -1;  // fixed at registration, no atomics needed
    std::atomic<uint64_t> rows_in{0};
    std::atomic<uint64_t> rows_out{0};
    std::atomic<uint64_t> dedup_dropped{0};
    std::atomic<uint64_t> shards{0};
    std::atomic<uint64_t> wall_ns{0};
    std::atomic<uint64_t> invocations{0};
    std::atomic<uint64_t> built{0};
    Node(std::string o, double est) : op(std::move(o)), est_rows(est) {}
  };
  std::string name_;
  std::deque<Node> nodes_;  // deque: stable references across AddOp
};

/// Collects groups for one query run. Groups are snapshotted in creation
/// order, so the engine creates them deterministically (declaration order)
/// before any parallel evaluation starts.
class QueryStatsBuilder {
 public:
  /// Thread-safe; the returned handle stays valid for the builder's life.
  QueryStatsGroup* AddGroup(std::string name);

  /// Accumulates the MatchPlan cost of a structurally-anchored evaluation
  /// into the run's QueryStats::plan_cost. Thread-safe.
  void AddPlanCost(double cost);

  /// Flattens all groups into a QueryStats (operators only; the caller
  /// fills the query-level fields). Call after evaluation has finished.
  QueryStats Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::deque<QueryStatsGroup> groups_;
  double plan_cost_ = 0;
};

}  // namespace nepal::obs

#endif  // NEPAL_OBS_QUERY_STATS_H_
