// The measured phases. A workload is a sequence of them: its main phase
// runs for the run's --seconds, and a short probe of the other read phase
// supplies the remaining end-to-end metrics, so every workload reports
// every metric. The traced run adds the live phase.
//
//  - lookup phase: closed loop, 1 client, lookup instances on both backends;
//  - deep phase:   closed loop, 1 client, deep instances on both backends;
//  - live phase:   an open-loop writer churning the durable primary, a
//                  closed-loop reader (lookups on primary and follower,
//                  alternating with SERVE VIEW), and a visibility poller.
//
// Each phase starts with a warm-up that is excluded from its figures, and
// each timed pass runs every instance exactly once in a fixed order.

#ifndef NEPALBENCH_PHASES_H_
#define NEPALBENCH_PHASES_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fixture.h"
#include "measure.h"
#include "tracing.h"

namespace nepalbench {

/// Attempted and failed operations, with the first failure messages.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> messages;

  void Attempt() { ++attempted; }
  void Fail(const std::string& message);
  void Merge(const Outcome& other);
};

/// How a phase runs: for how long, how many samples it needs at least, and
/// whether its requests are traced. A traced read phase runs the first half
/// of its time untraced so the traced run can report its own overhead; a
/// traced live phase commits through the WriteLog forwarder throughout.
struct PhaseSpec {
  double seconds = 0;
  /// Read phases: samples per backend that close a segment (a run of
  /// consecutive whole passes). Live phase: timed batches.
  size_t min_samples = 0;
  /// Read phases: the phase runs on until it has closed this many segments.
  size_t min_segments = 1;
  bool trace = false;
};

/// Timed Runs of one segment on one backend.
struct Segment {
  std::vector<double> run_ms;
  double busy_s = 0;  // time spent in these Runs
};

/// Read-side figures of one phase, per backend. End-to-end figures are
/// taken per segment and reported as the median over segments, so a burst
/// of noise within a run moves one segment, not the result.
struct ReadFigures {
  std::vector<Segment> segments;
  std::vector<double> run_ms;          // every timed Run
  std::vector<double> current_ms;      // current-snapshot instances
  std::vector<double> history_ms;      // AT instances
  std::vector<double> untraced_op_ms;  // for the tracing overhead
  std::vector<double> traced_op_ms;
  std::map<std::string, std::vector<double>> by_kind_ms;  // Run latency
};

struct ReadPhaseResult {
  ReadFigures by_bucket[2];
  std::unique_ptr<SpanRecorder> recorder;
  size_t passes = 0;
};

ReadPhaseResult RunLookupPhase(const World& world, const PhaseSpec& spec,
                               Outcome* outcome);
ReadPhaseResult RunDeepPhase(const World& world, const PhaseSpec& spec,
                             Outcome* outcome);

struct LivePhaseResult {
  std::vector<OpenLoopOp> batches;  // timed batches, in order
  std::vector<double> visible_ms;   // due time -> visible on the follower
  std::vector<double> ship_apply_ms;  // commit returned -> visible
  std::vector<double> served_ms;
  /// Reader lookups: relational = on the primary, graphstore = follower.
  std::vector<double> lookup_ms[2];
  double seconds = 0;    // timed span of the phase
  uint64_t mutations = 0;
  uint64_t wal_bytes = 0;
  uint64_t shipped_bytes = 0;
  uint64_t max_lag_records = 0;
  uint64_t reconnects = 0;
  uint64_t repairs = 0;
  uint64_t rebuilds = 0;
  uint64_t fsyncs = 0;
  double repair_p50_us = 0;
  double repair_p99_us = 0;
  std::unique_ptr<SpanRecorder> writer_recorder;
};

/// Runs the live phase on `world.live`. `rate_per_s` is the writer's fixed
/// batch rate and `spec.min_samples` the fewest timed batches; the phase
/// also waits for `min_served` SERVE VIEW queries. Ends with the writer
/// stopped, every batch visible on the follower, and the primary/follower
/// and served/cold checks done.
LivePhaseResult RunLivePhase(World& world, const PhaseSpec& spec,
                             double rate_per_s, size_t min_served,
                             uint64_t seed, Outcome* outcome);

}  // namespace nepalbench

#endif  // NEPALBENCH_PHASES_H_
