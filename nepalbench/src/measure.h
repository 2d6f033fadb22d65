// Measurement primitives of the benchmark: the percentile rule,
// result fingerprints, open-loop schedule accounting and process figures.

#ifndef NEPALBENCH_MEASURE_H_
#define NEPALBENCH_MEASURE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "nepal/engine.h"

namespace nepalbench {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b);

/// Samples a percentile must leave above it before it is reported.
constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`, or nullopt when
/// fewer than kMinSamplesBeyond samples lie strictly above the reported
/// rank. p50 therefore needs 20 samples and p99 needs 1000.
std::optional<double> Percentile(std::vector<double> samples, double q);

/// Smallest sample count for which Percentile(…, q) reports a value.
size_t MinSamplesFor(double q);

double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

/// Row count plus an order-insensitive 64-bit hash over every row's
/// pathways (uids, element classes, validity) and values.
struct Fingerprint {
  size_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const Fingerprint&) const = default;
};
Fingerprint FingerprintOf(const nepal::nql::QueryResult& result);

/// Exact serialization of a result's rows, one line per row, lines sorted:
/// the byte-identity checks between primary and follower and between a
/// served view and its cold evaluation compare row sets, because row order
/// is not part of the engine's contract (its own served-vs-cold and
/// cross-backend tests compare sorted rows too).
std::string SerializeRows(const nepal::nql::QueryResult& result);

/// One operation of an open-loop schedule: when it was due, when the
/// generator actually issued it, and when it completed.
struct OpenLoopOp {
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point done;
  double late_ms() const { return MsBetween(due, sent); }
  /// Latency as the user sees it: measured from the due time, so a stall
  /// also charges the wait it imposes on every later operation.
  double latency_ms() const { return MsBetween(due, done); }
};

/// When operation `i` of a schedule at `rate_per_s` from `start` is due.
Clock::time_point DueTime(Clock::time_point start, double rate_per_s,
                          size_t i);

/// Drives `send` at a fixed `rate_per_s` from `start`: operation i is due
/// at start + i / rate. The generator never skips or drops an operation;
/// when it falls behind it issues the backlog back to back. `sleep_until`
/// and `now` are injectable so tests can replay a stalled schedule.
/// Stops once `keep_going` returns false (checked before each operation).
std::vector<OpenLoopOp> RunOpenLoop(
    double rate_per_s, Clock::time_point start,
    const std::function<bool(size_t)>& keep_going,
    const std::function<void(size_t)>& send,
    const std::function<Clock::time_point()>& now,
    const std::function<void(Clock::time_point)>& sleep_until);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

}  // namespace nepalbench

#endif  // NEPALBENCH_MEASURE_H_
