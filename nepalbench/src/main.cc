// nepalbench: the benchmark program; one process per run.
//
//   nepalbench --workload lookup|deep --seed N --seconds S
//              --trace 0|1 --work-dir DIR [--git-sha SHA] [--trace-out FILE]
//
// Sets the world up several times (set-up time is the median), runs the
// workload's phases, checks every output, and prints two lines: a stamp
// of the pinned configuration, then the result object. With --trace 0 the
// result carries the end-to-end metrics; with --trace 1 the per-layer
// metrics of a separate traced run.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "fixture.h"
#include "measure.h"
#include "phases.h"

namespace nepalbench {
namespace {

constexpr int kSetupRepeats = 3;
/// The live writer's fixed batch rate, well below what one writer commits.
constexpr double kWriterRate = 200;
/// Samples a p99 needs (kMinSamplesBeyond above it).
const size_t kP99Samples = MinSamplesFor(0.99);
/// Fewest segments a read phase measures; end-to-end read figures are
/// medians over segments. A probe has no time budget of its own, so it
/// takes more segments than the main phase's minimum.
constexpr size_t kMainSegments = 3;
constexpr size_t kProbeSegments = 5;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string work_dir;
  std::string git_sha = "unknown";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = true;
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--git-sha") {
      args->git_sha = value;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return (args->workload == "lookup" || args->workload == "deep") &&
         have_seed && have_seconds && args->seconds > 0 &&
         !args->work_dir.empty();
}

class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    if (!json_.empty()) json_ += ", ";
    json_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             unit + "\"}";
  }
  std::string Json() const { return "{" + json_ + "}"; }

 private:
  std::string json_;
};

const char* Suffix(Bucket b) {
  return b == kGraphstore ? ".graphstore" : ".relational";
}

/// Percentile under the reporting rule; a shortfall is a failed check.
double Pct(const std::vector<double>& samples, double q,
           const std::string& name, Outcome* outcome) {
  std::optional<double> v = Percentile(samples, q);
  if (v.has_value()) return *v;
  outcome->Fail(name + ": only " + std::to_string(samples.size()) +
                " samples");
  return samples.empty() ? 0 : *std::max_element(samples.begin(),
                                                 samples.end());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Median over a phase's segments of one per-segment figure.
double SegmentMedian(const ReadFigures& f,
                     const std::function<double(const Segment&)>& figure) {
  std::vector<double> v;
  for (const Segment& s : f.segments) v.push_back(figure(s));
  return Median(v);
}

/// Lookup latency percentile `q`, the median over segments. The p99 is a
/// per-layer metric: it follows the host's noise (ten-run spreads of
/// 0.27–0.38 on the 4-core VM), more than any bound the benchmark may set.
void AddLookupPercentile(const ReadFigures& f, double q,
                         const std::string& name, MetricSet* m,
                         Outcome* outcome) {
  m->Add(name,
         SegmentMedian(f,
                       [&](const Segment& seg) {
                         return Pct(seg.run_ms, q, name, outcome);
                       }),
         "ms");
}

void AddReadLayers(const SpanRecorder& rec, const ReadFigures* lookup_figs,
                   MetricSet* m) {
  for (Bucket b : {kGraphstore, kRelational}) {
    const std::string s = Suffix(b);
    const double req = static_cast<double>(rec.requests(b));
    auto dur = [&](const char* name) { return rec.Totals(b, name).dur_ns; };
    auto val = [&](const char* name) { return rec.Totals(b, name).value; };
    const double plan = dur("optimizer.plan");
    m->Add("parser.parse_us" + s, Ratio(dur("parser.parse"), req) / 1e3, "us");
    m->Add("optimizer.plan_us" + s, Ratio(plan, req) / 1e3, "us");
    m->Add("backend.select_us" + s, Ratio(dur("backend.select"), req) / 1e3,
           "us");
    m->Add("backend.extend_ms" + s, Ratio(dur("backend.extend"), req) / 1e6,
           "ms");
    m->Add("backend.calls" + s, Ratio(val("backend.calls"), req), "count");
    m->Add("backend.rows_out" + s, Ratio(val("backend.rows_out"), req),
           "count");
    m->Add("executor.self_ms" + s,
           Ratio(rec.Totals(b, "executor.evaluate").self_ns - plan, req) / 1e6,
           "ms");
    m->Add("executor.useful_ratio" + s,
           Ratio(val("result.rows"), val("backend.rows_out")), "ratio");
    m->Add("executor.dedup_dropped" + s,
           Ratio(val("executor.dedup_dropped"), req), "count");
    m->Add("engine.other_us" + s,
           Ratio(dur("engine.run") - dur("parser.parse") -
                     dur("executor.evaluate"),
                 req) / 1e3,
           "us");
    const ReadFigures& f = lookup_figs[b];
    m->Add("temporal.history_ratio" + s,
           Ratio(Median(f.history_ms), Median(f.current_ms)), "ratio");
  }
}

/// The live phase's figures. They are per-layer metrics: on this program
/// every clock advance forces a full view rebuild whose long shared-lock
/// holds stall the writer, so these figures swing run to run by more than
/// any bound the benchmark may set (see README.md).
void AddLiveMetrics(const LivePhaseResult& live, MetricSet* m,
                    Outcome* outcome) {
  std::vector<double> commit;
  for (const OpenLoopOp& op : live.batches) commit.push_back(op.latency_ms());
  m->Add("commit_p50_ms", Pct(commit, 0.5, "commit_p50_ms", outcome), "ms");
  m->Add("commit_p99_ms", Pct(commit, 0.99, "commit_p99_ms", outcome), "ms");
  m->Add("visible_p50_ms",
         Pct(live.visible_ms, 0.5, "visible_p50_ms", outcome), "ms");
  m->Add("visible_p99_ms",
         Pct(live.visible_ms, 0.99, "visible_p99_ms", outcome), "ms");
  m->Add("served_p50_ms", Pct(live.served_ms, 0.5, "served_p50_ms", outcome),
         "ms");
  m->Add("served_p99_ms", Pct(live.served_ms, 0.99, "served_p99_ms", outcome),
         "ms");
  m->Add("wal_bytes_per_mutation",
         Ratio(static_cast<double>(live.wal_bytes),
               static_cast<double>(live.mutations)),
         "B");
  for (Bucket b : {kGraphstore, kRelational}) {
    const std::string name = std::string("live.lookup_p50_ms") + Suffix(b);
    m->Add(name, Pct(live.lookup_ms[b], 0.5, name, outcome), "ms");
  }

  const SpanRecorder& rec = *live.writer_recorder;
  const double commits = static_cast<double>(rec.requests(kWrites));
  m->Add("graphdb.commit_self_us",
         Ratio(rec.Totals(kWrites, "graphdb.apply_batch").self_ns, commits) /
             1e3,
         "us");
  m->Add("persist.wal_append_us",
         Ratio(rec.Totals(kWrites, "persist.wal_append").dur_ns, commits) /
             1e3,
         "us");
  m->Add("persist.fsyncs_per_s",
         Ratio(static_cast<double>(live.fsyncs), live.seconds), "1/s");
  m->Add("replication.ship_apply_ms", Mean(live.ship_apply_ms), "ms");
  m->Add("replication.max_lag_records",
         static_cast<double>(live.max_lag_records), "count");
  m->Add("replication.bytes_per_mutation",
         Ratio(static_cast<double>(live.shipped_bytes),
               static_cast<double>(live.mutations)),
         "B");
  m->Add("replication.reconnects", static_cast<double>(live.reconnects),
         "count");
  m->Add("views.repairs_per_s",
         Ratio(static_cast<double>(live.repairs), live.seconds), "1/s");
  m->Add("views.rebuilds", static_cast<double>(live.rebuilds), "count");
  m->Add("views.repair_p50_us", live.repair_p50_us, "us");
  m->Add("views.repair_p99_us", live.repair_p99_us, "us");
  std::vector<double> late;
  for (const OpenLoopOp& op : live.batches) late.push_back(op.late_ms());
  m->Add("generator.late_p99_ms",
         Pct(late, 0.99, "generator.late_p99_ms", outcome), "ms");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: nepalbench --workload lookup|deep --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--git-sha SHA] "
                 "[--trace-out FILE]\n");
    return 2;
  }
  Outcome outcome;

  // ---- Set-up, repeated; the last world is the one measured. ----
  std::unique_ptr<World> world;
  std::vector<SetupTimes> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    world.reset();
    const auto t0 = Clock::now();
    auto built = BuildWorld(args.seed, args.work_dir + "/live");
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    world = std::move(*built);
    SetupTimes t = world->times;
    // Anything between the stages (engine construction, inventory scan)
    // counts as generation so the stages add up to the whole set-up.
    t.generate += MsBetween(t0, Clock::now()) / 1000.0 - t.total();
    setups.push_back(t);
  }
  auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return Median(v);
  };
  std::vector<double> setup_totals;
  for (const SetupTimes& t : setups) setup_totals.push_back(t.total());
  std::fprintf(stderr,
               "[nepalbench] set-up %.3f s (median of %d); %zu lookup and "
               "%zu deep instances\n",
               Median(setup_totals), kSetupRepeats, world->lookup.size(),
               world->deep.size());

  // ---- Phases: the workload's main phase gets --seconds; the other read
  // phase runs as a probe just long enough for its metrics' sample counts.
  // The traced run adds the live phase, whose figures are per-layer. ----
  const std::string& w = args.workload;
  PhaseSpec main_spec{args.seconds, 0, 1, args.trace};
  PhaseSpec probe_spec{0, 0, 1, false};

  PhaseSpec lookup_spec = w == "lookup" ? main_spec : probe_spec;
  lookup_spec.min_samples = kP99Samples;
  lookup_spec.min_segments = w == "lookup" ? kMainSegments : kProbeSegments;
  ReadPhaseResult lookup = RunLookupPhase(*world, lookup_spec, &outcome);
  PhaseSpec deep_spec = w == "deep" ? main_spec : probe_spec;
  deep_spec.min_samples = 1;  // one pass per segment
  deep_spec.min_segments = w == "deep" ? kMainSegments : kProbeSegments;
  ReadPhaseResult deep = RunDeepPhase(*world, deep_spec, &outcome);
  LivePhaseResult live;
  if (args.trace) {
    PhaseSpec live_spec{0, kP99Samples, 1, true};
    live = RunLivePhase(*world, live_spec, kWriterRate, kP99Samples,
                        args.seed, &outcome);
  }

  for (const ReadPhaseResult* phase : {&lookup, &deep}) {
    for (Bucket b : {kGraphstore, kRelational}) {
      for (const auto& [kind, ms] : phase->by_bucket[b].by_kind_ms) {
        std::fprintf(stderr, "[nepalbench] %-10s%s: %zu runs, median %.3f ms, "
                     "mean %.3f ms\n", kind.c_str(), Suffix(b), ms.size(),
                     Median(ms), Mean(ms));
      }
    }
  }

  // ---- Metrics ----
  MetricSet m;
  if (!args.trace) {
    m.Add("setup_s", Median(setup_totals), "s");
    m.Add("peak_rss_mb", PeakRssMb(), "MB");
    for (Bucket b : {kGraphstore, kRelational}) {
      const std::string s = Suffix(b);
      AddLookupPercentile(lookup.by_bucket[b], 0.5, "lookup_p50_ms" + s, &m,
                          &outcome);
      m.Add("deep_qps" + s,
            SegmentMedian(deep.by_bucket[b],
                          [](const Segment& seg) {
                            return Ratio(static_cast<double>(seg.run_ms.size()),
                                         seg.busy_s);
                          }),
            "1/s");
    }
  } else {
    const ReadPhaseResult& main_phase = w == "lookup" ? lookup : deep;
    AddReadLayers(*main_phase.recorder, lookup.by_bucket, &m);
    for (Bucket b : {kGraphstore, kRelational}) {
      AddLookupPercentile(lookup.by_bucket[b], 0.99,
                          std::string("lookup_p99_ms") + Suffix(b), &m,
                          &outcome);
    }
    AddLiveMetrics(live, &m, &outcome);
    m.Add("setup.generate_s", setup_median(&SetupTimes::generate), "s");
    m.Add("setup.sample_s", setup_median(&SetupTimes::sample), "s");
    m.Add("setup.recover_s", setup_median(&SetupTimes::recover), "s");
    m.Add("setup.bootstrap_s", setup_median(&SetupTimes::bootstrap), "s");
    m.Add("setup.view_build_s", setup_median(&SetupTimes::view_build), "s");
    // Tracing overhead on the main phase's read request: an untraced Run
    // against a Run plus its traced decomposition.
    std::vector<double> untraced, traced;
    for (const ReadFigures& f : main_phase.by_bucket) {
      untraced.insert(untraced.end(), f.untraced_op_ms.begin(),
                      f.untraced_op_ms.end());
      traced.insert(traced.end(), f.traced_op_ms.begin(),
                    f.traced_op_ms.end());
    }
    m.Add("trace.overhead_pct",
          100.0 * (Ratio(Mean(traced), Mean(untraced)) - 1.0), "%");
    if (!args.trace_out.empty()) {
      std::FILE* f = std::fopen(args.trace_out.c_str(), "w");
      if (f != nullptr) {
        for (const SpanRecorder* rec :
             {main_phase.recorder.get(), live.writer_recorder.get()}) {
          if (rec != nullptr) rec->WriteJsonLines(f);
        }
        std::fclose(f);
      }
    }
  }
  world.reset();

  for (const std::string& msg : outcome.messages) {
    std::fprintf(stderr, "[nepalbench] FAILED: %s\n", msg.c_str());
  }
  const ReadFigures& lg = lookup.by_bucket[kGraphstore];
  const ReadFigures& lr = lookup.by_bucket[kRelational];
  std::printf(
      "{\"stamp\": {\"git_sha\": \"%s\", \"build_type\": \"%s\", "
      "\"nproc\": %ld, \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"parallelism\": 1, "
      "\"read_mode\": \"locked\", \"loop_strategy\": \"cost_based\", "
      "\"fsync_policy\": \"interval_50ms\", \"replication\": \"async\", "
      "\"writer_rate_per_s\": %g, \"setup_repeats\": %d, "
      "\"samples\": {\"lookup.graphstore\": %zu, \"lookup.relational\": %zu, "
      "\"lookup_segments\": %zu, \"deep_passes\": %zu, \"commits\": %zu, "
      "\"visible\": %zu, \"served\": %zu}}}\n",
      args.git_sha.c_str(), NEPALBENCH_BUILD_TYPE, sysconf(_SC_NPROCESSORS_ONLN),
      w.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, kWriterRate, kSetupRepeats, lg.run_ms.size(),
      lr.run_ms.size(), lg.segments.size(), deep.passes, live.batches.size(),
      live.visible_ms.size(), live.served_ms.size());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      outcome.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed), m.Json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace nepalbench

int main(int argc, char** argv) { return nepalbench::Main(argc, argv); }
