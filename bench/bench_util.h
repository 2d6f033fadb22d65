// Shared benchmark fixtures: lazily-built networks, query-instance
// sampling (zero-path instances excluded, as in the paper), helpers, and
// the machine-readable result recorder (BENCH_<name>.json).
//
// Scale knobs (environment variables):
//   NEPAL_BENCH_LEGACY_DEVICES  — legacy topology size (default 1000;
//                                 ~11000 reproduces the paper's 1.6M-node
//                                 data set).
//   NEPAL_BENCH_INSTANCES       — query instances per type (default 50).

#ifndef NEPAL_BENCH_BENCH_UTIL_H_
#define NEPAL_BENCH_BENCH_UTIL_H_

// The build type every BENCH_<name>.json is stamped with (bench/CMakeLists.txt
// defines it from CMAKE_BUILD_TYPE).
#ifndef NEPAL_BENCH_BUILD_TYPE
#define NEPAL_BENCH_BUILD_TYPE "unknown"
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <unistd.h>

#include <benchmark/benchmark.h>

#include "graphstore/graph_store.h"
#include "nepal/engine.h"
#include "netmodel/legacy.h"
#include "netmodel/virtualized.h"
#include "obs/metrics.h"
#include "obs/query_stats.h"
#include "relational/relational_store.h"

namespace nepal::bench {

inline int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

inline int NumInstances() { return EnvInt("NEPAL_BENCH_INSTANCES", 50); }

/// Engine options pinned to one worker lane, so a bench's numbers do not
/// depend on the host's core count (parallelism 0 means hardware lanes).
inline nql::EngineOptions SerialEngineOptions() {
  nql::EngineOptions options;
  options.plan.parallelism = 1;
  return options;
}

inline netmodel::BackendFactory RelationalFactory() {
  return [](schema::SchemaPtr s) -> std::unique_ptr<storage::StorageBackend> {
    return std::make_unique<relational::RelationalStore>(std::move(s));
  };
}
inline netmodel::BackendFactory GraphStoreFactory() {
  return [](schema::SchemaPtr s) -> std::unique_ptr<storage::StorageBackend> {
    return std::make_unique<graphstore::GraphStore>(std::move(s));
  };
}

/// Machine-readable benchmark results. Each benchmark's measurement helper
/// calls Begin(label, backend, query) before its timing loop to mark the
/// active record; MustRun then feeds every execution's wall time, row count
/// and per-operator stats (engine.LastQueryStats()) into it. Benchmarks
/// without a query loop record plain Counter values instead. The
/// NEPAL_BENCH_MAIN macro writes the accumulated records to
/// BENCH_<bench_name>.json in the working directory — the file the CI
/// bench-smoke step validates and archives — stamped with the online core
/// count (`nproc`) and the build type.
class BenchJson {
 public:
  static BenchJson& Instance() {
    static BenchJson* instance = new BenchJson();
    return *instance;
  }

  /// Marks (creating on first use) the record that subsequent Observe
  /// calls accumulate into. Re-running the same benchmark (estimation
  /// passes) keeps accumulating into the same record.
  void Begin(const std::string& name, const std::string& backend,
             const std::string& query) {
    std::lock_guard<std::mutex> lock(mu_);
    Record& r = Lookup(name);
    r.backend = backend;
    r.query = query;
    active_ = &r;
  }

  /// One query execution. No-op while no record is active (fixture setup,
  /// instance sampling).
  void Observe(double ms, size_t rows, obs::QueryStats stats) {
    std::lock_guard<std::mutex> lock(mu_);
    if (active_ == nullptr) return;
    ++active_->executions;
    active_->total_rows += static_cast<double>(rows);
    active_->ms_samples.push_back(ms);
    active_->stats.MergeFrom(stats);
  }

  /// Standalone numeric result for non-query benchmarks (storage overhead,
  /// ingest throughput).
  void Counter(const std::string& name, const std::string& key,
               double value) {
    std::lock_guard<std::mutex> lock(mu_);
    Lookup(name).counters[key] = value;
  }

  /// Writes BENCH_<bench_name>.json. Query records carry
  /// executions/paths/mean_ms/median_ms plus the merged per-operator
  /// stats; counter records carry their key/value map.
  void WriteFile(const std::string& bench_name) {
    std::lock_guard<std::mutex> lock(mu_);
    std::string out = "{\"bench\":\"" + obs::JsonEscape(bench_name) +
                      "\",\"nproc\":" +
                      std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                      ",\"build_type\":\"" +
                      obs::JsonEscape(NEPAL_BENCH_BUILD_TYPE) +
                      "\",\"records\":[";
    bool first = true;
    for (const std::string& name : order_) {
      Record& r = records_.at(name);
      if (!first) out += ",";
      first = false;
      out += "{\"name\":\"" + obs::JsonEscape(name) + "\"";
      if (r.executions > 0) {
        double n = static_cast<double>(r.executions);
        double mean = 0;
        for (double ms : r.ms_samples) mean += ms;
        mean /= n;
        std::vector<double> sorted = r.ms_samples;
        std::sort(sorted.begin(), sorted.end());
        double median = sorted[sorted.size() / 2];
        out += ",\"backend\":\"" + obs::JsonEscape(r.backend) + "\"";
        out += ",\"query\":\"" + obs::JsonEscape(r.query) + "\"";
        out += ",\"executions\":" + std::to_string(r.executions);
        out += ",\"paths\":" + FormatDouble(r.total_rows / n);
        out += ",\"mean_ms\":" + FormatDouble(mean);
        out += ",\"median_ms\":" + FormatDouble(median);
        // Mean MatchPlan cost per execution (QueryStats::plan_cost sums
        // across merged runs) and the optimizer's aggregate row-estimation
        // error: sum |est - actual| over estimated operators, normalized by
        // the actual rows they emitted.
        out += ",\"plan_cost\":" + FormatDouble(r.stats.plan_cost / n);
        double err_num = 0, err_den = 0;
        for (const auto& op : r.stats.operators) {
          if (op.est_rows < 0) continue;
          err_num += std::fabs(op.est_rows - static_cast<double>(op.rows_out));
          err_den += static_cast<double>(op.rows_out);
        }
        out += ",\"est_row_error\":" +
               FormatDouble(err_den > 0 ? err_num / err_den : err_num);
        out += ",\"operators\":[";
        for (size_t i = 0; i < r.stats.operators.size(); ++i) {
          if (i > 0) out += ",";
          r.stats.operators[i].AppendJson(&out);
        }
        out += "]";
      }
      if (!r.counters.empty()) {
        out += ",\"counters\":{";
        bool first_counter = true;
        for (const auto& [key, value] : r.counters) {
          if (!first_counter) out += ",";
          first_counter = false;
          out += "\"" + obs::JsonEscape(key) + "\":" + FormatDouble(value);
        }
        out += "}";
      }
      out += "}";
    }
    out += "]}\n";
    const std::string path = "BENCH_" + bench_name + ".json";
    FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s (%zu record(s))\n", path.c_str(),
                 records_.size());
  }

 private:
  struct Record {
    std::string backend, query;
    size_t executions = 0;
    double total_rows = 0;
    std::vector<double> ms_samples;
    obs::QueryStats stats;
    std::map<std::string, double> counters;
  };

  Record& Lookup(const std::string& name) {
    auto [it, inserted] = records_.try_emplace(name);
    if (inserted) order_.push_back(name);
    return it->second;
  }

  static std::string FormatDouble(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
  }

  std::mutex mu_;
  std::map<std::string, Record> records_;
  std::vector<std::string> order_;  // insertion order for stable output
  Record* active_ = nullptr;        // stable: map nodes don't move
};

/// Runs a query, aborting the benchmark on error (a bench must not silently
/// measure failures). Feeds timing, row count and per-operator stats into
/// the active BenchJson record.
inline size_t MustRun(const nql::QueryEngine& engine,
                      const std::string& query) {
  auto start = std::chrono::steady_clock::now();
  auto result = engine.Run(query);
  if (!result.ok()) {
    std::fprintf(stderr, "bench query failed: %s\n  query: %s\n",
                 result.status().ToString().c_str(), query.c_str());
    std::abort();
  }
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  BenchJson::Instance().Observe(ms, result->rows.size(),
                                engine.LastQueryStats());
  return result->rows.size();
}

inline std::string NameOf(const storage::GraphDb& db, Uid uid) {
  auto v = db.GetCurrent(uid);
  if (!v.ok()) return "";
  int idx = v->cls->FieldIndex("name");
  return v->fields[static_cast<size_t>(idx)].AsString();
}

/// The sampled query instances of one type (RunEveryInstance runs them).
struct InstanceSet {
  std::vector<std::string> queries;
  double avg_paths = 0;  // measured during sampling (zero-path skipped)
};

/// Times `set` on `engine` (over `backend`) under the BenchJson record
/// `label`: one iteration runs every sampled instance once, so however
/// many iterations google-benchmark picks, records over the same instances
/// average the same mix, and records of one set on two engines do
/// identical work. The "paths" counter is the mean row count per
/// execution.
inline void RunEveryInstance(benchmark::State& state, const std::string& label,
                             const std::string& backend,
                             const nql::QueryEngine& engine,
                             const InstanceSet& set) {
  if (set.queries.empty()) {
    state.SkipWithError("no non-empty instances sampled");
    return;
  }
  BenchJson::Instance().Begin(label, backend, set.queries.front());
  size_t runs = 0;
  size_t paths = 0;
  for (auto _ : state) {
    for (const std::string& query : set.queries) {
      paths += MustRun(engine, query);
    }
    runs += set.queries.size();
  }
  state.counters["paths"] =
      static_cast<double>(paths) / static_cast<double>(runs);
}

/// Keeps instances whose query returns at least one path, up to `want`.
inline InstanceSet SampleNonEmpty(const nql::QueryEngine& engine,
                                  const std::vector<std::string>& candidates,
                                  size_t want) {
  InstanceSet set;
  double paths = 0;
  for (const std::string& q : candidates) {
    if (set.queries.size() >= want) break;
    auto result = engine.Run(q);
    if (!result.ok()) {
      std::fprintf(stderr, "instance sampling failed: %s\n  query: %s\n",
                   result.status().ToString().c_str(), q.c_str());
      std::abort();
    }
    if (result->rows.empty()) continue;  // the paper skips zero-path runs
    paths += static_cast<double>(result->rows.size());
    set.queries.push_back(q);
  }
  if (!set.queries.empty()) {
    set.avg_paths = paths / static_cast<double>(set.queries.size());
  }
  return set;
}

/// Prefixes a query with a timeslice at `t`, turning a current-snapshot
/// query into one against the full history store (the paper's
/// "Time (hist)" columns).
inline std::string OnHistory(const std::string& query, Timestamp t) {
  return "AT '" + FormatTimestamp(t) + "' " + query;
}

/// `set` with every query timesliced at `t`.
inline InstanceSet OnHistory(InstanceSet set, Timestamp t) {
  for (std::string& query : set.queries) query = OnHistory(query, t);
  return set;
}

}  // namespace nepal::bench

/// BENCHMARK_MAIN plus the BENCH_<name>.json dump after the run.
#define NEPAL_BENCH_MAIN(bench_name)                                    \
  int main(int argc, char** argv) {                                     \
    ::benchmark::Initialize(&argc, argv);                               \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();                              \
    ::benchmark::Shutdown();                                            \
    ::nepal::bench::BenchJson::Instance().WriteFile(bench_name);        \
    return 0;                                                           \
  }

#endif  // NEPAL_BENCH_BENCH_UTIL_H_
