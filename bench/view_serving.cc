// Materialized pathway-view serving (the src/views subsystem):
//
//   - served vs cold QPS for the hot pathway query while a saturating
//     writer churns footprint-relevant chains (each churn removes and
//     recreates a VNF->VFC->VM->Host chain's VFC, so the maintenance
//     thread repairs the view continuously),
//   - the incremental-repair latency histogram (nepal.views.repair_ns).
//
// Results land in BENCH_view_serving.json as one counter record per
// backend: served_qps, cold_qps, speedup, repairs, rebuilds and repair
// latency quantiles. The CI bench-smoke step asserts speedup >= 5. Both
// engines and the view catalog run at one lane (SerialEngineOptions).
//
// Topology: a few complete VNF->VFC->VM->Host chains (the cached rows the
// writer churns) inside a much larger inventory of idle elements — VNFs
// fanning out into VFC/VM subtrees that never reach a Host, and Hosts
// reachable from VM/VFC subtrees that no VNF composes. Whichever end the
// planner anchors at, cold evaluation chases a combinatorial set of dead
// partial paths each time; the view serves only the finished rows.
//
// Scale knobs:
//   NEPAL_BENCH_VIEW_CHAINS   — complete pathway chains (default 16)
//   NEPAL_BENCH_VIEW_IDLE     — idle VNF dead-ends / idle Hosts
//                               (default 400 each)
//   NEPAL_BENCH_VIEW_QUERIES  — served executions (default 300; cold runs
//                               1/5 of that, it is the slow side)

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "persist/durable_store.h"
#include "schema/dsl_parser.h"
#include "views/view_catalog.h"

namespace nepal::bench {
namespace {

namespace fs = std::filesystem;

constexpr const char* kHotQuery =
    "Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host()";

schema::SchemaPtr ViewSchema() {
  static schema::SchemaPtr schema = [] {
    auto s = schema::ParseSchemaDsl(R"(
      node VNF : Node {}
      node VFC : Node {}
      node VM : Node {}
      node Host : Node { serial: string; }
      edge Vertical : Edge {}
      edge composed_of : Vertical {}
      edge hosted_on : Vertical {}
      edge OnServer : Vertical {}
      allow composed_of (VNF -> VFC);
      allow hosted_on (VFC -> VM);
      allow OnServer (VM -> Host);
    )");
    if (!s.ok()) std::abort();
    return *s;
  }();
  return schema;
}

int NumChains() { return EnvInt("NEPAL_BENCH_VIEW_CHAINS", 16); }
int NumIdle() { return EnvInt("NEPAL_BENCH_VIEW_IDLE", 400); }
int NumQueries() { return EnvInt("NEPAL_BENCH_VIEW_QUERIES", 300); }

std::string FreshDir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() / ("nepal_bench_views_" + name);
  fs::remove_all(dir);
  return dir.string();
}

persist::BackendFactory Factory(bool relational) {
  if (relational) {
    return [](schema::SchemaPtr s)
               -> std::unique_ptr<storage::StorageBackend> {
      return std::make_unique<relational::RelationalStore>(std::move(s));
    };
  }
  return
      [](schema::SchemaPtr s) -> std::unique_ptr<storage::StorageBackend> {
        return std::make_unique<graphstore::GraphStore>(std::move(s));
      };
}

struct Chain {
  Uid vnf, vfc, vm, host;
};

/// QPS over `runs` sequential executions (aborts on query failure).
double MeasureQps(const nql::QueryEngine& engine, int runs) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < runs; ++i) MustRun(engine, kHotQuery);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return seconds > 0 ? runs / seconds : 0;
}

void BM_ViewServing(benchmark::State& state) {
  const bool relational = state.range(0) == 1;
  const std::string backend = relational ? "relational" : "graphstore";
  for (auto _ : state) {
    obs::MetricsRegistry::Global().ResetValuesForTest();
    persist::DurableOptions options;
    options.fsync_policy = persist::FsyncPolicy::kNone;
    auto store = persist::DurableStore::Open(
        FreshDir(backend), ViewSchema(), Factory(relational), options);
    if (!store.ok()) {
      state.SkipWithError(store.status().ToString().c_str());
      return;
    }
    storage::GraphDb& db = (*store)->db();

    std::vector<Chain> chains(static_cast<size_t>(NumChains()));
    for (size_t i = 0; i < chains.size(); ++i) {
      Chain& c = chains[i];
      const std::string n = std::to_string(i);
      c.vnf = *db.AddNode("VNF", {{"name", Value("vnf" + n)}});
      c.vfc = *db.AddNode("VFC", {{"name", Value("vfc" + n)}});
      c.vm = *db.AddNode("VM", {{"name", Value("vm" + n)}});
      c.host = *db.AddNode("Host", {{"name", Value("host" + n)},
                                    {"serial", Value("sn" + n)}});
      if (!db.AddEdge("composed_of", c.vnf, c.vfc, {}).ok() ||
          !db.AddEdge("hosted_on", c.vfc, c.vm, {}).ok() ||
          !db.AddEdge("OnServer", c.vm, c.host, {}).ok()) {
        state.SkipWithError("chain construction failed");
        return;
      }
    }
    for (int i = 0; i < NumIdle(); ++i) {
      const std::string n = "idle" + std::to_string(i);
      Uid vnf = *db.AddNode("VNF", {{"name", Value(n)}});
      for (int f = 0; f < 3; ++f) {
        const std::string fn = n + "c" + std::to_string(f);
        Uid vfc = *db.AddNode("VFC", {{"name", Value(fn)}});
        if (!db.AddEdge("composed_of", vnf, vfc, {}).ok()) {
          state.SkipWithError("idle construction failed");
          return;
        }
        for (int m = 0; m < 3; ++m) {
          Uid vm = *db.AddNode("VM", {{"name", Value(fn + "m" +
                                                     std::to_string(m))}});
          if (!db.AddEdge("hosted_on", vfc, vm, {}).ok()) {
            state.SkipWithError("idle construction failed");
            return;
          }
        }
      }
      // Host-side dead-end: a Host reachable from VMs and VFCs that no VNF
      // composes, so a Host-anchored plan chases partials too.
      Uid host = *db.AddNode("Host", {{"name", Value(n + "h")},
                                      {"serial", Value(n + "sn")}});
      for (int m = 0; m < 3; ++m) {
        const std::string mn = n + "hm" + std::to_string(m);
        Uid vm = *db.AddNode("VM", {{"name", Value(mn)}});
        if (!db.AddEdge("OnServer", vm, host, {}).ok()) {
          state.SkipWithError("idle construction failed");
          return;
        }
        for (int f = 0; f < 3; ++f) {
          Uid vfc = *db.AddNode("VFC", {{"name", Value(mn + "f" +
                                                       std::to_string(f))}});
          if (!db.AddEdge("hosted_on", vfc, vm, {}).ok()) {
            state.SkipWithError("idle construction failed");
            return;
          }
        }
      }
    }

    auto catalog =
        views::ViewCatalog::Open(store->get(), SerialEngineOptions().plan);
    if (!catalog.ok()) {
      state.SkipWithError(catalog.status().ToString().c_str());
      return;
    }
    auto rpe = nql::ParseRpe("VNF()->[Vertical()]{1,6}->Host()");
    Status created = (*catalog)->CreateView("hot", *std::move(rpe));
    if (!created.ok()) {
      state.SkipWithError(created.ToString().c_str());
      return;
    }

    // Saturating writer: each round tears one chain's VFC out (cascading
    // onto its edges) and rebuilds it — every commit is footprint-relevant,
    // so the maintenance thread repairs the view the whole time.
    std::atomic<bool> done{false};
    std::thread writer([&] {
      size_t i = 0;
      while (!done.load(std::memory_order_acquire)) {
        Chain& c = chains[i++ % chains.size()];
        if (!db.RemoveElement(c.vfc).ok()) break;
        auto vfc = db.AddNode("VFC", {{"name", Value("r" + std::to_string(i))}});
        if (!vfc.ok()) break;
        c.vfc = *vfc;
        if (!db.AddEdge("composed_of", c.vnf, c.vfc, {}).ok()) break;
        if (!db.AddEdge("hosted_on", c.vfc, c.vm, {}).ok()) break;
      }
    });

    nql::QueryEngine served_engine(&db, SerialEngineOptions());
    served_engine.set_view_provider(catalog->get());
    nql::QueryEngine cold_engine(&db, SerialEngineOptions());

    BenchJson::Instance().Begin("served_" + backend, backend, kHotQuery);
    const double served_qps = MeasureQps(served_engine, NumQueries());
    BenchJson::Instance().Begin("cold_" + backend, backend, kHotQuery);
    const double cold_qps =
        MeasureQps(cold_engine, std::max(1, NumQueries() / 5));

    done.store(true, std::memory_order_release);
    writer.join();

    auto& reg = obs::MetricsRegistry::Global();
    const auto repair = reg.GetHistogram("nepal.views.repair_ns",
                                         obs::DefaultLatencyBucketsNs())
                            ->Snap();
    BenchJson::Instance().Counter(backend, "served_qps", served_qps);
    BenchJson::Instance().Counter(backend, "cold_qps", cold_qps);
    BenchJson::Instance().Counter(
        backend, "speedup", cold_qps > 0 ? served_qps / cold_qps : 0);
    BenchJson::Instance().Counter(
        backend, "repairs",
        static_cast<double>(reg.GetCounter("nepal.views.repairs")->Value()));
    BenchJson::Instance().Counter(
        backend, "rebuilds",
        static_cast<double>(reg.GetCounter("nepal.views.rebuilds")->Value()));
    BenchJson::Instance().Counter(backend, "repair_count",
                                  static_cast<double>(repair.count));
    BenchJson::Instance().Counter(
        backend, "repair_p50_ns",
        static_cast<double>(repair.count > 0 ? repair.Quantile(0.5) : 0));
    BenchJson::Instance().Counter(
        backend, "repair_p99_ns",
        static_cast<double>(repair.count > 0 ? repair.Quantile(0.99) : 0));
    state.counters["served_qps"] = served_qps;
    state.counters["cold_qps"] = cold_qps;
  }
}
BENCHMARK(BM_ViewServing)
    ->Arg(0)
    ->Arg(1)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace nepal::bench

NEPAL_BENCH_MAIN("view_serving")
