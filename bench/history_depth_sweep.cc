// History-depth sweep (figure-style ablation).
//
// The paper's claim that "queries on the full history are only moderately
// slower than queries on the current snapshot" is a point measurement at
// 60 days; this sweep characterizes the curve: snapshot-query and
// timeslice-query latency as the stored history deepens (0, 30, 60, 120
// days of churn), plus the version-count growth. Run on the virtualized
// service graph / relational backend.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace nepal::bench {
namespace {

struct DepthLoad {
  netmodel::VirtualizedNetwork net;
  std::unique_ptr<nql::QueryEngine> engine;
  InstanceSet topdown;
};

DepthLoad& LoadFor(int days) {
  static std::map<int, DepthLoad>* loads = new std::map<int, DepthLoad>();
  auto it = loads->find(days);
  if (it != loads->end()) return it->second;
  DepthLoad& load = (*loads)[days];
  netmodel::VirtualizedParams params;
  params.history_days = days;
  auto built = BuildVirtualizedNetwork(params, RelationalFactory());
  if (!built.ok()) std::abort();
  load.net = std::move(*built);
  load.engine = std::make_unique<nql::QueryEngine>(load.net.db.get(),
                                                   SerialEngineOptions());
  std::vector<std::string> candidates;
  for (Uid vnf : load.net.vnfs) {
    candidates.push_back(
        "Retrieve P From PATHS P Where P MATCHES VNF(id=" +
        std::to_string(vnf) + ")->[Vertical()]{1,6}->Host()");
  }
  load.topdown = SampleNonEmpty(*load.engine, candidates, candidates.size());
  return load;
}

void BM_HistoryDepth_Snapshot(benchmark::State& state) {
  DepthLoad& load = LoadFor(static_cast<int>(state.range(0)));
  RunEveryInstance(state,
                   "HistoryDepth_Snapshot/days:" +
                       std::to_string(state.range(0)),
                   load.net.db->backend().name(), *load.engine, load.topdown);
  state.counters["versions"] =
      static_cast<double>(load.net.db->backend().VersionCount());
}
BENCHMARK(BM_HistoryDepth_Snapshot)
    ->Arg(0)->Arg(30)->Arg(60)->Arg(120)
    ->ArgName("days")
    ->Unit(benchmark::kMillisecond);

void BM_HistoryDepth_Timeslice(benchmark::State& state) {
  DepthLoad& load = LoadFor(static_cast<int>(state.range(0)));
  // Slice in the middle of the recorded history.
  Timestamp mid =
      load.net.snapshot_time +
      (load.net.end_time - load.net.snapshot_time) / 2;
  RunEveryInstance(state,
                   "HistoryDepth_Timeslice/days:" +
                       std::to_string(state.range(0)),
                   load.net.db->backend().name(), *load.engine,
                   OnHistory(load.topdown, mid));
  state.counters["versions"] =
      static_cast<double>(load.net.db->backend().VersionCount());
}
BENCHMARK(BM_HistoryDepth_Timeslice)
    ->Arg(0)->Arg(30)->Arg(60)->Arg(120)
    ->ArgName("days")
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace nepal::bench

NEPAL_BENCH_MAIN("history_depth_sweep");
