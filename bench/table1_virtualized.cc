// Table 1 — query response times on the virtualized service graph.
//
// Reproduces the five query types of the paper's Table 1, each on the
// current snapshot and on the full history store:
//   Top-down     VNF(id=X) -> [Vertical()]{1,6} -> Host()        (33 inst.)
//   Bottom-up    VNF() -> [Vertical()]{1,6} -> Host(id=Y)
//   VM-VM (4)    VM(name=a) -> [virtual_connects()]{1,4} -> VM(name=b)
//   Host-Host(4) Host(name=a) -> [connects()]{1,4} -> Host(name=b)
//   Host-Host(6) same pairs with {1,6}
//
// The `paths` counter is the average number of pathways per instance
// (zero-path instances excluded, as in the paper). Runs on the relational
// backend, matching the paper's PostgreSQL measurements.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace nepal::bench {
namespace {

struct Table1Fixture {
  netmodel::VirtualizedNetwork net;
  std::unique_ptr<nql::QueryEngine> engine;
  InstanceSet topdown, bottomup, vmvm, hosthost4, hosthost6;

  Table1Fixture() {
    netmodel::VirtualizedParams params;
    auto built = BuildVirtualizedNetwork(params, RelationalFactory());
    if (!built.ok()) {
      std::fprintf(stderr, "table1 setup: %s\n",
                   built.status().ToString().c_str());
      std::abort();
    }
    net = std::move(*built);
    engine = std::make_unique<nql::QueryEngine>(net.db.get(),
                                                SerialEngineOptions());
    std::fprintf(stderr,
                 "[table1] virtualized graph: %zu nodes, %zu edges, history "
                 "+%.1f%% versions\n",
                 net.db->node_count(), net.db->edge_count(),
                 100.0 *
                     static_cast<double>(net.final_version_count -
                                         net.initial_version_count) /
                     static_cast<double>(net.initial_version_count));

    size_t want = static_cast<size_t>(NumInstances());
    Rng rng(99);

    // Top-down: one instance per distinct VNF (33 in the paper).
    std::vector<std::string> candidates;
    for (Uid vnf : net.vnfs) {
      candidates.push_back(
          "Retrieve P From PATHS P Where P MATCHES VNF(id=" +
          std::to_string(vnf) + ")->[Vertical()]{1,6}->Host()");
    }
    topdown = SampleNonEmpty(*engine, candidates, candidates.size());

    // Bottom-up: anchored at the host end.
    candidates.clear();
    for (size_t i = 0; i < net.hosts.size(); ++i) {
      Uid host = net.hosts[rng.Below(net.hosts.size())];
      candidates.push_back(
          "Retrieve P From PATHS P Where P MATCHES "
          "VNF()->[Vertical()]{1,6}->Host(id=" +
          std::to_string(host) + ")");
    }
    bottomup = SampleNonEmpty(*engine, candidates, want);

    // VM-VM (4): pairs sampled from VMs sharing virtual-network
    // neighbourhoods (random pairs, zero-path pairs skipped).
    candidates.clear();
    for (int i = 0; i < 400; ++i) {
      const std::string a = NameOf(*net.db, net.vms[rng.Below(net.vms.size())]);
      const std::string b = NameOf(*net.db, net.vms[rng.Below(net.vms.size())]);
      if (a == b) continue;
      candidates.push_back(
          "Retrieve P From PATHS P Where P MATCHES VM(name='" + a +
          "')->[virtual_connects()]{1,4}->VM(name='" + b + "')");
    }
    vmvm = SampleNonEmpty(*engine, candidates, want);

    // Host-Host (4) and (6): the same pairs, radius expanded by two.
    std::vector<std::string> pairs4, pairs6;
    for (int i = 0; i < 600 && pairs4.size() < 2 * want; ++i) {
      size_t ai = rng.Below(net.hosts.size());
      size_t bi = rng.Below(net.hosts.size());
      if (ai == bi) continue;
      const std::string a = NameOf(*net.db, net.hosts[ai]);
      const std::string b = NameOf(*net.db, net.hosts[bi]);
      pairs4.push_back("Retrieve P From PATHS P Where P MATCHES Host(name='" +
                       a + "')->[connects()]{1,4}->Host(name='" + b + "')");
      pairs6.push_back("Retrieve P From PATHS P Where P MATCHES Host(name='" +
                       a + "')->[connects()]{1,6}->Host(name='" + b + "')");
    }
    hosthost4 = SampleNonEmpty(*engine, pairs4, want);
    // Host-Host(6) is expensive; a handful of instances characterizes it.
    hosthost6 = SampleNonEmpty(*engine, pairs6, std::min<size_t>(want, 8));
  }
};

Table1Fixture& Fixture() {
  static Table1Fixture* fixture = new Table1Fixture();
  return *fixture;
}

void RunInstances(benchmark::State& state, const char* label,
                  const InstanceSet& set, bool history) {
  Table1Fixture& fx = Fixture();
  RunEveryInstance(state, label, fx.net.db->backend().name(), *fx.engine,
                   history ? OnHistory(set, fx.net.end_time) : set);
  state.counters["instances"] = static_cast<double>(set.queries.size());
}

#define TABLE1_BENCH(name, member)                              \
  void BM_##name##_Snapshot(benchmark::State& state) {          \
    RunInstances(state, #name "_Snapshot", Fixture().member,    \
                 /*history=*/false);                            \
  }                                                             \
  BENCHMARK(BM_##name##_Snapshot)->Unit(benchmark::kMillisecond); \
  void BM_##name##_History(benchmark::State& state) {           \
    RunInstances(state, #name "_History", Fixture().member,     \
                 /*history=*/true);                             \
  }                                                             \
  BENCHMARK(BM_##name##_History)->Unit(benchmark::kMillisecond)

TABLE1_BENCH(Table1_TopDown, topdown);
TABLE1_BENCH(Table1_BottomUp, bottomup);
TABLE1_BENCH(Table1_VmVm4, vmvm);
TABLE1_BENCH(Table1_HostHost4, hosthost4);
TABLE1_BENCH(Table1_HostHost6, hosthost6);

}  // namespace
}  // namespace nepal::bench

NEPAL_BENCH_MAIN("table1_virtualized");
