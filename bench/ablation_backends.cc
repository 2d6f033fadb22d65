// Ablation: retargeting — the same queries on both execution backends.
//
// Nepal compiles one operator DAG; the graphstore executes it step-wise
// per traverser (the Gremlin strategy), with the traversers of one Extend
// sharing each frontier node's adjacency read, the relational engine with
// bulk hash joins over per-class tables (the Postgres strategy). Results
// are identical (asserted by the differential property tests); this bench
// compares their performance profiles on the Table-1 query mix. Both
// backends load the same network and sample the same instances, and one
// iteration runs every sampled instance once, so each query type's two
// records do identical work and report equal mean paths.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace nepal::bench {
namespace {

struct BackendLoad {
  netmodel::VirtualizedNetwork net;
  std::unique_ptr<nql::QueryEngine> engine;
  InstanceSet topdown, bottomup, vmvm;
};

struct BackendsFixture {
  BackendLoad graphstore, relational;

  static void Build(const netmodel::BackendFactory& factory,
                    BackendLoad* load) {
    netmodel::VirtualizedParams params;
    params.history_days = 0;
    auto built = BuildVirtualizedNetwork(params, factory);
    if (!built.ok()) std::abort();
    load->net = std::move(*built);
    load->engine = std::make_unique<nql::QueryEngine>(load->net.db.get(),
                                                      SerialEngineOptions());

    Rng rng(5);
    size_t want = static_cast<size_t>(NumInstances());
    std::vector<std::string> candidates;
    for (Uid vnf : load->net.vnfs) {
      candidates.push_back(
          "Retrieve P From PATHS P Where P MATCHES VNF(id=" +
          std::to_string(vnf) + ")->[Vertical()]{1,6}->Host()");
    }
    load->topdown = SampleNonEmpty(*load->engine, candidates, want);
    candidates.clear();
    for (size_t i = 0; i < load->net.hosts.size(); ++i) {
      candidates.push_back(
          "Retrieve P From PATHS P Where P MATCHES "
          "VNF()->[Vertical()]{1,6}->Host(id=" +
          std::to_string(load->net.hosts[rng.Below(load->net.hosts.size())]) +
          ")");
    }
    load->bottomup = SampleNonEmpty(*load->engine, candidates, want);
    candidates.clear();
    for (int i = 0; i < 400; ++i) {
      const std::string a =
          NameOf(*load->net.db, load->net.vms[rng.Below(load->net.vms.size())]);
      const std::string b =
          NameOf(*load->net.db, load->net.vms[rng.Below(load->net.vms.size())]);
      if (a == b) continue;
      candidates.push_back(
          "Retrieve P From PATHS P Where P MATCHES VM(name='" + a +
          "')->[virtual_connects()]{1,4}->VM(name='" + b + "')");
    }
    load->vmvm = SampleNonEmpty(*load->engine, candidates, want);
  }

  BackendsFixture() {
    Build(GraphStoreFactory(), &graphstore);
    Build(RelationalFactory(), &relational);
  }
};

BackendsFixture& Fixture() {
  static BackendsFixture* fixture = new BackendsFixture();
  return *fixture;
}

void RunInstances(benchmark::State& state, const char* label,
                  const BackendLoad& load, const InstanceSet& set) {
  RunEveryInstance(state, label, load.net.db->backend().name(), *load.engine,
                   set);
}

#define BACKEND_BENCH(query)                                        \
  void BM_##query##_GraphStore(benchmark::State& state) {          \
    RunInstances(state, #query "_GraphStore", Fixture().graphstore, \
                 Fixture().graphstore.query);                       \
  }                                                                 \
  BENCHMARK(BM_##query##_GraphStore)->Unit(benchmark::kMillisecond); \
  void BM_##query##_Relational(benchmark::State& state) {          \
    RunInstances(state, #query "_Relational", Fixture().relational, \
                 Fixture().relational.query);                       \
  }                                                                 \
  BENCHMARK(BM_##query##_Relational)->Unit(benchmark::kMillisecond)

BACKEND_BENCH(topdown);
BACKEND_BENCH(bottomup);
BACKEND_BENCH(vmvm);

}  // namespace
}  // namespace nepal::bench

NEPAL_BENCH_MAIN("ablation_backends");
