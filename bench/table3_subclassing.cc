// Section 6 subclassing re-evaluation (in-text table).
//
// The paper reloads the legacy graph with 66 edge subclasses (one per
// type_indicator value) and re-runs the two slowest queries:
//   reverse service path:  9.844s -> 8.390s  (modest improvement)
//   bottom-up:             0.672s -> 0.049s  (interactive!)
// The per-class table partitioning automatically eliminates irrelevant
// edges from the navigation joins; the reverse path is dominated by
// *relevant* fanout, so it improves only modestly.
//
// This binary builds both loads and benchmarks the same instances on each.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace nepal::bench {
namespace {

struct Load {
  netmodel::LegacyNetwork net;
  std::unique_ptr<nql::QueryEngine> engine;
  InstanceSet reverse_path, bottomup;
};

struct Table3Fixture {
  Load single, subclassed;

  static void Build(bool subclassed, Load* load) {
    netmodel::LegacyParams params;
    params.num_devices = EnvInt("NEPAL_BENCH_LEGACY_DEVICES", 1000);
    params.subclassed = subclassed;
    params.history_days = 0;  // the re-evaluation is about the snapshot
    auto built = BuildLegacyNetwork(params, RelationalFactory());
    if (!built.ok()) {
      std::fprintf(stderr, "table3 setup: %s\n",
                   built.status().ToString().c_str());
      std::abort();
    }
    load->net = std::move(*built);
    load->engine = std::make_unique<nql::QueryEngine>(load->net.db.get(),
                                                      SerialEngineOptions());

    const std::string hop = load->net.EdgeAtom("service_hop");
    const std::string contains = load->net.EdgeAtom("contains");
    Rng rng(31337);

    for (Uid egress : load->net.egress_ports) {
      load->reverse_path.queries.push_back(
          "Retrieve P From PATHS P Where P MATCHES "
          "legacy_node(type_indicator='port')->[" +
          hop + "]{1,4}->legacy_node(name='" +
          NameOf(*load->net.db, egress) + "')");
    }
    std::vector<std::string> candidates;
    size_t want = static_cast<size_t>(NumInstances());
    for (size_t i = 0; i < 4 * want; ++i) {
      std::string port;
      if (i % 3 == 0 && !load->net.hub_devices.empty()) {
        Uid dev =
            load->net.hub_devices[rng.Below(load->net.hub_devices.size())];
        port = NameOf(*load->net.db, dev) + "-sh0-c0-p" + std::to_string(rng.Below(4));
      } else {
        port = NameOf(*load->net.db,
                      load->net.ports[rng.Below(load->net.ports.size())]);
      }
      candidates.push_back(
          "Retrieve P From PATHS P Where P MATCHES "
          "legacy_node(type_indicator='device')->[" +
          contains + "]{1,3}->legacy_node(name='" + port +
          "', type_indicator='port')");
    }
    load->bottomup = SampleNonEmpty(*load->engine, candidates, want);
  }

  Table3Fixture() {
    Build(false, &single);
    Build(true, &subclassed);
    std::fprintf(stderr, "[table3] single-class: %zu edges; subclassed: %zu "
                         "edges over %d classes\n",
                 single.net.db->edge_count(),
                 subclassed.net.db->edge_count(),
                 netmodel::kLegacyEdgeTypes);
  }
};

Table3Fixture& Fixture() {
  static Table3Fixture* fixture = new Table3Fixture();
  return *fixture;
}

void RunInstances(benchmark::State& state, const char* label,
                  const Load& load, const InstanceSet& set) {
  RunEveryInstance(state, label, load.net.db->backend().name(), *load.engine,
                   set);
}

// One iteration runs every sampled instance once (RunEveryInstance).
void BM_Table3_ReversePath_SingleClass(benchmark::State& state) {
  RunInstances(state, "Table3_ReversePath_SingleClass", Fixture().single,
               Fixture().single.reverse_path);
}
BENCHMARK(BM_Table3_ReversePath_SingleClass)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_Table3_ReversePath_Subclassed(benchmark::State& state) {
  RunInstances(state, "Table3_ReversePath_Subclassed", Fixture().subclassed,
               Fixture().subclassed.reverse_path);
}
BENCHMARK(BM_Table3_ReversePath_Subclassed)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_Table3_BottomUp_SingleClass(benchmark::State& state) {
  RunInstances(state, "Table3_BottomUp_SingleClass", Fixture().single,
               Fixture().single.bottomup);
}
BENCHMARK(BM_Table3_BottomUp_SingleClass)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_Table3_BottomUp_Subclassed(benchmark::State& state) {
  RunInstances(state, "Table3_BottomUp_Subclassed", Fixture().subclassed,
               Fixture().subclassed.bottomup);
}
BENCHMARK(BM_Table3_BottomUp_Subclassed)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace nepal::bench

NEPAL_BENCH_MAIN("table3_subclassing");
