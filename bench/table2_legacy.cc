// Table 2 — query response times on the legacy topology (single-class
// load: one node class, one edge class, type_indicator predicates).
//
//   Service path  port(name=head) -> [service_hop]{1,4} -> port()
//   Reverse path  port() -> [service_hop]{1,4} -> port(name=egress)
//   Top-down      card(name=X) -> [contains]{1,3} -> port()
//   Bottom-up     device() -> [contains]{1,3} -> port(name=Y)
//
// The bottom-up instance mix includes ports on monitoring-flooded hub
// devices, reproducing the paper's bimodal latencies (34 fast / 16 slow of
// 50 samples). Scale with NEPAL_BENCH_LEGACY_DEVICES (default 1000; the
// paper's 1.6M-node data set corresponds to ~11000).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace nepal::bench {
namespace {

struct Table2Fixture {
  netmodel::LegacyNetwork net;
  std::unique_ptr<nql::QueryEngine> engine;
  InstanceSet service_path, reverse_path, topdown, bottomup;

  explicit Table2Fixture(bool subclassed) {
    netmodel::LegacyParams params;
    params.num_devices = EnvInt("NEPAL_BENCH_LEGACY_DEVICES", 1000);
    params.subclassed = subclassed;
    auto built = BuildLegacyNetwork(params, RelationalFactory());
    if (!built.ok()) {
      std::fprintf(stderr, "table2 setup: %s\n",
                   built.status().ToString().c_str());
      std::abort();
    }
    net = std::move(*built);
    engine = std::make_unique<nql::QueryEngine>(net.db.get(),
                                                SerialEngineOptions());
    std::fprintf(stderr,
                 "[legacy %s] %zu nodes, %zu edges, history +%.1f%% "
                 "versions\n",
                 subclassed ? "subclassed" : "single-class",
                 net.db->node_count(), net.db->edge_count(),
                 100.0 *
                     static_cast<double>(net.final_version_count -
                                         net.initial_version_count) /
                     static_cast<double>(net.initial_version_count));

    size_t want = static_cast<size_t>(NumInstances());
    Rng rng(31337);
    const std::string hop = net.EdgeAtom("service_hop");
    const std::string contains = net.EdgeAtom("contains");

    // Forward service paths, anchored at chain heads.
    std::vector<std::string> candidates;
    for (Uid head : net.chain_heads) {
      candidates.push_back(
          "Retrieve P From PATHS P Where P MATCHES legacy_node(name='" +
          NameOf(*net.db, head) + "')->[" + hop +
          "]{1,4}->legacy_node(type_indicator='port')");
    }
    service_path = SampleNonEmpty(*engine, candidates, want);

    // Reverse service paths, anchored at the egress ports. These return
    // hundreds of thousands of paths; a few instances characterize them.
    candidates.clear();
    for (Uid egress : net.egress_ports) {
      candidates.push_back(
          "Retrieve P From PATHS P Where P MATCHES "
          "legacy_node(type_indicator='port')->[" +
          hop + "]{1,4}->legacy_node(name='" + NameOf(*net.db, egress) + "')");
    }
    reverse_path.queries = candidates;  // sampling would pre-run 3s queries

    // Top-down: from a card through the containment hierarchy.
    candidates.clear();
    for (size_t i = 0; i < 4 * want; ++i) {
      Uid dev = net.devices[rng.Below(net.devices.size())];
      std::string card = NameOf(*net.db, dev) + "-sh" +
                         std::to_string(rng.Below(2)) + "-c" +
                         std::to_string(rng.Below(4));
      candidates.push_back(
          "Retrieve P From PATHS P Where P MATCHES legacy_node(name='" +
          card + "', type_indicator='card')->[" + contains +
          "]{1,3}->legacy_node(type_indicator='port')");
    }
    topdown = SampleNonEmpty(*engine, candidates, want);

    // Bottom-up: anchored at a port, traversing containment backwards.
    // Roughly a third of the instances target hub-device ports (the
    // paper's 16-of-50 slow samples).
    candidates.clear();
    for (size_t i = 0; i < 4 * want; ++i) {
      std::string port;
      if (i % 3 == 0 && !net.hub_devices.empty()) {
        Uid dev = net.hub_devices[rng.Below(net.hub_devices.size())];
        port = NameOf(*net.db, dev) + "-sh0-c0-p" + std::to_string(rng.Below(4));
      } else {
        port = NameOf(*net.db, net.ports[rng.Below(net.ports.size())]);
      }
      candidates.push_back(
          "Retrieve P From PATHS P Where P MATCHES "
          "legacy_node(type_indicator='device')->[" +
          contains + "]{1,3}->legacy_node(name='" + port +
          "', type_indicator='port')");
    }
    bottomup = SampleNonEmpty(*engine, candidates, want);
  }
};

Table2Fixture& Fixture() {
  static Table2Fixture* fixture = new Table2Fixture(/*subclassed=*/false);
  return *fixture;
}

void RunInstances(benchmark::State& state, const char* label,
                  const InstanceSet& set, bool history) {
  Table2Fixture& fx = Fixture();
  RunEveryInstance(state, label, fx.net.db->backend().name(), *fx.engine,
                   history ? OnHistory(set, fx.net.end_time) : set);
  state.counters["instances"] = static_cast<double>(set.queries.size());
}

// One iteration runs every sampled instance once (RunEveryInstance).
#define TABLE2_BENCH(name, member)                               \
  void BM_##name##_Snapshot(benchmark::State& state) {           \
    RunInstances(state, #name "_Snapshot", Fixture().member,     \
                 /*history=*/false);                             \
  }                                                              \
  BENCHMARK(BM_##name##_Snapshot)                                \
      ->Unit(benchmark::kMillisecond)                            \
      ->Iterations(1);                                           \
  void BM_##name##_History(benchmark::State& state) {            \
    RunInstances(state, #name "_History", Fixture().member,      \
                 /*history=*/true);                              \
  }                                                              \
  BENCHMARK(BM_##name##_History)                                 \
      ->Unit(benchmark::kMillisecond)                            \
      ->Iterations(1)

TABLE2_BENCH(Table2_ServicePath, service_path);
TABLE2_BENCH(Table2_ReversePath, reverse_path);
TABLE2_BENCH(Table2_TopDown, topdown);
TABLE2_BENCH(Table2_BottomUp, bottomup);

}  // namespace
}  // namespace nepal::bench

NEPAL_BENCH_MAIN("table2_legacy");
