// Ablation: anchor position.
//
// The same Host-to-Host reachability question posed three ways:
//   both ends named   — the planner picks the cheaper anchor,
//   start named only  — forward extension from the anchor,
//   end named only    — backward extension from the anchor.
// The paper observes that forward and backward execution differ mainly in
// the fanout they encounter; an unanchored far end turns a point-to-point
// query into a one-to-many sweep, which is why anchor selection matters.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace nepal::bench {
namespace {

struct AnchorFixture {
  netmodel::VirtualizedNetwork net;
  std::unique_ptr<nql::QueryEngine> engine;
  InstanceSet both_ends, start_only, end_only;

  AnchorFixture() {
    netmodel::VirtualizedParams params;
    params.history_days = 0;
    auto built = BuildVirtualizedNetwork(params, RelationalFactory());
    if (!built.ok()) std::abort();
    net = std::move(*built);
    engine = std::make_unique<nql::QueryEngine>(net.db.get(),
                                                SerialEngineOptions());

    Rng rng(17);
    std::vector<std::string> both, starts, ends;
    size_t want = static_cast<size_t>(NumInstances());
    for (size_t i = 0; i < 6 * want && both.size() < 2 * want; ++i) {
      const std::string a =
          NameOf(*net.db, net.hosts[rng.Below(net.hosts.size())]);
      const std::string b =
          NameOf(*net.db, net.hosts[rng.Below(net.hosts.size())]);
      if (a == b) continue;
      both.push_back("Retrieve P From PATHS P Where P MATCHES Host(name='" +
                     a + "')->[connects()]{1,4}->Host(name='" + b + "')");
      starts.push_back("Retrieve P From PATHS P Where P MATCHES Host(name='" +
                       a + "')->[connects()]{1,4}->Host()");
      ends.push_back("Retrieve P From PATHS P Where P MATCHES "
                     "Host()->[connects()]{1,4}->Host(name='" + b + "')");
    }
    both_ends = SampleNonEmpty(*engine, both, want);
    start_only = SampleNonEmpty(*engine, starts, want);
    end_only = SampleNonEmpty(*engine, ends, want);
  }
};

AnchorFixture& Fixture() {
  static AnchorFixture* fixture = new AnchorFixture();
  return *fixture;
}

void RunInstances(benchmark::State& state, const char* label,
                  const InstanceSet& set) {
  RunEveryInstance(state, label, Fixture().net.db->backend().name(),
                   *Fixture().engine, set);
}

void BM_Anchor_BothEnds(benchmark::State& state) {
  RunInstances(state, "Anchor_BothEnds", Fixture().both_ends);
}
BENCHMARK(BM_Anchor_BothEnds)->Unit(benchmark::kMillisecond);

void BM_Anchor_StartOnly(benchmark::State& state) {
  RunInstances(state, "Anchor_StartOnly", Fixture().start_only);
}
BENCHMARK(BM_Anchor_StartOnly)->Unit(benchmark::kMillisecond);

void BM_Anchor_EndOnly(benchmark::State& state) {
  RunInstances(state, "Anchor_EndOnly", Fixture().end_only);
}
BENCHMARK(BM_Anchor_EndOnly)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace nepal::bench

NEPAL_BENCH_MAIN("ablation_anchors");
