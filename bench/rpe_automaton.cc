// Regular-path engine: open and bounded repetition Loops on one small core.
//
// Every repetition is a Loop step. One whose body is one atom or an
// alternation of atoms runs as the paper's ExtendBlock, bounded
// ([r]{i,j}) or open ([r]*, [r]+, [r]{i,}); any other runs its body
// program once per round. An open Loop ends at its first empty round,
// since every round lengthens every simple path (the planner rewrites a
// body that can match the empty sequence). The DepthN_Loop records time
// {1,N} host-to-host queries as planned. Saturated_Loop reruns the
// depth-12 instances with the maximum opened ([connects()]+). No simple
// connects path from a host on this core has more than 12 hops, so +
// enumerates exactly the paths {1,12} does and the two records do the same
// work. SaturatedGeneral_Loop runs the same host pairs through a general
// body with the same matches, [connects()->Node()]*->connects(), and
// SaturatedMixed_Loop through a body whose matches differ in length,
// [connects()|connects()->Node()->connects()]+: its rounds reach one path
// several times, and the Loop skips a path an earlier round reached.
// StarReachability_Loop is unbounded Kleene-star reachability
// ([connects()]*->Router()), an open Loop that hands on only paths ending
// at a Router.

#include <map>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace nepal::bench {
namespace {

struct RaFixture {
  netmodel::VirtualizedNetwork net;
  std::unique_ptr<nql::QueryEngine> engine;
  std::map<int, InstanceSet> by_depth;
  InstanceSet saturated_loop;
  InstanceSet saturated_general;
  InstanceSet saturated_mixed;
  InstanceSet star;

  RaFixture() {
    netmodel::VirtualizedParams params;
    params.history_days = 0;
    // Pathways are simple paths, so deep repetitions enumerate every
    // acyclic wander through the switching core. Keep that core small
    // (2 routers + 2 aggs + 3 ToRs) so the depth-12 frontier stays
    // bounded while still being genuinely cyclic.
    params.num_hosts = 24;
    params.num_agg_switches = 2;
    params.num_routers = 2;
    params.num_datacenters = 1;
    params.num_services = 4;
    params.num_vnfs = 8;
    params.vfcs_per_vnf = 4;
    params.num_vnets = 20;
    params.num_vrouters = 6;
    auto built = BuildVirtualizedNetwork(params, RelationalFactory());
    if (!built.ok()) std::abort();
    net = std::move(*built);
    // Serial evaluation, so the records compare plans, not how well each
    // one's frontiers shard across cores.
    nql::EngineOptions options;
    options.plan.parallelism = 1;
    engine = std::make_unique<nql::QueryEngine>(net.db.get(), options);

    Rng rng(31);
    size_t want = static_cast<size_t>(NumInstances());
    for (int depth : {2, 6, 12}) {
      std::vector<std::string> candidates;
      for (int i = 0; i < 120; ++i) {
        const std::string a =
            NameOf(*net.db, net.hosts[rng.Below(net.hosts.size())]);
        const std::string b =
            NameOf(*net.db, net.hosts[rng.Below(net.hosts.size())]);
        if (a == b) continue;
        candidates.push_back(
            "Retrieve P From PATHS P Where P MATCHES Host(name='" + a +
            "')->[connects()]{1," + std::to_string(depth) +
            "}->Host(name='" + b + "')");
      }
      by_depth[depth] = SampleNonEmpty(*engine, candidates, want);
    }
    // The depth-12 instances with an open maximum, and through a general
    // body of fixed and of mixed length: the same host pairs, matching the
    // same paths.
    for (const std::string& query : by_depth[12].queries) {
      const size_t at = query.find("[connects()]{1,12}");
      std::string open = query;
      open.replace(at + 12, 6, "+");
      saturated_loop.queries.push_back(std::move(open));
      std::string general = query;
      general.replace(at, 18, "[connects()->Node()]*->connects()");
      saturated_general.queries.push_back(std::move(general));
      std::string mixed = query;
      mixed.replace(at, 18, "[connects()|connects()->Node()->connects()]+");
      saturated_mixed.queries.push_back(std::move(mixed));
    }
    {
      // Unbounded reachability: every router reachable from a host over
      // any number of physical links.
      std::vector<std::string> candidates;
      for (int i = 0; i < 60; ++i) {
        const std::string a =
            NameOf(*net.db, net.hosts[rng.Below(net.hosts.size())]);
        candidates.push_back(
            "Retrieve P From PATHS P Where P MATCHES Host(name='" + a +
            "')->[connects()]*->Router()");
      }
      star = SampleNonEmpty(*engine, candidates, want);
    }
  }
};

RaFixture& Fixture() {
  static RaFixture* fixture = new RaFixture();
  return *fixture;
}

void RunInstances(benchmark::State& state, const char* label,
                  const InstanceSet& set) {
  RunEveryInstance(state, label, Fixture().net.db->backend().name(),
                   *Fixture().engine, set);
}

void BM_Depth2_Loop(benchmark::State& state) {
  RunInstances(state, "Depth2_Loop", Fixture().by_depth[2]);
}
BENCHMARK(BM_Depth2_Loop)->Unit(benchmark::kMillisecond);

void BM_Depth6_Loop(benchmark::State& state) {
  RunInstances(state, "Depth6_Loop", Fixture().by_depth[6]);
}
BENCHMARK(BM_Depth6_Loop)->Unit(benchmark::kMillisecond);

void BM_Depth12_Loop(benchmark::State& state) {
  RunInstances(state, "Depth12_Loop", Fixture().by_depth[12]);
}
BENCHMARK(BM_Depth12_Loop)->Unit(benchmark::kMillisecond);

void BM_Saturated_Loop(benchmark::State& state) {
  RunInstances(state, "Saturated_Loop", Fixture().saturated_loop);
}
BENCHMARK(BM_Saturated_Loop)->Unit(benchmark::kMillisecond);

void BM_SaturatedGeneral_Loop(benchmark::State& state) {
  RunInstances(state, "SaturatedGeneral_Loop", Fixture().saturated_general);
}
BENCHMARK(BM_SaturatedGeneral_Loop)->Unit(benchmark::kMillisecond);

void BM_SaturatedMixed_Loop(benchmark::State& state) {
  RunInstances(state, "SaturatedMixed_Loop", Fixture().saturated_mixed);
}
BENCHMARK(BM_SaturatedMixed_Loop)->Unit(benchmark::kMillisecond);

void BM_StarReachability_Loop(benchmark::State& state) {
  RunInstances(state, "StarReachability_Loop", Fixture().star);
}
BENCHMARK(BM_StarReachability_Loop)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace nepal::bench

NEPAL_BENCH_MAIN("rpe_automaton");
