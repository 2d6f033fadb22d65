// Ablation: NFA product-automaton evaluation vs unrolled repetition plans.
//
// Bounded repetitions can be compiled either into the planner's unrolled
// Union-of-optionals plan (one nested Union per optional iteration) or
// into a Thompson NFA whose executor advances a frontier of
// (state, node) tuples with per-state memoization. The unrolled plan's
// cost grows with the repetition bound even when the frontier saturates
// early; the automaton pays per *reached* (state, node) pair, so it
// should be no slower at moderate depths and scale strictly better at
// deep ones. Unbounded Kleene-star reachability has no unrolled
// counterpart at all — the automaton is the only plan shape that
// terminates — so it is recorded automaton-only.

#include <map>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace nepal::bench {
namespace {

struct RaFixture {
  netmodel::VirtualizedNetwork net;
  std::unique_ptr<nql::QueryEngine> automaton;
  std::unique_ptr<nql::QueryEngine> unrolled;
  std::map<int, InstanceSet> by_depth;
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
    // Both engines run serially, so the comparison is between plan shapes,
    // not between how well each one's frontiers shard across cores.
    nql::EngineOptions nfa_options;
    nfa_options.plan.loop_strategy = nql::LoopStrategy::kAutomaton;
    nfa_options.plan.parallelism = 1;
    automaton = std::make_unique<nql::QueryEngine>(net.db.get(), nfa_options);
    nql::EngineOptions unroll_options;
    unroll_options.plan.loop_strategy = nql::LoopStrategy::kUnroll;
    unroll_options.plan.parallelism = 1;
    unrolled = std::make_unique<nql::QueryEngine>(net.db.get(), unroll_options);

    Rng rng(31);
    size_t want = static_cast<size_t>(NumInstances());
    // Both engines run the *same* sampled instance set per depth, so the
    // automaton/unrolled comparison is over identical work.
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
      by_depth[depth] = SampleNonEmpty(*automaton, candidates, want);
    }
    {
      // Unbounded reachability: every router reachable from a host over
      // any number of physical links. No unrolled counterpart exists —
      // the automaton's memoized traversal is what makes `*` terminate.
      std::vector<std::string> candidates;
      for (int i = 0; i < 60; ++i) {
        const std::string a =
            NameOf(*net.db, net.hosts[rng.Below(net.hosts.size())]);
        candidates.push_back(
            "Retrieve P From PATHS P Where P MATCHES Host(name='" + a +
            "')->[connects()]*->Router()");
      }
      star = SampleNonEmpty(*automaton, candidates, want);
    }
  }
};

RaFixture& Fixture() {
  static RaFixture* fixture = new RaFixture();
  return *fixture;
}

void RunInstances(benchmark::State& state, const char* label,
                  const nql::QueryEngine& engine, const InstanceSet& set) {
  if (set.queries.empty()) {
    state.SkipWithError("no non-empty instances sampled");
    return;
  }
  BenchJson::Instance().Begin(label, Fixture().net.db->backend().name(),
                              set.queries.front());
  // One iteration runs every sampled instance once, so however many
  // iterations google-benchmark picks, each side averages the same mix.
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

void BM_Depth2_Automaton(benchmark::State& state) {
  RunInstances(state, "Depth2_Automaton", *Fixture().automaton,
               Fixture().by_depth[2]);
}
BENCHMARK(BM_Depth2_Automaton)->Unit(benchmark::kMillisecond);

void BM_Depth2_Unrolled(benchmark::State& state) {
  RunInstances(state, "Depth2_Unrolled", *Fixture().unrolled,
               Fixture().by_depth[2]);
}
BENCHMARK(BM_Depth2_Unrolled)->Unit(benchmark::kMillisecond);

void BM_Depth6_Automaton(benchmark::State& state) {
  RunInstances(state, "Depth6_Automaton", *Fixture().automaton,
               Fixture().by_depth[6]);
}
BENCHMARK(BM_Depth6_Automaton)->Unit(benchmark::kMillisecond);

void BM_Depth6_Unrolled(benchmark::State& state) {
  RunInstances(state, "Depth6_Unrolled", *Fixture().unrolled,
               Fixture().by_depth[6]);
}
BENCHMARK(BM_Depth6_Unrolled)->Unit(benchmark::kMillisecond);

void BM_Depth12_Automaton(benchmark::State& state) {
  RunInstances(state, "Depth12_Automaton", *Fixture().automaton,
               Fixture().by_depth[12]);
}
BENCHMARK(BM_Depth12_Automaton)->Unit(benchmark::kMillisecond);

void BM_Depth12_Unrolled(benchmark::State& state) {
  RunInstances(state, "Depth12_Unrolled", *Fixture().unrolled,
               Fixture().by_depth[12]);
}
BENCHMARK(BM_Depth12_Unrolled)->Unit(benchmark::kMillisecond);

void BM_StarReachability_Automaton(benchmark::State& state) {
  RunInstances(state, "StarReachability_Automaton", *Fixture().automaton,
               Fixture().star);
}
BENCHMARK(BM_StarReachability_Automaton)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace nepal::bench

NEPAL_BENCH_MAIN("rpe_automaton");
