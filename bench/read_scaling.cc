// Read scaling across the replication fleet: the same reader pool (a
// fixed number of threads issuing path-count queries through one
// replica_ok-routed QueryEngine) measured against fleets of 0, 1, 2 and
// 3 socket followers, while a saturating writer keeps appending to the
// fsync=always primary the whole time.
//
// With zero followers every read queues behind the writer's exclusive
// lock, held for the in-memory apply of each group-commit batch. Each
// follower adds an independent store (fed its own copy of the write
// stream by its apply loop, re-logged without syncing) that the router
// rotates reads onto, so with a core per store the blocked fraction per
// read falls with fleet size — the multi-core headline is followers:3
// at >= 2.5x followers:0. On a single-core host the rows degenerate the
// same way parallel_scaling's lane counts do: every store timeshares
// the one core, the primary's lock is never contended long enough to
// matter, and the fleet rows instead price the replication pipeline
// itself (shipping plus N apply loops) — expect a mildly *declining*
// curve there, not a scaling one.
//
// Scale knobs:
//   NEPAL_BENCH_READ_SEED     — pre-loaded hosts (default 200)
//   NEPAL_BENCH_READ_MS       — measured window per fleet size (default 800)
//   NEPAL_BENCH_READ_THREADS  — reader threads (default 4)
//
// Results land in BENCH_read_scaling.json as counter records
// (ReadScaling/followers:N -> read_qps, replica_share, speedup).

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "persist/durable_store.h"
#include "replication/listener.h"
#include "replication/replica_store.h"
#include "replication/socket_util.h"
#include "schema/dsl_parser.h"

namespace nepal::bench {
namespace {

namespace fs = std::filesystem;

schema::SchemaPtr ReadScalingSchema() {
  static schema::SchemaPtr schema = [] {
    auto s = schema::ParseSchemaDsl(R"(
      node Host : Node { serial: string; }
      node Probe : Node { serial: string; }
    )");
    if (!s.ok()) std::abort();
    return *s;
  }();
  return schema;
}

std::string FreshDir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() / ("nepal_bench_rs_" + name);
  fs::remove_all(dir);
  return dir.string();
}

std::string FreshSocket(const std::string& tag) {
  const std::string path = "/tmp/nepal_bench_rs_" +
                           std::to_string(::getpid()) + "_" + tag + ".sock";
  ::unlink(path.c_str());
  return path;
}

persist::BackendFactory Factory() {
  return [](schema::SchemaPtr s)
             -> std::unique_ptr<storage::StorageBackend> {
    return std::make_unique<graphstore::GraphStore>(std::move(s));
  };
}

int SeedHosts() { return EnvInt("NEPAL_BENCH_READ_SEED", 200); }
int MeasureMs() { return EnvInt("NEPAL_BENCH_READ_MS", 800); }
int ReaderThreads() { return EnvInt("NEPAL_BENCH_READ_THREADS", 4); }

/// Mutations per writer batch — big enough that the exclusive-lock hold
/// per group commit dominates a routed read.
constexpr size_t kWriteBatch = 64;

/// followers -> measured QPS, so later fleet sizes can report their
/// speedup against the followers:0 baseline in the same JSON record.
std::map<int, double>& QpsByFleet() {
  static std::map<int, double>* qps = new std::map<int, double>();
  return *qps;
}

void BM_ReadScaling(benchmark::State& state) {
  const int followers = static_cast<int>(state.range(0));
  const std::string tag = "f" + std::to_string(followers);

  for (auto _ : state) {
    // The primary pays full durability: with fsync=always every commit
    // holds the store's exclusive lock across a disk sync, which is
    // exactly the stall replica reads exist to dodge. Followers re-log
    // without syncing — their durability story is "re-bootstrap from the
    // primary", so the apply loop holds locks only briefly.
    persist::DurableOptions durable;
    durable.fsync_policy = persist::FsyncPolicy::kAlways;
    auto primary = persist::DurableStore::Open(
        FreshDir(tag + "_p"), ReadScalingSchema(), Factory(), durable);
    if (!primary.ok()) {
      state.SkipWithError(primary.status().ToString().c_str());
      return;
    }
    // The read working set is a class the writer never touches, so a
    // routed read costs the same no matter how many live Hosts the
    // writer managed to land in any given configuration.
    for (int i = 0; i < SeedHosts(); ++i) {
      if (!(*primary)
               ->db()
               .AddNode("Probe",
                        {{"name", Value("seed" + std::to_string(i))},
                         {"serial", Value("sn" + std::to_string(i))}})
               .ok()) {
        state.SkipWithError("seed ingest failed");
        return;
      }
    }

    auto address =
        replication::ParseSocketAddress("unix:" + FreshSocket(tag));
    if (!address.ok()) {
      state.SkipWithError(address.status().ToString().c_str());
      return;
    }
    std::unique_ptr<replication::ReplicationListener> listener;
    std::vector<std::unique_ptr<replication::ReplicaStore>> fleet;
    if (followers > 0) {
      auto started = replication::ReplicationListener::Start(**primary,
                                                             *address);
      if (!started.ok()) {
        state.SkipWithError(started.status().ToString().c_str());
        return;
      }
      listener = std::move(*started);
      for (int i = 0; i < followers; ++i) {
        replication::ConnectOptions connect;
        connect.name = "bench-f" + std::to_string(i);
        connect.replica.durable.fsync_policy = persist::FsyncPolicy::kNone;
        auto follower = replication::ReplicaStore::Connect(
            FreshDir(tag + "_r" + std::to_string(i)), ReadScalingSchema(),
            Factory(), *address, connect);
        if (!follower.ok()) {
          state.SkipWithError(follower.status().ToString().c_str());
          return;
        }
        fleet.push_back(std::move(*follower));
      }
    }

    nql::EngineOptions options = SerialEngineOptions();
    options.routing.policy = nql::ReadPolicy::kRoundRobin;
    options.routing.max_lag_ms = 60000;
    nql::QueryEngine engine(&(*primary)->db(), options);
    for (size_t i = 0; i < fleet.size(); ++i) {
      if (!engine.catalog()
               .AttachReplica("bench-f" + std::to_string(i), fleet[i].get())
               .ok()) {
        state.SkipWithError("AttachReplica failed");
        return;
      }
    }
    // Let the fleet absorb the seed so the window measures steady-state
    // tailing, not bootstrap. Converged content, not applied-record
    // counters, is the signal: bootstrap images carry data the applied
    // counter never saw.
    for (const auto& f : fleet) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (f->serving() &&
             f->db().node_count() < (*primary)->db().node_count() &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }

    // Saturating writer for the whole measured window: back-to-back
    // group-commit batches, each holding the primary's exclusive lock for
    // the in-memory apply of the whole batch. This is the ingest shape
    // the fleet exists for — reads on the primary queue behind every
    // batch, reads routed to a follower only queue behind that one
    // follower's (asynchronous, amortized) apply loop.
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> writes{0};
    std::thread writer([&] {
      size_t serial = 0;
      while (!stop.load(std::memory_order_acquire)) {
        std::vector<storage::Mutation> muts;
        muts.reserve(kWriteBatch);
        for (size_t i = 0; i < kWriteBatch; ++i) {
          const std::string t =
              std::to_string(serial) + "_" + std::to_string(i);
          muts.push_back(storage::Mutation::AddNode(
              "Host",
              {{"name", Value("live" + t)}, {"serial", Value("lv" + t)}}));
        }
        ++serial;
        if ((*primary)->db().ApplyBatch(muts).ok()) {
          writes.fetch_add(kWriteBatch, std::memory_order_relaxed);
        }
      }
    });

    const std::string query =
        "Select count(P) From PATHS P Where P MATCHES Probe()";
    std::atomic<uint64_t> reads{0};
    std::atomic<uint64_t> failures{0};
    std::vector<std::thread> readers;
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(MeasureMs());
    const auto t0 = std::chrono::steady_clock::now();
    for (int t = 0; t < ReaderThreads(); ++t) {
      readers.emplace_back([&] {
        while (std::chrono::steady_clock::now() < until) {
          if (engine.Run(query).ok()) {
            reads.fetch_add(1, std::memory_order_relaxed);
          } else {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
          // A touch of think time makes the readers open-loop clients.
          // Closed-loop hammering never drains the reader count to zero,
          // so the (reader-preferring) store lock starves the writer and
          // the baseline quietly measures an idle-primary fleet.
          std::this_thread::sleep_for(std::chrono::microseconds(300));
        }
      });
    }
    for (auto& r : readers) r.join();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    stop.store(true, std::memory_order_release);
    writer.join();
    if (failures.load() > 0) {
      state.SkipWithError("routed reads failed during the window");
      return;
    }

    const double qps = static_cast<double>(reads.load()) / seconds;
    QpsByFleet()[followers] = qps;
    state.SetItemsProcessed(static_cast<int64_t>(reads.load()));
    state.counters["read_qps"] = qps;
    state.counters["writes"] = static_cast<double>(writes.load());

    const std::string label = "ReadScaling/followers:" +
                              std::to_string(followers);
    BenchJson::Instance().Counter(label, "followers",
                                  static_cast<double>(followers));
    BenchJson::Instance().Counter(label, "reader_threads",
                                  static_cast<double>(ReaderThreads()));
    BenchJson::Instance().Counter(label, "read_qps", qps);
    BenchJson::Instance().Counter(
        label, "reads", static_cast<double>(reads.load()));
    BenchJson::Instance().Counter(
        label, "writes_during_window",
        static_cast<double>(writes.load()));
    const auto baseline = QpsByFleet().find(0);
    if (baseline != QpsByFleet().end() && baseline->second > 0) {
      BenchJson::Instance().Counter(label, "speedup_vs_primary_only",
                                    qps / baseline->second);
    }
  }
}
BENCHMARK(BM_ReadScaling)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->ArgName("followers")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

}  // namespace
}  // namespace nepal::bench

NEPAL_BENCH_MAIN("read_scaling");
