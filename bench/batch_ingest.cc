// Group-commit ingest microbenchmarks (GraphDb::ApplyBatch + the
// src/persist WAL fast path):
//
//   - mutations/s as a function of batch size (1, 8, 128) under each
//     durable fsync policy — the group-commit payoff is one WAL write
//     and at most one fsync per batch instead of per mutation,
//   - snapshot-read QPS while a concurrent writer continuously holds
//     the write path with batched inserts (every query pins its reads to
//     a commit epoch instead of queueing on the writer lock for its whole
//     evaluation).
//
// Scale knob: NEPAL_BENCH_BATCH_SECONDS (default 1 second per
// configuration for the reader/writer benchmark). Results land in
// BENCH_batch_ingest.json as counter records; the CI bench-smoke step
// asserts the batch-128 vs batch-1 speedup under the `always` policy.

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "persist/durable_store.h"
#include "schema/dsl_parser.h"
#include "storage/graphdb.h"

namespace nepal::bench {
namespace {

namespace fs = std::filesystem;

schema::SchemaPtr IngestSchema() {
  static schema::SchemaPtr schema = [] {
    auto s = schema::ParseSchemaDsl(R"(
      node Host : Node { serial: string; }
      node VM : Node { status: string; }
      edge OnServer : Edge {}
      allow OnServer (VM -> Host);
    )");
    if (!s.ok()) std::abort();
    return *s;
  }();
  return schema;
}

std::string FreshDir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() / ("nepal_bench_" + name);
  fs::remove_all(dir);
  return dir.string();
}

persist::BackendFactory Factory() {
  return [](schema::SchemaPtr s) -> std::unique_ptr<storage::StorageBackend> {
    return std::make_unique<graphstore::GraphStore>(std::move(s));
  };
}

const char* PolicyName(persist::FsyncPolicy policy) {
  return persist::FsyncPolicyToString(policy);
}

std::vector<storage::Mutation> NodeBatch(size_t batch, size_t serial) {
  std::vector<storage::Mutation> muts;
  muts.reserve(batch);
  for (size_t i = 0; i < batch; ++i) {
    const std::string tag = std::to_string(serial) + "_" + std::to_string(i);
    muts.push_back(storage::Mutation::AddNode(
        "VM", {{"name", Value("vm" + tag)}, {"status", Value("up")}}));
  }
  return muts;
}

// ---- mutations/s vs batch size x fsync policy ----

void BM_BatchIngest(benchmark::State& state) {
  const auto policy = static_cast<persist::FsyncPolicy>(state.range(0));
  const auto batch = static_cast<size_t>(state.range(1));
  const std::string dir =
      FreshDir(std::string("batch_ingest_") + PolicyName(policy) + "_" +
               std::to_string(batch));
  persist::DurableOptions options;
  options.fsync_policy = policy;
  auto store =
      persist::DurableStore::Open(dir, IngestSchema(), Factory(), options);
  if (!store.ok()) {
    state.SkipWithError(store.status().ToString().c_str());
    return;
  }
  storage::GraphDb& db = (*store)->db();
  if (!db.SetTime(1500000000000000).ok()) {
    state.SkipWithError("SetTime failed");
    return;
  }
  size_t serial = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    std::vector<storage::Mutation> muts = NodeBatch(batch, serial++);
    if (!db.ApplyBatch(muts).ok()) {
      state.SkipWithError("ApplyBatch failed");
      return;
    }
    benchmark::DoNotOptimize(muts[0].uid);
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const double mutations =
      static_cast<double>(state.iterations()) * static_cast<double>(batch);
  state.SetItemsProcessed(static_cast<int64_t>(mutations));
  const std::string label = std::string("BatchIngest/") + PolicyName(policy) +
                            "/batch" + std::to_string(batch);
  BenchJson::Instance().Counter(label, "batch_size",
                                static_cast<double>(batch));
  if (seconds > 0) {
    BenchJson::Instance().Counter(label, "mutations_per_s",
                                  mutations / seconds);
  }
  store->reset();
  fs::remove_all(dir);
}
BENCHMARK(BM_BatchIngest)
    ->Args({static_cast<int>(persist::FsyncPolicy::kAlways), 1})
    ->Args({static_cast<int>(persist::FsyncPolicy::kAlways), 8})
    ->Args({static_cast<int>(persist::FsyncPolicy::kAlways), 128})
    ->Args({static_cast<int>(persist::FsyncPolicy::kInterval), 1})
    ->Args({static_cast<int>(persist::FsyncPolicy::kInterval), 8})
    ->Args({static_cast<int>(persist::FsyncPolicy::kInterval), 128})
    ->ArgNames({"fsync", "batch"})
    ->Unit(benchmark::kMicrosecond);

// ---- snapshot-read QPS under a concurrent batched writer ----

// The writer thread keeps the write path saturated with group commits;
// the timed loop runs a path query, which pins a commit epoch and never
// queues behind the exclusive lock for the whole query. The QPS counter
// is the acceptance signal: it must stay nonzero (reads make progress
// while the writer runs), and the writer batch counter shows the write
// path really was busy.
void BM_SnapshotReadUnderWriter(benchmark::State& state) {
  storage::GraphDb db(IngestSchema(),
                      std::make_unique<graphstore::GraphStore>(IngestSchema()));
  if (!db.SetTime(1500000000000000).ok()) {
    state.SkipWithError("SetTime failed");
    return;
  }
  // Seed a small placement fabric so the query has paths to find.
  std::vector<Uid> hosts;
  for (int i = 0; i < 8; ++i) {
    hosts.push_back(*db.AddNode(
        "Host", {{"name", Value("h" + std::to_string(i))},
                 {"serial", Value("sn" + std::to_string(i))}}));
  }
  for (int i = 0; i < 64; ++i) {
    Uid vm = *db.AddNode("VM", {{"name", Value("seed" + std::to_string(i))},
                                {"status", Value("up")}});
    if (!db.AddEdge("OnServer", vm, hosts[static_cast<size_t>(i % 8)], {})
             .ok()) {
      state.SkipWithError("seed AddEdge failed");
      return;
    }
  }

  nql::QueryEngine engine(&db, SerialEngineOptions());
  const std::string query =
      "Retrieve P From PATHS P Where P MATCHES VM()->OnServer()->Host()";

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> writer_batches{0};
  std::thread writer([&] {
    size_t serial = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<storage::Mutation> muts = NodeBatch(64, 100000 + serial++);
      if (!db.ApplyBatch(muts).ok()) return;
      writer_batches.fetch_add(1, std::memory_order_relaxed);
    }
  });

  size_t queries = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    auto result = engine.Run(query);
    if (!result.ok() || result->rows.empty()) {
      stop.store(true);
      writer.join();
      state.SkipWithError("snapshot read failed under concurrent writer");
      return;
    }
    ++queries;
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  stop.store(true);
  writer.join();
  state.SetItemsProcessed(static_cast<int64_t>(queries));
  BenchJson::Instance().Counter("SnapshotReadUnderWriter", "snapshot_read_qps",
                                seconds > 0
                                    ? static_cast<double>(queries) / seconds
                                    : 0);
  BenchJson::Instance().Counter(
      "SnapshotReadUnderWriter", "writer_batches",
      static_cast<double>(writer_batches.load(std::memory_order_relaxed)));
  BenchJson::Instance().Counter(
      "SnapshotReadUnderWriter", "writer_mutations_per_s",
      seconds > 0 ? static_cast<double>(
                        writer_batches.load(std::memory_order_relaxed)) *
                        64.0 / seconds
                  : 0);
}
BENCHMARK(BM_SnapshotReadUnderWriter)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace nepal::bench

NEPAL_BENCH_MAIN("batch_ingest");
