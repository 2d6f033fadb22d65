// Replication microbenchmarks (the src/replication subsystem):
//
//   - end-to-end ship+apply throughput under each primary fsync policy:
//     MB/s of WAL frames shipped and records/s applied at the follower,
//   - steady-state replication lag: the round-trip from a primary commit
//     to that commit being visible at the follower, in milliseconds.
//
// The follower connects to the primary's ReplicationListener over a unix
// socket, exactly as a fleet follower does, so the numbers cover the
// whole pipeline: encode → publish → wire → apply through the public
// GraphDb API → ack.
//
// Scale knob: NEPAL_BENCH_REPLICATION_ELEMENTS (default 2000 elements).
// Results land in BENCH_replication_throughput.json as counter records.

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "obs/metrics.h"
#include "persist/durable_store.h"
#include "replication/listener.h"
#include "replication/replica_store.h"
#include "schema/dsl_parser.h"

namespace nepal::bench {
namespace {

namespace fs = std::filesystem;

schema::SchemaPtr ReplicationSchema() {
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

int NumElements() {
  return EnvInt("NEPAL_BENCH_REPLICATION_ELEMENTS", 2000);
}

std::string FreshDir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() / ("nepal_bench_repl_" + name);
  fs::remove_all(dir);
  return dir.string();
}

persist::BackendFactory Factory() {
  return [](schema::SchemaPtr s)
             -> std::unique_ptr<storage::StorageBackend> {
    return std::make_unique<graphstore::GraphStore>(std::move(s));
  };
}

/// Hosts, VMs and placements — every write one shipped WAL record.
void Ingest(storage::GraphDb& db, int elements) {
  std::vector<Uid> hosts;
  for (int i = 0; i < elements; ++i) {
    if (i % 3 == 0 || hosts.empty()) {
      hosts.push_back(*db.AddNode(
          "Host", {{"name", Value("h" + std::to_string(i))},
                   {"serial", Value("sn" + std::to_string(i))}}));
    } else {
      Uid vm = *db.AddNode("VM", {{"name", Value("vm" + std::to_string(i))},
                                  {"status", Value("up")}});
      if (!db.AddEdge("OnServer", vm, hosts.back(), {}).ok()) std::abort();
    }
  }
}

/// A primary's listener on a unix socket and one follower connected to
/// it. Destroy it before the primary: the listener serves the store.
struct Standby {
  std::unique_ptr<replication::ReplicationListener> listener;
  std::unique_ptr<replication::ReplicaStore> follower;
};

Result<Standby> StartStandby(persist::DurableStore& primary,
                             const std::string& fdir) {
  replication::SocketAddress addr;
  addr.is_unix = true;
  addr.path = (fs::temp_directory_path() /
               ("nepal_bench_repl_" + std::to_string(::getpid()) + ".sock"))
                  .string();
  Standby standby;
  NEPAL_ASSIGN_OR_RETURN(
      standby.listener, replication::ReplicationListener::Start(primary, addr));
  NEPAL_ASSIGN_OR_RETURN(
      standby.follower,
      replication::ReplicaStore::Connect(fdir, ReplicationSchema(), Factory(),
                                         standby.listener->address()));
  return standby;
}

bool WaitForCatchUp(const persist::DurableStore& primary,
                    const replication::ReplicaStore& follower) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (follower.records_applied() < primary.records_appended()) {
    if (!follower.status().ok() ||
        std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

// ---- Ship + apply throughput per fsync policy ----

void BM_ShipApply(benchmark::State& state) {
  const auto policy = static_cast<persist::FsyncPolicy>(state.range(0));
  const int elements = NumElements();
  persist::DurableOptions options;
  options.fsync_policy = policy;
  auto* shipped_bytes = obs::MetricsRegistry::Global().GetCounter(
      "nepal.replication.shipped_bytes");

  uint64_t records = 0;
  uint64_t bytes = 0;
  double seconds = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const std::string pdir = FreshDir("ship_p");
    const std::string fdir = FreshDir("ship_f");
    auto primary = persist::DurableStore::Open(pdir, ReplicationSchema(),
                                               Factory(), options);
    if (!primary.ok()) {
      state.SkipWithError(primary.status().ToString().c_str());
      return;
    }
    auto standby = StartStandby(**primary, fdir);
    if (!standby.ok()) {
      state.SkipWithError(standby.status().ToString().c_str());
      return;
    }
    replication::ReplicaStore& follower = *standby->follower;
    const uint64_t bytes_before = shipped_bytes->Value();
    state.ResumeTiming();

    const auto t0 = std::chrono::steady_clock::now();
    Ingest((*primary)->db(), elements);
    if (!WaitForCatchUp(**primary, follower)) {
      state.SkipWithError("follower never caught up");
      return;
    }
    seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    records += follower.records_applied();
    bytes += shipped_bytes->Value() - bytes_before;

    state.PauseTiming();
    standby->follower.reset();
    standby->listener.reset();
    primary->reset();
    fs::remove_all(pdir);
    fs::remove_all(fdir);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(records));
  const std::string label = std::string("ShipApply/") +
                            persist::FsyncPolicyToString(policy);
  BenchJson::Instance().Counter(label, "elements",
                                static_cast<double>(elements));
  if (seconds > 0) {
    BenchJson::Instance().Counter(label, "ship_mb_per_s",
                                  static_cast<double>(bytes) / 1e6 / seconds);
    BenchJson::Instance().Counter(
        label, "apply_records_per_s",
        static_cast<double>(records) / seconds);
  }
}
BENCHMARK(BM_ShipApply)
    ->Arg(static_cast<int>(persist::FsyncPolicy::kNone))
    ->Arg(static_cast<int>(persist::FsyncPolicy::kInterval))
    ->Arg(static_cast<int>(persist::FsyncPolicy::kAlways))
    ->ArgName("fsync")
    ->Iterations(1);

// ---- Steady-state lag: commit-to-visible round trip ----

void BM_SteadyLag(benchmark::State& state) {
  const std::string pdir = FreshDir("lag_p");
  const std::string fdir = FreshDir("lag_f");
  persist::DurableOptions options;
  options.fsync_policy = persist::FsyncPolicy::kNone;
  auto primary = persist::DurableStore::Open(pdir, ReplicationSchema(),
                                             Factory(), options);
  if (!primary.ok()) {
    state.SkipWithError(primary.status().ToString().c_str());
    return;
  }
  auto standby = StartStandby(**primary, fdir);
  if (!standby.ok()) {
    state.SkipWithError(standby.status().ToString().c_str());
    return;
  }
  replication::ReplicaStore& follower = *standby->follower;
  // Warm the pipeline so the measurement sees steady state, not bootstrap.
  Ingest((*primary)->db(), 64);
  if (!WaitForCatchUp(**primary, follower)) {
    state.SkipWithError("follower never caught up");
    return;
  }

  double total_ms = 0;
  uint64_t samples = 0;
  int i = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    if (!(*primary)
             ->db()
             .AddNode("Host", {{"name", Value("lag" + std::to_string(i))},
                               {"serial", Value("ls" + std::to_string(i))}})
             .ok()) {
      state.SkipWithError("append failed");
      return;
    }
    ++i;
    const uint64_t target = (*primary)->records_appended();
    while (follower.records_applied() < target) {
      if (!follower.status().ok()) {
        state.SkipWithError("apply loop failed");
        return;
      }
      std::this_thread::yield();
    }
    total_ms +=
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    ++samples;
  }
  if (samples > 0) {
    BenchJson::Instance().Counter("SteadyLag", "steady_lag_ms",
                                  total_ms / static_cast<double>(samples));
    BenchJson::Instance().Counter("SteadyLag", "samples",
                                  static_cast<double>(samples));
  }
  standby->follower.reset();
  standby->listener.reset();
  primary->reset();
  fs::remove_all(pdir);
  fs::remove_all(fdir);
}
BENCHMARK(BM_SteadyLag);

}  // namespace
}  // namespace nepal::bench

NEPAL_BENCH_MAIN("replication_throughput");
