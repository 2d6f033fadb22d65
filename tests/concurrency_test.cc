// Concurrent reader/writer stress tests. A writer thread keeps advancing
// the transaction clock and mutating the deployment while several reader
// threads run queries (including parallel-executor and subquery queries).
// Every query must observe a consistent store — the engine pins each
// source to a commit epoch and takes the GraphDb shared lock only around
// planning and each operator call — and the whole test must be clean
// under TSan (the CI Debug job builds with -fsanitize=thread,undefined).

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nepal/engine.h"
#include "tests/testutil.h"

namespace nepal {
namespace {

using nepal::testing::BackendKind;
using nepal::testing::TinyNetwork;

class ConcurrencyTest : public ::testing::TestWithParam<BackendKind> {};

TEST_P(ConcurrencyTest, WriterAndParallelReadersStayConsistent) {
  TinyNetwork net = nepal::testing::MakeTinyNetwork(GetParam());
  storage::GraphDb& db = *net.db;

  constexpr int kWriterOps = 120;
  constexpr int kReaders = 3;
  constexpr int kMinQueriesPerReader = 15;

  std::atomic<bool> writer_done{false};
  std::atomic<int> write_errors{0};

  // One writer: advances the clock every iteration and churns VM
  // placements — add a VM on a host, flip its status, remove it again.
  std::thread writer([&] {
    std::vector<Uid> spawned;
    for (int i = 0; i < kWriterOps; ++i) {
      // Monotone clock: one second per write batch.
      if (!db.SetTime(db.Now() + 1000000).ok()) ++write_errors;
      switch (i % 4) {
        case 0: {
          auto vm = db.AddNode(
              "VMWare", {{"name", Value("stress-vm-" + std::to_string(i))},
                         {"status", Value("Green")}});
          if (!vm.ok()) {
            ++write_errors;
            break;
          }
          spawned.push_back(*vm);
          Uid host = (i % 8 == 0) ? net.host1 : net.host2;
          if (!db.AddEdge("OnServer", *vm, host, {}).ok()) ++write_errors;
          break;
        }
        case 1:
          if (!db.UpdateElement(net.vm1,
                                {{"status", Value(i % 2 == 0 ? "Red"
                                                             : "Green")}})
                   .ok()) {
            ++write_errors;
          }
          break;
        case 2:
          if (!spawned.empty()) {
            // Node removal cascades onto the placement edge.
            if (!db.RemoveElement(spawned.back()).ok()) ++write_errors;
            spawned.pop_back();
          }
          break;
        default:
          if (!db.UpdateElement(net.host2,
                                {{"serial", Value("s" + std::to_string(i))}})
                   .ok()) {
            ++write_errors;
          }
          break;
      }
    }
    writer_done.store(true);
  });

  // Readers: each has its own engine with the parallel executor enabled,
  // so shared-lock acquisition, frontier sharding, and the work-stealing
  // pool all run under contention. Query #2 nests a subquery, exercising
  // the locks-already-held recursion path.
  const std::string queries[] = {
      "Retrieve P From PATHS P Where P MATCHES "
      "VNF()->[Vertical()]{1,6}->Host()",
      "Retrieve P From PATHS P Where P MATCHES "
      "Host()->[Connects()]{1,3}->Host()",
      "Retrieve V From PATHS V Where V MATCHES Host() "
      "And EXISTS( Retrieve P From PATHS P "
      "  Where P MATCHES VM()->Host() And target(P) = target(V))",
      "Retrieve P From PATHS P Where P MATCHES VM(status='Green')",
  };

  std::atomic<int> read_errors{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      nql::EngineOptions options;
      options.plan.parallelism = 4;
      nql::QueryEngine engine(net.db.get(), options);
      int ran = 0;
      while (!writer_done.load() || ran < kMinQueriesPerReader) {
        const std::string& q = queries[(r + ran) % 4];
        auto result = engine.Run(q);
        if (!result.ok()) {
          ++read_errors;
          ADD_FAILURE() << "reader " << r << ": " << result.status()
                        << "\nquery: " << q;
          break;
        }
        ++ran;
      }
    });
  }

  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(write_errors.load(), 0);
  EXPECT_EQ(read_errors.load(), 0);

  // The store must end in a consistent, queryable state.
  nql::QueryEngine engine(net.db.get());
  auto result = engine.Run(
      "Retrieve P From PATHS P Where P MATCHES "
      "VNF()->[Vertical()]{1,6}->Host()");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->rows.size(), 0u);
}

TEST_P(ConcurrencyTest, ConcurrentReadersShareOneEngine) {
  // QueryEngine::Run is const and must be safe to call from many threads
  // on the same instance (the relational executor's TEMP-table counter is
  // the shared mutable state this guards).
  TinyNetwork net = nepal::testing::MakeTinyNetwork(GetParam());
  nql::EngineOptions options;
  options.plan.parallelism = 4;
  nql::QueryEngine engine(net.db.get(), options);

  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([&, r] {
      for (int i = 0; i < 10; ++i) {
        auto result = engine.Run(
            r % 2 == 0
                ? "Retrieve P From PATHS P Where P MATCHES "
                  "VNF()->[Vertical()]{1,6}->Host()"
                : "Retrieve P From PATHS P Where P MATCHES "
                  "Host()->[Connects()]{1,3}->Host()");
        if (!result.ok() || result->rows.empty()) ++errors;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ConcurrencyTest,
    ::testing::Values(BackendKind::kGraphStore, BackendKind::kRelational),
    [](const ::testing::TestParamInfo<BackendKind>& info) {
      return nepal::testing::BackendName(info.param);
    });

}  // namespace
}  // namespace nepal
