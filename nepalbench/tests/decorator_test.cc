// The tracing decorators are transparent: the program computes exactly the
// same with and without them. The PathOperatorExecutor forwarder must give
// identical path sets on both backends (bounded, historical and unbounded
// `*` queries); the WriteLog forwarder must leave identical WAL bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include <unistd.h>

#include "fixture.h"
#include "graphstore/graph_store.h"
#include "nepal/executor.h"
#include "nepal/parser.h"
#include "nepal/plan.h"
#include "relational/relational_store.h"
#include "tracing.h"

namespace nepalbench {
namespace {

namespace fs = std::filesystem;
using nepal::storage::PathSet;

std::unique_ptr<nepal::storage::StorageBackend> MakeBackend(
    bool relational, nepal::schema::SchemaPtr schema) {
  if (relational) {
    return std::make_unique<nepal::relational::RelationalStore>(
        std::move(schema));
  }
  return std::make_unique<nepal::graphstore::GraphStore>(std::move(schema));
}

nepal::netmodel::VirtualizedNetwork SmallNetwork(bool relational) {
  nepal::netmodel::VirtualizedParams params;
  params.seed = 7;
  params.history_days = 5;
  params.num_hosts = 24;
  params.num_agg_switches = 2;
  params.num_routers = 2;
  params.num_datacenters = 1;
  params.num_services = 4;
  params.num_vnfs = 8;
  params.vfcs_per_vnf = 4;
  params.num_vnets = 20;
  params.num_vrouters = 6;
  auto net = nepal::netmodel::BuildVirtualizedNetwork(
      params, [relational](nepal::schema::SchemaPtr s) {
        return MakeBackend(relational, std::move(s));
      });
  EXPECT_TRUE(net.ok()) << net.status();
  return std::move(*net);
}

std::string Render(const PathSet& paths) {
  std::ostringstream out;
  for (const nepal::storage::PathState& s : paths) {
    for (nepal::Uid u : s.uids) out << u << ",";
    out << " " << s.valid.start << "-" << s.valid.end << " f" << s.frontier
        << "\n";
  }
  return out.str();
}

PathSet Evaluate(nepal::storage::GraphDb& db, const std::string& rpe_text,
                 const nepal::storage::TimeView& view,
                 nepal::storage::PathOperatorExecutor& exec) {
  auto rpe = nepal::nql::ParseRpe(rpe_text);
  EXPECT_TRUE(rpe.ok()) << rpe.status();
  const nepal::nql::PlanOptions plan = PinnedEngineOptions().plan;
  EXPECT_TRUE(
      nepal::nql::ResolveRpe(db.schema(), plan.max_repetition, &*rpe).ok());
  auto paths =
      nepal::nql::EvaluateMatch(exec, db.backend(), *rpe, view, plan);
  EXPECT_TRUE(paths.ok()) << paths.status();
  return paths.ok() ? *paths : PathSet{};
}

class ExecutorForwarderTest : public ::testing::TestWithParam<bool> {};

TEST_P(ExecutorForwarderTest, IdenticalPathsWithAndWithoutTheForwarder) {
  nepal::netmodel::VirtualizedNetwork net = SmallNetwork(GetParam());
  nepal::storage::GraphDb& db = *net.db;
  const nepal::Timestamp mid =
      net.snapshot_time + (net.end_time - net.snapshot_time) / 2;
  const std::vector<std::string> rpes = {
      "VNF()->[Vertical()]{1,6}->Host()",
      "Host(name='host-0')->[connects()]{1,6}->Host(name='host-9')",
      "Host(name='host-3')->[connects()]{1,12}->Host(name='host-17')",
      "Host(name='host-0')->[connects()]*->Router()",
  };
  SpanRecorder rec("test", 1u << 16);
  size_t non_empty = 0;
  for (const std::string& rpe : rpes) {
    for (const nepal::storage::TimeView& view :
         {nepal::storage::TimeView::Current(),
          nepal::storage::TimeView::AsOf(mid)}) {
      auto raw = db.backend().CreateExecutor();
      TracingExecutor traced(db.backend().CreateExecutor(), &rec);
      const PathSet expected = Evaluate(db, rpe, view, *raw);
      const PathSet actual = Evaluate(db, rpe, view, traced);
      EXPECT_EQ(Render(actual), Render(expected)) << rpe;
      non_empty += expected.empty() ? 0 : 1;
    }
  }
  EXPECT_GE(non_empty, rpes.size());
  EXPECT_GT(rec.Totals(kGraphstore, "backend.calls").value, 0);
  EXPECT_GT(rec.Totals(kGraphstore, "backend.extend").count, 0u);
  EXPECT_EQ(rec.dropped(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, ExecutorForwarderTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "relational" : "graphstore";
                         });

std::string WalBytes(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0) names.push_back(entry.path().string());
  }
  std::sort(names.begin(), names.end());
  std::string bytes;
  for (const std::string& name : names) {
    std::ifstream in(name, std::ios::binary);
    bytes.append(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  return bytes;
}

TEST(WriteLogForwarderTest, IdenticalWalWithAndWithoutTheForwarder) {
  nepal::netmodel::VirtualizedNetwork net = SmallNetwork(true);
  const fs::path root = "selftest-wal-" + std::to_string(::getpid());
  fs::remove_all(root);
  std::string wal[2];
  SpanRecorder rec("writer", 1u << 16);
  for (int traced = 0; traced < 2; ++traced) {
    const std::string dir = (root / std::to_string(traced)).string();
    ASSERT_TRUE(nepal::persist::DurableStore::SaveSnapshot(dir, *net.db).ok());
    auto store = nepal::persist::DurableStore::Open(
        dir, net.db->schema_ptr(), [](nepal::schema::SchemaPtr s) {
          return MakeBackend(true, std::move(s));
        });
    ASSERT_TRUE(store.ok()) << store.status();
    nepal::storage::GraphDb& db = (*store)->db();
    TracingWriteLog forwarder(store->get(), &rec);
    if (traced == 1) db.set_write_log(&forwarder);
    nepal::Timestamp t = net.end_time;
    for (size_t i = 0; i < 20; ++i) {
      std::vector<nepal::storage::Mutation> batch;
      t += 1000000;
      batch.push_back(nepal::storage::Mutation::SetTime(t));
      batch.push_back(nepal::storage::Mutation::Update(
          net.vms[i % net.vms.size()],
          {{"status", nepal::Value(i % 2 == 0 ? "Red" : "Green")}}));
      ASSERT_TRUE(db.ApplyBatch(batch).ok());
    }
    ASSERT_TRUE(db.UpdateElement(net.vms[0], {{"status",
                                               nepal::Value("Yellow")}})
                    .ok());
    // Detach before the store (and the database it owns) goes away.
    if (traced == 1) db.set_write_log(store->get());
    ASSERT_TRUE((*store)->Sync().ok());
    wal[traced] = WalBytes(dir);
  }
  fs::remove_all(root);
  EXPECT_FALSE(wal[0].empty());
  EXPECT_EQ(wal[0], wal[1]);
  // 20 AppendBatch calls plus one Append.
  EXPECT_EQ(rec.Totals(kGraphstore, "persist.wal_append").count, 21u);
}

}  // namespace
}  // namespace nepalbench
