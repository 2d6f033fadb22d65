// Cost-based optimizer tests: anchor selection must follow the data
// distribution (golden EXPLAIN anchor-flip on both backends), dead-branch
// pruning against the allowed-edge rules, statically-empty plans, and
// statistics-driven predicate pushdown.

#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nepal/engine.h"
#include "nepal/parser.h"
#include "nepal/plan.h"
#include "storage/graphdb.h"
#include "tests/testutil.h"

namespace nepal {
namespace {

using nepal::testing::BackendKind;

class OptimizerTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  std::unique_ptr<storage::GraphDb> MakeDb() {
    schema_ = nepal::testing::Figure3Schema();
    return std::make_unique<storage::GraphDb>(
        schema_, nepal::testing::MakeBackend(GetParam(), schema_));
  }

  nql::RpeNode Resolved(const storage::GraphDb& db, const std::string& text) {
    auto rpe = nql::ParseRpe(text);
    EXPECT_TRUE(rpe.ok()) << rpe.status();
    nql::RpeNode node = *rpe;
    EXPECT_TRUE(nql::ResolveRpe(db.schema(), 32, &node).ok());
    return node;
  }

  /// Builds VM -OnServer-> Host with the given populations; every VM is
  /// assigned round-robin to a host.
  std::unique_ptr<storage::GraphDb> Populated(int vms, int hosts) {
    auto db = MakeDb();
    std::vector<Uid> host_uids;
    for (int h = 0; h < hosts; ++h) {
      host_uids.push_back(
          *db->AddNode("Host", {{"name", Value("h" + std::to_string(h))}}));
    }
    for (int v = 0; v < vms; ++v) {
      Uid vm = *db->AddNode("VMWare",
                            {{"name", Value("vm" + std::to_string(v))}});
      *db->AddEdge("OnServer", vm, host_uids[v % hosts], {});
    }
    return db;
  }

  schema::SchemaPtr schema_;
};

// ---- Golden anchor flip (the heart of cost-based anchor selection) ----

TEST_P(OptimizerTest, AnchorFollowsDataDistribution) {
  const std::string query =
      "Retrieve P From PATHS P Where P MATCHES VM()->OnServer()->Host()";
  {
    // Many VMs, few hosts: scanning hosts and walking backwards is cheaper.
    auto db = Populated(/*vms=*/60, /*hosts=*/3);
    nql::QueryEngine engine(db.get());
    auto explained = engine.Explain(query);
    ASSERT_TRUE(explained.ok()) << explained.status();
    EXPECT_NE(explained->find("anchor Host"), std::string::npos)
        << *explained;
  }
  {
    // Few VMs, many hosts: the flip side must flip the anchor.
    auto db = Populated(/*vms=*/3, /*hosts=*/60);
    nql::QueryEngine engine(db.get());
    auto explained = engine.Explain(query);
    ASSERT_TRUE(explained.ok()) << explained.status();
    EXPECT_NE(explained->find("anchor VM"), std::string::npos) << *explained;
  }
}

TEST_P(OptimizerTest, PlanCarriesEstimatesAndLogicalRendering) {
  auto db = Populated(60, 3);
  nql::RpeNode rpe = Resolved(*db, "VM()->OnServer()->Host()");
  auto plan = nql::PlanMatch(rpe, db->backend(), nql::PlanOptions{});
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->logical.find("VM()"), std::string::npos) << plan->logical;
  ASSERT_EQ(plan->anchors.size(), 1u);
  EXPECT_GT(plan->anchors[0].anchor_cost, 0.0);
  EXPECT_GE(plan->anchors[0].est_rows, 0.0);
  // The full-model total includes traversal work on top of the anchor scan.
  EXPECT_GE(plan->optimizer_cost, plan->total_cost);
  // EXPLAIN output renders the logical plan and per-step row estimates.
  std::string text = plan->ToString();
  EXPECT_NE(text.find("logical"), std::string::npos) << text;
  EXPECT_NE(text.find("~"), std::string::npos) << text;
}

// ---- Dead-branch pruning ----

TEST_P(OptimizerTest, PrunesScheamInfeasibleAltBranch) {
  auto db = MakeDb();
  *db->AddNode("DNS", {});
  // OnServer targets Host, so OnServer()->VFC() can never match.
  nql::RpeNode rpe =
      Resolved(*db, "composed_of()->VFC()|OnServer()->VFC()");
  auto plan = nql::PlanMatch(rpe, db->backend(), nql::PlanOptions{});
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->anchors.size(), 1u);
  bool logged = false;
  for (const std::string& r : plan->rewrites) {
    if (r.find("prune") != std::string::npos) logged = true;
  }
  EXPECT_TRUE(logged) << plan->ToString();
}

TEST_P(OptimizerTest, StaticallyEmptyRpeYieldsEmptyResultNotError) {
  auto db = MakeDb();
  Uid host = *db->AddNode("Host", {{"name", Value("h0")}});
  Uid vm = *db->AddNode("VMWare", {{"name", Value("vm0")}});
  *db->AddEdge("OnServer", vm, host, {});
  nql::RpeNode rpe = Resolved(*db, "OnServer()->VFC()");
  auto plan = nql::PlanMatch(rpe, db->backend(), nql::PlanOptions{});
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan->statically_empty);
  EXPECT_TRUE(plan->anchors.empty());
  // End to end: the engine evaluates it to zero rows without touching the
  // store.
  nql::QueryEngine engine(db.get());
  auto result = engine.Run(
      "Retrieve P From PATHS P Where P MATCHES OnServer()->VFC()");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->rows.empty());
}

// ---- Predicate pushdown ----

TEST_P(OptimizerTest, PushdownPicksTheRarestEqualityByCounters) {
  auto db = MakeDb();
  for (int i = 0; i < 50; ++i) {
    *db->AddNode("VMWare", {{"name", Value("vm" + std::to_string(i))},
                            {"status", Value(i == 7 ? "Red" : "Green")}});
  }
  // status='Green' (49 rows) is listed first; name='vm7' (1 row) second.
  nql::RpeNode rpe = Resolved(*db, "VM(status='Green',name='vm7')");
  auto plan = nql::PlanMatch(rpe, db->backend(), nql::PlanOptions{});
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->anchors.size(), 1u);
  const storage::CompiledAtom& anchor = plan->anchors[0].anchor;
  ASSERT_EQ(anchor.conditions.size(), 2u);
  ASSERT_GE(anchor.pushdown_condition, 0);
  EXPECT_EQ(anchor.conditions[static_cast<size_t>(anchor.pushdown_condition)]
                .field_name,
            "name");
  // The scan estimate reflects the pushed equality: exactly one row.
  EXPECT_DOUBLE_EQ(plan->total_cost, 1.0);
}

TEST_P(OptimizerTest, SaturatedEqualityIsEstimatedAndPushedDown) {
  // 2,000 distinct names saturate the name counter (more than
  // kMaxDistinctValues values); status stays tracked exactly.
  auto db = MakeDb();
  constexpr int kVms = 2000;
  for (int i = 0; i < kVms; ++i) {
    *db->AddNode("VMWare", {{"name", Value("vm" + std::to_string(i))},
                            {"status", Value(i % 100 == 0 ? "Red" : "Green")}});
  }
  const schema::ClassDef* vm = schema_->FindClass("VM");
  const double per_name =
      static_cast<double>(kVms) / stats::GraphStats::kMaxDistinctValues;
  {
    std::shared_lock<std::shared_mutex> lock(db->mutex());
    const stats::GraphStats& stats = db->backend().stats();
    EXPECT_DOUBLE_EQ(*stats.EqCount(vm, vm->FieldIndex("name"), Value("vm7")),
                     per_name);
    EXPECT_DOUBLE_EQ(
        *stats.EqCount(vm, vm->FieldIndex("status"), Value("Green")), 1980.0);
  }
  // status='Green' (1,980 rows) is listed first; the saturated name is
  // estimated at 2,000 / 1,024 rows, so the scan goes by name.
  nql::RpeNode rpe = Resolved(*db, "VM(status='Green',name='vm7')");
  auto plan = nql::PlanMatch(rpe, db->backend(), nql::PlanOptions{});
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->anchors.size(), 1u);
  const storage::CompiledAtom& anchor = plan->anchors[0].anchor;
  ASSERT_GE(anchor.pushdown_condition, 0);
  EXPECT_EQ(anchor.conditions[static_cast<size_t>(anchor.pushdown_condition)]
                .field_name,
            "name");
  EXPECT_DOUBLE_EQ(plan->total_cost, per_name);
  nql::QueryEngine engine(db.get());
  auto result = engine.Run(
      "Retrieve P From PATHS P Where P MATCHES VM(status='Green',name='vm7')");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->rows.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, OptimizerTest,
    ::testing::Values(BackendKind::kGraphStore, BackendKind::kRelational),
    [](const ::testing::TestParamInfo<BackendKind>& info) {
      return nepal::testing::BackendName(info.param);
    });

}  // namespace
}  // namespace nepal
