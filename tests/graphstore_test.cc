// Backend-internal tests for the property-graph store: label-path typing
// (prefix matching), adjacency under deletion, field-index maintenance
// across updates, and the historical-scan index fallback.

#include <set>

#include <gtest/gtest.h>

#include "graphstore/graph_store.h"
#include "schema/dsl_parser.h"
#include "storage/graphdb.h"

namespace nepal::graphstore {
namespace {

schema::SchemaPtr TestSchema() {
  auto s = schema::ParseSchemaDsl(R"(
    node Container : Node { status: string; }
    node VM : Container {}
    node VMWare : VM {}
    node Docker : Container {}
    edge E : Edge {}
    allow E (Node -> Node);
  )");
  EXPECT_TRUE(s.ok()) << s.status();
  return *s;
}

class GraphStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = TestSchema();
    db_ = std::make_unique<storage::GraphDb>(
        schema_, std::make_unique<GraphStore>(schema_));
  }

  std::set<Uid> ScanUids(const char* cls, const storage::TimeView& view,
                         std::optional<std::pair<std::string, Value>> eq =
                             std::nullopt) {
    storage::ScanSpec spec;
    spec.cls = schema_->FindClass(cls);
    if (eq) {
      spec.eq = std::make_pair(spec.cls->FieldIndex(eq->first), eq->second);
    }
    std::set<Uid> uids;
    db_->backend().Scan(spec, view, [&](const storage::ElementVersion& v) {
      uids.insert(v.uid);
    });
    return uids;
  }

  schema::SchemaPtr schema_;
  std::unique_ptr<storage::GraphDb> db_;
};

TEST_F(GraphStoreTest, LabelPathsEncodeInheritance) {
  // The element label is the full inheritance path (the Gremlin strategy);
  // class atoms match by prefix, which the pre-order subtree realizes.
  EXPECT_EQ(schema_->FindClass("VMWare")->label_path(),
            "Node:Container:VM:VMWare");
  Uid vmware = *db_->AddNode("VMWare", {});
  Uid docker = *db_->AddNode("Docker", {});
  Uid container = *db_->AddNode("Container", {});
  EXPECT_EQ(ScanUids("VM", storage::TimeView::Current()),
            (std::set<Uid>{vmware}));
  EXPECT_EQ(ScanUids("Container", storage::TimeView::Current()),
            (std::set<Uid>{vmware, docker, container}));
  EXPECT_EQ(ScanUids("Docker", storage::TimeView::Current()),
            (std::set<Uid>{docker}));
}

TEST_F(GraphStoreTest, NameIndexFollowsUpdates) {
  Uid a = *db_->AddNode("VM", {{"name", Value("alpha")}});
  EXPECT_EQ(ScanUids("VM", storage::TimeView::Current(),
                     std::make_pair(std::string("name"), Value("alpha"))),
            (std::set<Uid>{a}));
  ASSERT_TRUE(db_->SetTime(db_->Now() + 10).ok());
  ASSERT_TRUE(db_->UpdateElement(a, {{"name", Value("beta")}}).ok());
  EXPECT_TRUE(ScanUids("VM", storage::TimeView::Current(),
                       std::make_pair(std::string("name"), Value("alpha")))
                  .empty());
  EXPECT_EQ(ScanUids("VM", storage::TimeView::Current(),
                     std::make_pair(std::string("name"), Value("beta"))),
            (std::set<Uid>{a}));
}

TEST_F(GraphStoreTest, HistoricalEqScanBypassesTheIndex) {
  Timestamp t0 = db_->Now();
  Uid a = *db_->AddNode("VM", {{"name", Value("alpha")}});
  ASSERT_TRUE(db_->SetTime(t0 + 10).ok());
  ASSERT_TRUE(db_->UpdateElement(a, {{"name", Value("beta")}}).ok());
  // The index only covers current versions; the AsOf scan must still find
  // the old name by falling back to a sequential filter.
  EXPECT_EQ(ScanUids("VM", storage::TimeView::AsOf(t0 + 5),
                     std::make_pair(std::string("name"), Value("alpha"))),
            (std::set<Uid>{a}));
  EXPECT_TRUE(ScanUids("VM", storage::TimeView::AsOf(t0 + 5),
                       std::make_pair(std::string("name"), Value("beta")))
                  .empty());
}

TEST_F(GraphStoreTest, AdjacencySurvivesDeletionHistorically) {
  Timestamp t0 = db_->Now();
  Uid a = *db_->AddNode("VM", {});
  Uid b = *db_->AddNode("VM", {});
  Uid e = *db_->AddEdge("E", a, b, {});
  ASSERT_TRUE(db_->SetTime(t0 + 10).ok());
  ASSERT_TRUE(db_->RemoveElement(e).ok());
  size_t current = 0, historical = 0;
  db_->backend().IncidentEdges(a, storage::Direction::kOut, nullptr,
                               storage::TimeView::Current(),
                               [&](const auto&) { ++current; });
  db_->backend().IncidentEdges(a, storage::Direction::kOut, nullptr,
                               storage::TimeView::Range(t0, t0 + 20),
                               [&](const auto&) { ++historical; });
  EXPECT_EQ(current, 0u);
  EXPECT_EQ(historical, 1u);
}

TEST_F(GraphStoreTest, EstimateScanUsesIndexStatistics) {
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db_->AddNode("VM", {{"name", Value("dup")}}).ok());
  }
  ASSERT_TRUE(db_->AddNode("VM", {{"name", Value("rare")}}).ok());
  storage::ScanSpec spec;
  spec.cls = schema_->FindClass("VM");
  spec.eq = std::make_pair(spec.cls->FieldIndex("name"), Value("rare"));
  EXPECT_DOUBLE_EQ(db_->backend().EstimateScan(spec), 1.0);
  spec.eq = std::make_pair(spec.cls->FieldIndex("name"), Value("dup"));
  EXPECT_DOUBLE_EQ(db_->backend().EstimateScan(spec), 20.0);
  spec.eq = std::make_pair(spec.cls->FieldIndex("name"), Value("absent"));
  EXPECT_DOUBLE_EQ(db_->backend().EstimateScan(spec), 0.0);
  // The stats counters cover unindexed fields too: no VM sets status, so
  // the estimate is an exact zero rather than the old schema hint.
  spec.eq = std::make_pair(spec.cls->FieldIndex("status"), Value("x"));
  EXPECT_DOUBLE_EQ(db_->backend().EstimateScan(spec), 0.0);
  // Past kMaxDistinctValues distinct values the counter saturates and the
  // estimate degrades to count / kMaxDistinctValues: no value can hold
  // more than that share on average.
  for (int i = 0; i < 1100; ++i) {
    ASSERT_TRUE(
        db_->AddNode("VM", {{"name", Value("u" + std::to_string(i))}}).ok());
  }
  spec.eq = std::make_pair(spec.cls->FieldIndex("name"), Value("dup"));
  EXPECT_DOUBLE_EQ(db_->backend().EstimateScan(spec), 1121.0 / 1024.0);
}

TEST_F(GraphStoreTest, VersionCountTracksEveryWrite) {
  Uid a = *db_->AddNode("VM", {});
  ASSERT_TRUE(db_->SetTime(db_->Now() + 1).ok());
  ASSERT_TRUE(db_->UpdateElement(a, {{"status", Value("Red")}}).ok());
  ASSERT_TRUE(db_->SetTime(db_->Now() + 1).ok());
  ASSERT_TRUE(db_->UpdateElement(a, {{"status", Value("Green")}}).ok());
  EXPECT_EQ(db_->backend().VersionCount(), 3u);
  ASSERT_TRUE(db_->SetTime(db_->Now() + 1).ok());
  ASSERT_TRUE(db_->RemoveElement(a).ok());
  EXPECT_EQ(db_->backend().VersionCount(), 3u);  // deletion closes, no new
}

}  // namespace
}  // namespace nepal::graphstore
