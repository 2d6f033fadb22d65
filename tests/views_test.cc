// Materialized pathway views (src/views): initial build and serving,
// byte-identity of served rows against cold evaluation pinned to the same
// commit epoch (both backends, parallelism 1 and N, under live concurrent
// ingest), incremental repair — not rebuild — for ordinary writes,
// footprint-based skipping of irrelevant writes, SetTime rebuild fallback,
// AsOf views, engine routing (plain MATCHES, named view, SERVE VIEW) and
// the EXPLAIN ServeView plan line.

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nepal/engine.h"
#include "obs/metrics.h"
#include "persist/durable_store.h"
#include "tests/testutil.h"
#include "views/view_catalog.h"

namespace nepal {
namespace {

namespace fs = std::filesystem;
using nepal::testing::BackendKind;
using persist::DurableOptions;
using persist::DurableStore;
using storage::PathSet;
using storage::PathState;
using storage::TimeView;
using views::ViewCatalog;
using views::ViewInfo;

constexpr const char* kHotRpe = "VNF()->[Vertical()]{1,6}->Host()";
constexpr const char* kHotQuery =
    "Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host()";

std::string FreshDir(const std::string& name) {
  std::string unique = "nepal_views_" + name;
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  if (info != nullptr) {
    unique += "_";
    unique += info->name();
    for (char& c : unique) {
      if (c == '/') c = '_';
    }
  }
  fs::path dir = fs::path(::testing::TempDir()) / unique;
  fs::remove_all(dir);
  return dir.string();
}

Result<std::unique_ptr<DurableStore>> OpenStore(const std::string& dir,
                                                BackendKind kind) {
  DurableOptions options;
  options.fsync_policy = persist::FsyncPolicy::kNone;
  return DurableStore::Open(
      dir, nepal::testing::Figure3Schema(),
      [kind](schema::SchemaPtr s) {
        return nepal::testing::MakeBackend(kind, std::move(s));
      },
      options);
}

struct Net {
  Uid vnf1, vnf2, vfc1, vfc2, vm1, vm2, host1, host2, sw1;
};

/// vnf1(DNS)->vfc1->vm1->host1, vnf2(Firewall)->vfc2->vm2->host2, plus a
/// switch between the hosts — two VNF-to-Host pathway chains for kHotRpe.
Net Populate(storage::GraphDb* db) {
  Net net;
  auto node = [&](const char* cls, const char* name) {
    auto r = db->AddNode(cls, {{"name", Value(name)}});
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? *r : 0;
  };
  auto edge = [&](const char* cls, Uid s, Uid t) {
    auto r = db->AddEdge(cls, s, t, {});
    EXPECT_TRUE(r.ok()) << r.status();
  };
  net.vnf1 = node("DNS", "vnf1");
  net.vnf2 = node("Firewall", "vnf2");
  net.vfc1 = node("VFC", "vfc1");
  net.vfc2 = node("VFC", "vfc2");
  net.vm1 = node("VMWare", "vm1");
  net.vm2 = node("OnMetal", "vm2");
  net.host1 = node("Host", "host1");
  net.host2 = node("Host", "host2");
  net.sw1 = node("Switch", "sw1");
  edge("composed_of", net.vnf1, net.vfc1);
  edge("composed_of", net.vnf2, net.vfc2);
  edge("hosted_on", net.vfc1, net.vm1);
  edge("hosted_on", net.vfc2, net.vm2);
  edge("OnServer", net.vm1, net.host1);
  edge("OnServer", net.vm2, net.host2);
  edge("Connects", net.host1, net.sw1);
  edge("Connects", net.sw1, net.host2);
  return net;
}

/// One line per path: uids, class names and validity — the byte-identity
/// comparison key.
std::vector<std::string> RenderPaths(const PathSet& paths) {
  std::vector<std::string> out;
  out.reserve(paths.size());
  for (const PathState& s : paths) {
    std::string line;
    for (size_t i = 0; i < s.uids.size(); ++i) {
      if (i > 0) line += "->";
      line += s.concepts[i]->name() + "#" + std::to_string(s.uids[i]);
    }
    line += " @" + s.valid.ToString();
    out.push_back(std::move(line));
  }
  return out;
}

std::vector<std::string> SortedRows(const nql::QueryResult& result) {
  std::vector<std::string> out;
  for (const auto& row : result.rows) {
    out.push_back(row.paths[0].ToString() + " " + row.valid.ToString());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Cold evaluation of `rpe_text` pinned to `epoch`, canonicalized — the
/// oracle every served snapshot must equal byte for byte.
PathSet ColdAtEpoch(storage::GraphDb* db, const std::string& rpe_text,
                    uint64_t epoch, int parallelism,
                    std::optional<Timestamp> as_of = std::nullopt) {
  auto rpe = nql::ParseRpe(rpe_text);
  EXPECT_TRUE(rpe.ok()) << rpe.status();
  nql::RpeNode resolved = nql::Normalize(*std::move(rpe));
  nql::PlanOptions options;
  options.parallelism = parallelism;
  EXPECT_TRUE(
      nql::ResolveRpe(db->schema(), options.max_repetition, &resolved).ok());
  TimeView view =
      (as_of ? TimeView::AsOf(*as_of) : TimeView::Current()).WithEpoch(epoch);
  auto paths = nepal::testing::EvaluatePinned(db, resolved, view, options);
  EXPECT_TRUE(paths.ok()) << paths.status();
  PathSet out = paths.ok() ? *std::move(paths) : PathSet{};
  storage::CanonicalizePaths(&out);
  return out;
}

uint64_t ServedCount() {
  return obs::MetricsRegistry::Global().GetCounter("nepal.views.served")
      ->Value();
}

ViewInfo InfoOf(const ViewCatalog& catalog, const std::string& name) {
  for (const ViewInfo& info : catalog.List()) {
    if (info.name == name) return info;
  }
  ADD_FAILURE() << "view " << name << " not listed";
  return {};
}

TEST(ViewsTest, ServedQueryIsByteIdenticalToColdEvaluation) {
  for (auto kind : {BackendKind::kGraphStore, BackendKind::kRelational}) {
    SCOPED_TRACE(nepal::testing::BackendName(kind));
    auto store = OpenStore(FreshDir(nepal::testing::BackendName(kind)), kind);
    ASSERT_TRUE(store.ok()) << store.status();
    storage::GraphDb* db = &(*store)->db();
    Populate(db);
    auto catalog = ViewCatalog::Open(store->get());
    ASSERT_TRUE(catalog.ok()) << catalog.status();
    ASSERT_TRUE(
        (*catalog)->CreateView("hot", *nql::ParseRpe(kHotRpe)).ok());

    nql::EngineOptions options;
    options.plan.parallelism = 4;
    nql::QueryEngine served_engine(db, options);
    served_engine.set_view_provider(catalog->get());
    nql::QueryEngine cold_engine(db, options);

    // Plain MATCHES query routed through Match(): identical rows, and the
    // served counter proves the cache answered it.
    const uint64_t before = ServedCount();
    auto served = served_engine.Run(kHotQuery);
    auto cold = cold_engine.Run(kHotQuery);
    ASSERT_TRUE(served.ok()) << served.status();
    ASSERT_TRUE(cold.ok()) << cold.status();
    EXPECT_FALSE(served->rows.empty());
    EXPECT_EQ(SortedRows(*served), SortedRows(*cold));
    EXPECT_EQ(ServedCount(), before + 1);

    // Named-view routing and the SERVE VIEW shorthand return the same rows.
    auto named = served_engine.Run("Retrieve P From hot P");
    ASSERT_TRUE(named.ok()) << named.status();
    EXPECT_EQ(SortedRows(*named), SortedRows(*cold));
    auto serve = served_engine.Run("SERVE VIEW hot");
    ASSERT_TRUE(serve.ok()) << serve.status();
    EXPECT_EQ(SortedRows(*serve), SortedRows(*cold));

    // EXPLAIN on a served query prints the one-line ServeView plan.
    auto plan = served_engine.Run(std::string("EXPLAIN ") + kHotQuery);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_NE(plan->explain_text.find("ServeView(hot, epoch="),
              std::string::npos)
        << plan->explain_text;

    // Explain() on the SERVE VIEW shorthand prints the same served plan
    // (there is no cold plan to trace for a provider-named view).
    auto serve_plan = served_engine.Explain("SERVE VIEW hot");
    ASSERT_TRUE(serve_plan.ok()) << serve_plan.status();
    EXPECT_NE(serve_plan->find("ServeView(hot, epoch="), std::string::npos)
        << *serve_plan;

    // The raw snapshot equals canonicalized cold evaluation at the same
    // epoch byte for byte — order included.
    auto sv = (*catalog)->Serve("hot");
    ASSERT_TRUE(sv.has_value());
    EXPECT_EQ(RenderPaths(*sv->paths),
              RenderPaths(ColdAtEpoch(db, kHotRpe, sv->epoch, 1)));

    // EXPLAIN VERBOSE renders the SQL of a cold plan and must not serve.
    auto verbose =
        served_engine.Run(std::string("EXPLAIN VERBOSE ") + kHotQuery);
    ASSERT_TRUE(verbose.ok()) << verbose.status();
    EXPECT_EQ(verbose->explain_text.find("ServeView"), std::string::npos);
  }
}

TEST(ViewsTest, OrdinaryWritesRepairIncrementally) {
  for (auto kind : {BackendKind::kGraphStore, BackendKind::kRelational}) {
    SCOPED_TRACE(nepal::testing::BackendName(kind));
    auto store = OpenStore(FreshDir(nepal::testing::BackendName(kind)), kind);
    ASSERT_TRUE(store.ok()) << store.status();
    storage::GraphDb* db = &(*store)->db();
    Net net = Populate(db);
    auto catalog = ViewCatalog::Open(store->get());
    ASSERT_TRUE(catalog.ok()) << catalog.status();
    ASSERT_TRUE(
        (*catalog)->CreateView("hot", *nql::ParseRpe(kHotRpe)).ok());
    ASSERT_EQ(InfoOf(**catalog, "hot").rebuilds, 1u);  // the initial build

    // The four ordinary write kinds: every one must be absorbed by
    // incremental repair, never a rebuild.
    Uid vfc = *db->AddNode("VFC", {{"name", Value("vfc-new")}});
    ASSERT_TRUE(db->AddEdge("composed_of", net.vnf1, vfc, {}).ok());
    ASSERT_TRUE(db->AddEdge("hosted_on", vfc, net.vm2, {}).ok());
    ASSERT_TRUE(
        db->UpdateElement(net.host1, {{"serial", Value("sn-1")}}).ok());
    Uid vfc2 = *db->AddNode("VFC", {{"name", Value("vfc-gone")}});
    ASSERT_TRUE(db->AddEdge("composed_of", net.vnf2, vfc2, {}).ok());
    ASSERT_TRUE(db->RemoveElement(vfc2).ok());  // cascades onto the edge

    ASSERT_TRUE((*catalog)
                    ->WaitUntilFresh("hot", db->commit_epoch(),
                                     std::chrono::milliseconds(30000))
                    .ok());
    ViewInfo info = InfoOf(**catalog, "hot");
    EXPECT_EQ(info.rebuilds, 1u) << "ordinary writes must not rebuild";
    EXPECT_GT(info.repairs, 0u);
    EXPECT_EQ(info.staleness, 0u);

    auto sv = (*catalog)->Serve("hot");
    ASSERT_TRUE(sv.has_value());
    EXPECT_EQ(RenderPaths(*sv->paths),
              RenderPaths(ColdAtEpoch(db, kHotRpe, sv->epoch, 1)));
  }
}

TEST(ViewsTest, IrrelevantWritesAreSkippedButAdvanceFreshness) {
  auto store = OpenStore(FreshDir("skip"), BackendKind::kGraphStore);
  ASSERT_TRUE(store.ok()) << store.status();
  storage::GraphDb* db = &(*store)->db();
  Net net = Populate(db);
  auto catalog = ViewCatalog::Open(store->get());
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  // Fully explicit node-edge-node expression: no implicit elements, so the
  // footprint is exactly {VNF, composed_of, VFC}.
  ASSERT_TRUE(
      (*catalog)
          ->CreateView("comp", *nql::ParseRpe("VNF()->composed_of()->VFC()"))
          .ok());

  // Switch/Connects churn is outside the footprint: freshness must advance
  // without a single repair or rebuild beyond the initial build.
  Uid sw = *db->AddNode("Switch", {{"name", Value("sw-extra")}});
  ASSERT_TRUE(db->AddEdge("Connects", net.host2, sw, {}).ok());
  ASSERT_TRUE(db->AddEdge("Connects", sw, net.host1, {}).ok());
  ASSERT_TRUE((*catalog)
                  ->WaitUntilFresh("comp", db->commit_epoch(),
                                   std::chrono::milliseconds(30000))
                  .ok());
  ViewInfo info = InfoOf(**catalog, "comp");
  EXPECT_EQ(info.repairs, 0u);
  EXPECT_EQ(info.rebuilds, 1u);
  EXPECT_GT(info.skipped_records, 0u);
  EXPECT_EQ(info.staleness, 0u);

  auto sv = (*catalog)->Serve("comp");
  ASSERT_TRUE(sv.has_value());
  EXPECT_EQ(
      RenderPaths(*sv->paths),
      RenderPaths(ColdAtEpoch(db, "VNF()->composed_of()->VFC()", sv->epoch,
                              1)));
}

TEST(ViewsTest, SetTimeForcesRebuild) {
  auto store = OpenStore(FreshDir("settime"), BackendKind::kGraphStore);
  ASSERT_TRUE(store.ok()) << store.status();
  storage::GraphDb* db = &(*store)->db();
  Populate(db);
  auto catalog = ViewCatalog::Open(store->get());
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  ASSERT_TRUE((*catalog)->CreateView("hot", *nql::ParseRpe(kHotRpe)).ok());
  ASSERT_EQ(InfoOf(**catalog, "hot").rebuilds, 1u);

  // A bare SetTime() does not advance the commit epoch; an epoch-bumping
  // commit that moves the clock is what invalidates incremental repair.
  std::vector<storage::Mutation> batch;
  batch.push_back(storage::Mutation::SetTime(db->Now() + 3600 * 1000000LL));
  ASSERT_TRUE(db->ApplyBatch(batch).ok());
  ASSERT_TRUE((*catalog)
                  ->WaitUntilFresh("hot", db->commit_epoch(),
                                   std::chrono::milliseconds(30000))
                  .ok());
  EXPECT_EQ(InfoOf(**catalog, "hot").rebuilds, 2u);
}

TEST(ViewsTest, ByteIdentityUnderLiveConcurrentIngest) {
  for (auto kind : {BackendKind::kGraphStore, BackendKind::kRelational}) {
    for (int parallelism : {1, 4}) {
      SCOPED_TRACE(nepal::testing::BackendName(kind) + "/p" +
                   std::to_string(parallelism));
      auto store = OpenStore(
          FreshDir(nepal::testing::BackendName(kind) + "_p" +
                   std::to_string(parallelism)),
          kind);
      ASSERT_TRUE(store.ok()) << store.status();
      storage::GraphDb* db = &(*store)->db();
      Net net = Populate(db);
      // Victim chains born at t0: the writer updates / removes these at t1.
      // It also mutates chains it creates itself at t1, whose versions then
      // close at the instant they opened (zero-length versions).
      std::vector<Uid> victims;
      for (int v = 0; v < 12; ++v) {
        Uid vfc = *db->AddNode(
            "VFC", {{"name", Value("victim" + std::to_string(v))}});
        ASSERT_TRUE(db->AddEdge("composed_of", net.vnf1, vfc, {}).ok());
        ASSERT_TRUE(db->AddEdge("hosted_on", vfc, net.vm1, {}).ok());
        victims.push_back(vfc);
      }
      ASSERT_TRUE(db->SetTime(db->Now() + 1000000).ok());  // t1 = t0 + 1s

      auto catalog = ViewCatalog::Open(store->get());
      ASSERT_TRUE(catalog.ok()) << catalog.status();
      ASSERT_TRUE(
          (*catalog)->CreateView("hot", *nql::ParseRpe(kHotRpe)).ok());

      // A saturating writer mixing all four ordinary write kinds, single-op
      // and batched commits: adds fresh chains, removes the first half of
      // the victims, renames the second half, and removes or renames some
      // of its own fresh chains at the instant it created them.
      std::atomic<bool> done{false};
      std::thread writer([&] {
        int round = 0;
        // Bounded: unthrottled growth makes the cold-evaluation oracle
        // quadratically slower (and TSan runs 10x slower still).
        while (!done.load(std::memory_order_acquire) && round < 120) {
          ++round;
          Uid fresh = 0;
          if (round % 2 == 0) {
            fresh = *db->AddNode(
                "VFC", {{"name", Value("w" + std::to_string(round))}});
            (void)db->AddEdge("composed_of", net.vnf1, fresh, {});
            (void)db->AddEdge("hosted_on", fresh, net.vm1, {});
          } else {
            std::vector<storage::Mutation> batch;
            batch.push_back(storage::Mutation::AddNode(
                "VFC", {{"name", Value("b" + std::to_string(round))}}));
            ASSERT_TRUE(db->ApplyBatch(batch).ok());
            fresh = batch[0].uid;
            std::vector<storage::Mutation> wire;
            wire.push_back(storage::Mutation::AddEdge(
                "composed_of", net.vnf2, fresh, {}));
            wire.push_back(storage::Mutation::AddEdge(
                "hosted_on", fresh, net.vm2, {}));
            ASSERT_TRUE(db->ApplyBatch(wire).ok());
          }
          if (round % 3 == 0) {
            ASSERT_TRUE(db->RemoveElement(fresh).ok());  // cascades
          } else if (round % 3 == 1) {
            ASSERT_TRUE(
                db->UpdateElement(
                      fresh, {{"name", Value("re" + std::to_string(round))}})
                    .ok());
          }
          if (round % 5 == 0) {
            // Never on a path: its removal goes through ClassOf, which
            // finds no version visible at the removal epoch.
            Uid stray = *db->AddNode(
                "VFC", {{"name", Value("s" + std::to_string(round))}});
            ASSERT_TRUE(db->RemoveElement(stray).ok());
          }
          const size_t idx = static_cast<size_t>(round - 1);
          if (idx < 6) {
            ASSERT_TRUE(db->RemoveElement(victims[idx]).ok());  // cascades
          } else if (idx < victims.size()) {
            ASSERT_TRUE(db->UpdateElement(
                            victims[idx],
                            {{"name", Value("renamed" + std::to_string(idx))}})
                            .ok());
          }
        }
      });

      // Every served snapshot must equal cold evaluation pinned to its
      // freshness epoch — byte for byte, while the writer keeps committing.
      for (int i = 0; i < 25; ++i) {
        auto sv = (*catalog)->Serve("hot");
        ASSERT_TRUE(sv.has_value());
        EXPECT_EQ(RenderPaths(*sv->paths),
                  RenderPaths(ColdAtEpoch(db, kHotRpe, sv->epoch,
                                          parallelism)))
            << "iteration " << i << " epoch " << sv->epoch;
      }
      done.store(true, std::memory_order_release);
      writer.join();

      // Quiesced: the view catches up to the last commit and still agrees.
      ASSERT_TRUE((*catalog)
                      ->WaitUntilFresh("hot", db->commit_epoch(),
                                       std::chrono::milliseconds(30000))
                      .ok());
      auto sv = (*catalog)->Serve("hot");
      ASSERT_TRUE(sv.has_value());
      EXPECT_EQ(sv->epoch, db->commit_epoch());
      EXPECT_EQ(
          RenderPaths(*sv->paths),
          RenderPaths(ColdAtEpoch(db, kHotRpe, sv->epoch, parallelism)));
      EXPECT_EQ(InfoOf(**catalog, "hot").rebuilds, 1u);
    }
  }
}

TEST(ViewsTest, AsOfViewServesHistoricalSlice) {
  auto store = OpenStore(FreshDir("asof"), BackendKind::kGraphStore);
  ASSERT_TRUE(store.ok()) << store.status();
  storage::GraphDb* db = &(*store)->db();
  const Timestamp t0 = db->Now();
  Net net = Populate(db);
  const Timestamp t1 = t0 + 3600 * 1000000LL;
  ASSERT_TRUE(db->SetTime(t1).ok());
  Uid vfc = *db->AddNode("VFC", {{"name", Value("late")}});
  ASSERT_TRUE(db->AddEdge("composed_of", net.vnf1, vfc, {}).ok());
  ASSERT_TRUE(db->AddEdge("hosted_on", vfc, net.vm2, {}).ok());

  auto catalog = ViewCatalog::Open(store->get());
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  ASSERT_TRUE(
      (*catalog)->CreateView("past", *nql::ParseRpe(kHotRpe), t0).ok());

  // Mutations after registration maintain the historical slice too (a
  // removal patches cached rows' validity intervals).
  ASSERT_TRUE(db->RemoveElement(net.vm1).ok());
  ASSERT_TRUE((*catalog)
                  ->WaitUntilFresh("past", db->commit_epoch(),
                                   std::chrono::milliseconds(30000))
                  .ok());
  auto sv = (*catalog)->Serve("past");
  ASSERT_TRUE(sv.has_value());
  ASSERT_TRUE(sv->as_of.has_value());
  EXPECT_EQ(*sv->as_of, t0);
  EXPECT_EQ(RenderPaths(*sv->paths),
            RenderPaths(ColdAtEpoch(db, kHotRpe, sv->epoch, 1, t0)));

  // Engine routing honors the AT clause: same temporal mode serves, a
  // different one evaluates cold.
  nql::QueryEngine engine(db);
  engine.set_view_provider(catalog->get());
  const uint64_t before = ServedCount();
  auto served = engine.Run("AT '" + FormatTimestamp(t0) + "' " + kHotQuery);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(ServedCount(), before + 1);
  auto cold = engine.Run("AT '" + FormatTimestamp(t1) + "' " + kHotQuery);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(ServedCount(), before + 1) << "different AT must not serve";
}

TEST(ViewsTest, CatalogLifecycleAndEngineDdlRouting) {
  auto store = OpenStore(FreshDir("lifecycle"), BackendKind::kGraphStore);
  ASSERT_TRUE(store.ok()) << store.status();
  storage::GraphDb* db = &(*store)->db();
  Populate(db);
  auto catalog = ViewCatalog::Open(store->get());
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  ASSERT_TRUE((*catalog)->CreateView("hot", *nql::ParseRpe(kHotRpe)).ok());
  EXPECT_EQ((*catalog)->CreateView("hot", *nql::ParseRpe(kHotRpe)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ((*catalog)->DropView("nosuch").code(), StatusCode::kNotFound);

  nql::QueryEngine engine(db);
  engine.set_view_provider(catalog->get());
  // CREATE/DROP are catalog operations; the engine rejects them.
  EXPECT_EQ(
      engine.Run("CREATE VIEW x AS VNF()->VFC()").status().code(),
      StatusCode::kUnsupported);
  EXPECT_FALSE(engine.Run("SERVE VIEW nosuch").ok());
  ASSERT_TRUE(engine.Run("SERVE VIEW hot").ok());

  ASSERT_TRUE((*catalog)->DropView("hot").ok());
  EXPECT_FALSE((*catalog)->Serve("hot").has_value());
  EXPECT_FALSE(engine.Run("SERVE VIEW hot").ok());
}

}  // namespace
}  // namespace nepal
