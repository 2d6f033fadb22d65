// Replication fleet suite: the socket listener serving many followers,
// resumable reconnects (resume within WAL retention, re-bootstrap
// beyond it), quorum-acknowledged semi-sync commit with degrade-to-async,
// re-pointing a follower at a new primary, and the engine's
// bounded-staleness read router (replica_ok / round_robin policies with
// epoch-pinned routed reads) — on both execution backends.

#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nepal/engine.h"
#include "obs/metrics.h"
#include "persist/durable_store.h"
#include "replication/listener.h"
#include "replication/replica_store.h"
#include "replication/socket_util.h"
#include "tests/testutil.h"

namespace nepal {
namespace {

namespace fs = std::filesystem;
using nepal::testing::BackendKind;
using nepal::testing::ConnectFollower;
using nepal::testing::FreshSocket;
using persist::DurableOptions;
using persist::DurableStore;
using replication::ReplicaStore;
using replication::ReplicationListener;
using replication::SocketAddress;

std::string FreshDir(const std::string& name) {
  std::string unique = "nepal_fleet_" + name;
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

persist::BackendFactory Factory(BackendKind kind) {
  return [kind](schema::SchemaPtr s) {
    return nepal::testing::MakeBackend(kind, std::move(s));
  };
}

Result<std::unique_ptr<DurableStore>> OpenPrimary(
    const std::string& dir, BackendKind kind, DurableOptions options = {}) {
  return DurableStore::Open(dir, nepal::testing::Figure3Schema(),
                            Factory(kind), options);
}

void AddHosts(storage::GraphDb& db, const std::string& prefix, int n) {
  for (int i = 0; i < n; ++i) {
    const std::string name = prefix + std::to_string(i);
    auto host = db.AddNode("Host", {{"name", Value(name)},
                                    {"serial", Value("sn-" + name)}});
    ASSERT_TRUE(host.ok()) << host.status();
  }
}

std::string Observe(storage::GraphDb& db) {
  nql::QueryEngine engine(&db);
  auto result = engine.Run("Retrieve P From PATHS P Where P MATCHES Host()");
  return result.ok() ? result->ToString(/*max_rows=*/100000)
                     : result.status().ToString();
}

::testing::AssertionResult WaitFor(const std::function<bool()>& pred,
                                   const char* what, int timeout_ms = 20000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return ::testing::AssertionSuccess();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return ::testing::AssertionFailure() << "timed out waiting for " << what;
}

::testing::AssertionResult WaitForCatchUp(const DurableStore& primary,
                                          const ReplicaStore& follower,
                                          int timeout_ms = 20000) {
  const uint64_t target = primary.records_appended();
  auto caught_up = [&] {
    // Generations restart the applied counter; converged content is the
    // contract, the record count only paces the poll.
    return follower.staleness_ms() < 10000 &&
           const_cast<DurableStore&>(primary).db().node_count() ==
               const_cast<ReplicaStore&>(follower).db().node_count();
  };
  (void)target;
  return WaitFor(caught_up, "follower catch-up", timeout_ms);
}

class FleetTest : public ::testing::TestWithParam<BackendKind> {};

TEST_P(FleetTest, ListenerServesFollowersWithQuorumAckedCommits) {
  auto primary = OpenPrimary(FreshDir("p"), GetParam());
  ASSERT_TRUE(primary.ok()) << primary.status();
  AddHosts((*primary)->db(), "seed", 5);

  const SocketAddress addr = FreshSocket("serve");
  auto listener = ReplicationListener::Start(**primary, addr);
  ASSERT_TRUE(listener.ok()) << listener.status();

  auto f1 = ConnectFollower(FreshDir("f1"), GetParam(), addr, "f1");
  ASSERT_TRUE(f1.ok()) << f1.status();
  auto f2 = ConnectFollower(FreshDir("f2"), GetParam(), addr, "f2");
  ASSERT_TRUE(f2.ok()) << f2.status();

  // Semi-sync: every commit from here on is held until one follower acks.
  DurableStore::SemiSyncOptions semisync;
  semisync.quorum = 1;
  semisync.timeout_ms = 15000;
  (*primary)->SetSemiSync(semisync);
  AddHosts((*primary)->db(), "live", 20);
  EXPECT_FALSE((*primary)->semisync_degraded())
      << "commits should have been acknowledged, not timed out";

  ASSERT_TRUE(WaitForCatchUp(**primary, **f1));
  ASSERT_TRUE(WaitForCatchUp(**primary, **f2));
  EXPECT_EQ(Observe((*f1)->db()), Observe((*primary)->db()));
  EXPECT_EQ(Observe((*f2)->db()), Observe((*primary)->db()));

  // Both sessions bootstrapped (fresh directories, no position to resume).
  EXPECT_EQ((*listener)->sessions_accepted(), 2u);
  EXPECT_EQ((*listener)->bootstraps(), 2u);
  EXPECT_EQ((*listener)->resumes(), 0u);
  EXPECT_EQ((*f1)->resumes(), 0u);
  EXPECT_EQ((*f1)->rebootstraps(), 0u);

  // The fleet table names both followers and tracks their ack coverage up
  // to the primary's appended-records high-water mark.
  ASSERT_TRUE(WaitFor(
      [&] {
        uint64_t acked = 0;
        for (const auto& f : (*listener)->Followers()) {
          if (f.connected && f.acked_records == (*primary)->records_appended())
            ++acked;
        }
        return acked == 2;
      },
      "both followers acking the full stream"));
  auto followers = (*listener)->Followers();
  ASSERT_EQ(followers.size(), 2u);
  for (const auto& f : followers) {
    EXPECT_TRUE(f.name == "f1" || f.name == "f2") << f.name;
    EXPECT_FALSE(f.resumed);
    EXPECT_GT(f.frames_shipped, 0u);
    EXPECT_EQ(f.lag_records, 0u);
  }

  // Per-follower metrics materialized under the follower's name.
  auto& reg = obs::MetricsRegistry::Global();
  EXPECT_GT(reg.GetCounter("nepal.replication.follower.f1.frames_shipped")
                ->Value(),
            0u);
  EXPECT_GT(reg.GetCounter("nepal.replication.follower.f2.acks")->Value(), 0u);
  EXPECT_EQ(reg.GetGauge("nepal.replication.follower.f1.connected")->Value(),
            1);
}

TEST_P(FleetTest, FollowerResumesWithinRetentionWithoutReBootstrap) {
  auto primary = OpenPrimary(FreshDir("p"), GetParam());
  ASSERT_TRUE(primary.ok()) << primary.status();
  AddHosts((*primary)->db(), "seed", 5);

  const SocketAddress addr = FreshSocket("resume");
  auto listener = ReplicationListener::Start(**primary, addr);
  ASSERT_TRUE(listener.ok()) << listener.status();
  auto follower = ConnectFollower(FreshDir("f"), GetParam(), addr, "f1");
  ASSERT_TRUE(follower.ok()) << follower.status();
  ASSERT_TRUE(WaitForCatchUp(**primary, **follower));

  // The primary restarts its listener; commits continue while the
  // follower is cut off.
  listener->reset();
  AddHosts((*primary)->db(), "while_away", 10);
  auto relisten = ReplicationListener::Start(**primary, addr);
  ASSERT_TRUE(relisten.ok()) << relisten.status();

  // The reconnect loop finds the new listener and resumes from its last
  // applied position — no checkpoint image is re-shipped.
  ASSERT_TRUE(WaitFor([&] { return (*follower)->resumes() >= 1; },
                      "follower resume"));
  ASSERT_TRUE(WaitForCatchUp(**primary, **follower));
  EXPECT_EQ(Observe((*follower)->db()), Observe((*primary)->db()));
  EXPECT_GE((*follower)->reconnects(), 1u);
  EXPECT_EQ((*follower)->rebootstraps(), 0u);
  EXPECT_EQ((*relisten)->resumes(), 1u);
  EXPECT_EQ((*relisten)->bootstraps(), 0u);
  ASSERT_TRUE(WaitFor(
      [&] {
        auto followers = (*relisten)->Followers();
        return followers.size() == 1 && followers[0].resumed;
      },
      "resumed session in the fleet table"));
}

TEST_P(FleetTest, FollowerReBootstrapsWhenResumePositionWasPruned) {
  auto primary = OpenPrimary(FreshDir("p"), GetParam());
  ASSERT_TRUE(primary.ok()) << primary.status();
  AddHosts((*primary)->db(), "seed", 5);

  const SocketAddress addr = FreshSocket("reboot");
  auto listener = ReplicationListener::Start(**primary, addr);
  ASSERT_TRUE(listener.ok()) << listener.status();
  auto follower = ConnectFollower(FreshDir("f"), GetParam(), addr, "f1");
  ASSERT_TRUE(follower.ok()) << follower.status();
  ASSERT_TRUE(WaitForCatchUp(**primary, **follower));
  storage::GraphDb* gen1 = &(*follower)->db();

  // Cut the follower off, then rotate the WAL past its position: two
  // checkpoints retain only the newest images and prune the segment the
  // follower would resume from.
  listener->reset();
  AddHosts((*primary)->db(), "while_away", 10);
  ASSERT_TRUE((*primary)->Checkpoint().ok());
  AddHosts((*primary)->db(), "more", 5);
  ASSERT_TRUE((*primary)->Checkpoint().ok());

  auto relisten = ReplicationListener::Start(**primary, addr);
  ASSERT_TRUE(relisten.ok()) << relisten.status();

  // Resume is impossible; the primary answers with a fresh bootstrap and
  // the follower swaps to a new generation.
  ASSERT_TRUE(WaitFor([&] { return (*follower)->rebootstraps() == 1; },
                      "follower re-bootstrap"));
  ASSERT_TRUE(WaitForCatchUp(**primary, **follower));
  EXPECT_EQ(Observe((*follower)->db()), Observe((*primary)->db()));
  EXPECT_EQ((*follower)->resumes(), 0u);
  EXPECT_EQ((*relisten)->bootstraps(), 1u);
  EXPECT_EQ((*relisten)->resumes(), 0u);
  // db() now reports the new generation; the retired one stays readable
  // for queries that raced the swap.
  EXPECT_NE(&(*follower)->db(), gen1);
  EXPECT_GT(gen1->node_count(), 0u);
}

TEST_P(FleetTest, RepointedFollowerReBootstrapsFromTheNewPrimary) {
  auto primary_a = OpenPrimary(FreshDir("pa"), GetParam());
  ASSERT_TRUE(primary_a.ok()) << primary_a.status();
  AddHosts((*primary_a)->db(), "a", 5);
  auto primary_b = OpenPrimary(FreshDir("pb"), GetParam());
  ASSERT_TRUE(primary_b.ok()) << primary_b.status();
  AddHosts((*primary_b)->db(), "b", 8);

  const SocketAddress addr_a = FreshSocket("rpa");
  const SocketAddress addr_b = FreshSocket("rpb");
  auto listener_a = ReplicationListener::Start(**primary_a, addr_a);
  ASSERT_TRUE(listener_a.ok()) << listener_a.status();
  auto listener_b = ReplicationListener::Start(**primary_b, addr_b);
  ASSERT_TRUE(listener_b.ok()) << listener_b.status();

  auto follower = ConnectFollower(FreshDir("f"), GetParam(), addr_a, "f1");
  ASSERT_TRUE(follower.ok()) << follower.status();
  ASSERT_TRUE(WaitForCatchUp(**primary_a, **follower));
  EXPECT_EQ(Observe((*follower)->db()), Observe((*primary_a)->db()));

  // Re-point at B: the applied position means nothing against another
  // primary's WAL, so the move is always a re-bootstrap.
  (*follower)->Repoint(addr_b);
  ASSERT_TRUE(WaitFor([&] { return (*follower)->rebootstraps() == 1; },
                      "re-bootstrap from the new primary"));
  ASSERT_TRUE(WaitForCatchUp(**primary_b, **follower));
  EXPECT_EQ(Observe((*follower)->db()), Observe((*primary_b)->db()));
  AddHosts((*primary_b)->db(), "b_live", 3);
  ASSERT_TRUE(WaitForCatchUp(**primary_b, **follower));
  EXPECT_EQ(Observe((*follower)->db()), Observe((*primary_b)->db()));
}

TEST_P(FleetTest, SemiSyncDegradesToAsyncAndReArmsOnCatchUp) {
  auto primary = OpenPrimary(FreshDir("p"), GetParam());
  ASSERT_TRUE(primary.ok()) << primary.status();

  // Quorum of one with no follower attached: the first commit waits out
  // the (short) timeout and degrades; later commits return immediately
  // instead of paying the timeout again.
  DurableStore::SemiSyncOptions semisync;
  semisync.quorum = 1;
  semisync.timeout_ms = 100;
  (*primary)->SetSemiSync(semisync);
  EXPECT_FALSE((*primary)->semisync_degraded());

  const auto t0 = std::chrono::steady_clock::now();
  AddHosts((*primary)->db(), "unacked", 1);
  const auto first_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  EXPECT_GE(first_ms, 90) << "the degrading commit should wait the timeout";
  EXPECT_TRUE((*primary)->semisync_degraded());

  const auto t1 = std::chrono::steady_clock::now();
  AddHosts((*primary)->db(), "degraded", 3);
  const auto rest_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t1)
                           .count();
  EXPECT_LT(rest_ms, 90) << "degraded mode must not wait per commit";
  EXPECT_TRUE((*primary)->semisync_degraded());

  // A follower catching back up to the commit token re-arms semi-sync.
  const uint64_t id = (*primary)->RegisterAckSource("manual");
  (*primary)->ReportAck(id, (*primary)->commit_token());
  (*primary)->WaitCommitted((*primary)->commit_token());
  EXPECT_FALSE((*primary)->semisync_degraded());
  (*primary)->UnregisterAckSource(id);
}

class RouterTest : public ::testing::TestWithParam<BackendKind> {};

TEST_P(RouterTest, ReplicaOkRoutesToReplicaWithinTheStalenessBound) {
  auto primary = OpenPrimary(FreshDir("p"), GetParam());
  ASSERT_TRUE(primary.ok()) << primary.status();
  AddHosts((*primary)->db(), "seed", 6);
  const SocketAddress addr = FreshSocket("route");
  auto listener = ReplicationListener::Start(**primary, addr);
  ASSERT_TRUE(listener.ok()) << listener.status();
  auto follower = ConnectFollower(FreshDir("f"), GetParam(), addr);
  ASSERT_TRUE(follower.ok()) << follower.status();
  ASSERT_TRUE(WaitForCatchUp(**primary, **follower));

  nql::EngineOptions options;
  options.routing.policy = nql::ReadPolicy::kReplicaOk;
  options.routing.max_lag_ms = 60000;
  nql::QueryEngine engine(&(*primary)->db(), options);
  ASSERT_TRUE(
      engine.catalog().AttachReplica("standby", follower->get()).ok());

  auto primary_rows =
      nql::QueryEngine(&(*primary)->db())
          .Run("Retrieve P From PATHS P Where P MATCHES Host()");
  ASSERT_TRUE(primary_rows.ok());
  auto routed = engine.Run("Retrieve P From PATHS P Where P MATCHES Host()");
  ASSERT_TRUE(routed.ok()) << routed.status();
  EXPECT_EQ(routed->rows.size(), primary_rows->rows.size());
  nql::RouteDecision route = engine.LastRoute();
  EXPECT_TRUE(route.replica);
  EXPECT_EQ(route.source, "standby");
  EXPECT_LE(route.staleness_ms, options.routing.max_lag_ms);
  EXPECT_GT(route.epoch, 0u);
  EXPECT_EQ(route.db, &(*follower)->db());

  // Bounded staleness under live writes: every routed read either runs on
  // a replica within the bound or falls back to the primary — never on a
  // replica staler than max_lag_ms.
  std::thread writer([&] { AddHosts((*primary)->db(), "live", 50); });
  for (int i = 0; i < 40; ++i) {
    auto r = engine.Run(
        "Select count(P) From PATHS P Where P MATCHES Host()");
    ASSERT_TRUE(r.ok()) << r.status();
    nql::RouteDecision d = engine.LastRoute();
    if (d.replica) {
      EXPECT_LE(d.staleness_ms, options.routing.max_lag_ms);
    }
  }
  writer.join();

  // Explicit `In` routing still works under a routing policy: a named
  // source query is pinned to that source, not re-routed.
  auto named = engine.Run(
      "Retrieve P From PATHS P In 'standby' Where P MATCHES Host()");
  ASSERT_TRUE(named.ok()) << named.status();
}

TEST_P(RouterTest, StaleOrStoppedReplicasFallBackToThePrimary) {
  auto primary = OpenPrimary(FreshDir("p"), GetParam());
  ASSERT_TRUE(primary.ok()) << primary.status();
  AddHosts((*primary)->db(), "seed", 4);
  const SocketAddress addr = FreshSocket("stale");
  auto listener = ReplicationListener::Start(**primary, addr);
  ASSERT_TRUE(listener.ok()) << listener.status();
  auto follower = ConnectFollower(FreshDir("f"), GetParam(), addr);
  ASSERT_TRUE(follower.ok()) << follower.status();
  ASSERT_TRUE(WaitForCatchUp(**primary, **follower));

  nql::EngineOptions options;
  options.routing.policy = nql::ReadPolicy::kReplicaOk;
  options.routing.max_lag_ms = 0;  // nothing can be this fresh for long
  nql::QueryEngine engine(&(*primary)->db(), options);
  ASSERT_TRUE(
      engine.catalog().AttachReplica("standby", follower->get()).ok());

  auto& reg = obs::MetricsRegistry::Global();
  const uint64_t fallbacks_before =
      reg.GetCounter("nepal.router.fallbacks")->Value();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto r = engine.Run("Retrieve P From PATHS P Where P MATCHES Host()");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(engine.LastRoute().replica)
      << "a replica idle for 50ms cannot satisfy max_lag_ms=0";
  EXPECT_GT(reg.GetCounter("nepal.router.fallbacks")->Value(),
            fallbacks_before);

  // A promoted follower stops serving routed reads entirely.
  options.routing.max_lag_ms = 60000;
  nql::QueryEngine wide(&(*primary)->db(), options);
  ASSERT_TRUE(wide.catalog().AttachReplica("standby", follower->get()).ok());
  ASSERT_TRUE((*follower)->Promote().ok());
  EXPECT_FALSE((*follower)->serving());
  r = wide.Run("Retrieve P From PATHS P Where P MATCHES Host()");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(wide.LastRoute().replica);
}

TEST_P(RouterTest, RoundRobinSpreadsReadsAcrossPrimaryAndReplicas) {
  auto primary = OpenPrimary(FreshDir("p"), GetParam());
  ASSERT_TRUE(primary.ok()) << primary.status();
  AddHosts((*primary)->db(), "seed", 4);
  const SocketAddress addr = FreshSocket("rr");
  auto listener = ReplicationListener::Start(**primary, addr);
  ASSERT_TRUE(listener.ok()) << listener.status();
  auto follower = ConnectFollower(FreshDir("f"), GetParam(), addr);
  ASSERT_TRUE(follower.ok()) << follower.status();
  ASSERT_TRUE(WaitForCatchUp(**primary, **follower));

  nql::EngineOptions options;
  options.routing.policy = nql::ReadPolicy::kRoundRobin;
  options.routing.max_lag_ms = 60000;
  nql::QueryEngine engine(&(*primary)->db(), options);
  ASSERT_TRUE(
      engine.catalog().AttachReplica("standby", follower->get()).ok());

  int replica_routes = 0;
  int primary_routes = 0;
  for (int i = 0; i < 10; ++i) {
    auto r = engine.Run("Retrieve P From PATHS P Where P MATCHES Host()");
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->rows.size(), 4u);
    (engine.LastRoute().replica ? replica_routes : primary_routes)++;
  }
  // One replica + the primary: strict alternation, 5 reads each.
  EXPECT_EQ(replica_routes, 5);
  EXPECT_EQ(primary_routes, 5);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, FleetTest,
    ::testing::Values(BackendKind::kGraphStore, BackendKind::kRelational),
    [](const auto& info) { return nepal::testing::BackendName(info.param); });

INSTANTIATE_TEST_SUITE_P(
    Backends, RouterTest,
    ::testing::Values(BackendKind::kGraphStore, BackendKind::kRelational),
    [](const auto& info) { return nepal::testing::BackendName(info.param); });

}  // namespace
}  // namespace nepal
