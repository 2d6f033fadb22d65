// WAL-shipping replication suite: follower bootstrap and live tailing
// over a ReplicationListener socket (byte-identical reads on both
// backends), retention pinning under the checkpoint rotate-then-prune
// race, slow-subscriber disconnection, read-only enforcement at the
// replica and in the engine's source catalog, and the headline failover
// drill — SIGKILL the primary mid-stream, promote the follower, and
// verify that no commit the primary acknowledged after follower
// confirmation is lost.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nepal/engine.h"
#include "persist/durable_store.h"
#include "replication/listener.h"
#include "replication/replica_store.h"
#include "tests/testutil.h"

namespace nepal {
namespace {

namespace fs = std::filesystem;
using nepal::testing::BackendKind;
using nepal::testing::ConnectFollower;
using nepal::testing::FreshSocket;
using persist::DurableOptions;
using persist::DurableStore;
using persist::FsyncPolicy;
using replication::ReplicaStore;
using replication::ReplicationListener;
using replication::SocketAddress;

constexpr const char* kT0 = "2017-02-15 08:00:00";
constexpr const char* kT1 = "2017-02-15 09:00:00";
constexpr const char* kT2 = "2017-02-15 10:00:00";

Timestamp Ts(const char* s) {
  auto r = ParseTimestamp(s);
  EXPECT_TRUE(r.ok());
  return *r;
}

std::string FreshDir(const std::string& name) {
  std::string unique = "nepal_repl_" + name;
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

/// Serves `primary` on a fresh unix socket. Followers connect with
/// ConnectFollower(dir, kind, (*listener)->address()); the listener must
/// be destroyed before the primary it serves.
Result<std::unique_ptr<ReplicationListener>> Serve(DurableStore& primary,
                                                   const std::string& tag) {
  return ReplicationListener::Start(primary, FreshSocket(tag));
}

/// Ingest batch shared by the tests: a VNF stack with a migration, an
/// update and a cascade delete — the same temporal shape recovery_test
/// uses, so byte-identical observation strings exercise history, not
/// just the current snapshot.
void IngestWorkload(storage::GraphDb& db) {
  ASSERT_TRUE(db.SetTime(Ts(kT0)).ok());
  Uid vnf = *db.AddNode("DNS", {{"name", Value("vnf")},
                                {"vnf_type", Value("dns")}});
  Uid vfc = *db.AddNode("VFC", {{"name", Value("vfc")}});
  Uid vm = *db.AddNode("VMWare", {{"name", Value("vm")},
                                  {"status", Value("Green")}});
  Uid host1 = *db.AddNode("Host", {{"name", Value("host1")},
                                   {"serial", Value("sn-1")}});
  Uid host2 = *db.AddNode("Host", {{"name", Value("host2")},
                                   {"serial", Value("sn-2")}});
  ASSERT_TRUE(
      db.AddEdge("composed_of", vnf, vfc, {{"name", Value("c1")}}).ok());
  ASSERT_TRUE(
      db.AddEdge("hosted_on", vfc, vm, {{"name", Value("h1")}}).ok());
  Uid placement1 =
      *db.AddEdge("OnServer", vm, host1, {{"name", Value("p1")}});
  ASSERT_TRUE(db.SetTime(Ts(kT1)).ok());
  ASSERT_TRUE(db.RemoveElement(placement1).ok());
  ASSERT_TRUE(
      db.AddEdge("OnServer", vm, host2, {{"name", Value("p2")}}).ok());
  ASSERT_TRUE(db.SetTime(Ts(kT2)).ok());
  ASSERT_TRUE(db.UpdateElement(vm, {{"status", Value("Red")}}).ok());
}

/// Queries spanning the current snapshot, a timeslice and a time range;
/// a follower must reproduce this string byte for byte.
std::string Observe(storage::GraphDb& db) {
  nql::QueryEngine engine(&db);
  const std::vector<std::string> queries = {
      "Retrieve P From PATHS P Where P MATCHES "
      "VNF()->[Vertical()]{1,6}->Host()",
      "AT '" + std::string(kT0) +
          "' Retrieve P From PATHS P Where P MATCHES "
          "VNF()->[Vertical()]{1,6}->Host()",
      "AT '" + std::string(kT0) + "' : '" + std::string(kT2) +
          "' Retrieve P From PATHS P Where P MATCHES VM(status='Red')",
      "Retrieve P From PATHS P Where P MATCHES Host()",
  };
  std::string out;
  for (const std::string& q : queries) {
    auto result = engine.Run(q);
    out += "== " + q + "\n";
    out += result.ok() ? result->ToString(/*max_rows=*/100000)
                       : result.status().ToString();
    out += "\n";
  }
  return out;
}

/// Polls until the follower has applied everything the primary appended
/// (by record count) or the deadline passes.
::testing::AssertionResult WaitForCatchUp(const DurableStore& primary,
                                          const ReplicaStore& follower,
                                          uint64_t base_appended = 0,
                                          int timeout_ms = 20000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (!follower.status().ok()) {
      return ::testing::AssertionFailure()
             << "apply loop failed: " << follower.status();
    }
    if (follower.records_applied() + base_appended >=
        primary.records_appended()) {
      return ::testing::AssertionSuccess();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return ::testing::AssertionFailure()
         << "follower stuck at " << follower.records_applied()
         << " applied (primary appended " << primary.records_appended()
         << ", base " << base_appended << ")";
}

class ReplicationTest : public ::testing::TestWithParam<BackendKind> {};

TEST_P(ReplicationTest, FollowerIsByteIdenticalUnderLiveConcurrentIngest) {
  auto primary = OpenPrimary(FreshDir("p"), GetParam());
  ASSERT_TRUE(primary.ok()) << primary.status();
  IngestWorkload((*primary)->db());

  // The pre-subscribe workload travels in the bootstrap image; everything
  // after this mark must arrive as WAL frames.
  const uint64_t base = (*primary)->records_appended();
  auto listener = Serve(**primary, "live");
  ASSERT_TRUE(listener.ok()) << listener.status();
  auto follower =
      ConnectFollower(FreshDir("f"), GetParam(), (*listener)->address());
  ASSERT_TRUE(follower.ok()) << follower.status();

  // Live ingest concurrent with the follower tailing.
  std::thread writer([&] {
    auto& db = (*primary)->db();
    Timestamp t = db.Now();
    for (int i = 0; i < 200; ++i) {
      t += 1000000;
      ASSERT_TRUE(db.SetTime(t).ok());
      auto host = db.AddNode(
          "Host", {{"name", Value("lh" + std::to_string(i))},
                   {"serial", Value("lsn" + std::to_string(i))}});
      ASSERT_TRUE(host.ok()) << host.status();
      if (i % 4 == 0) {
        auto vm = db.AddNode("VMWare",
                             {{"name", Value("lv" + std::to_string(i))}});
        ASSERT_TRUE(vm.ok());
        ASSERT_TRUE(db.AddEdge("OnServer", *vm, *host, {}).ok());
      }
      if (i % 7 == 3) {
        ASSERT_TRUE(db.RemoveElement(*host).ok());
      }
    }
  });
  writer.join();

  ASSERT_TRUE(WaitForCatchUp(**primary, **follower, base));
  EXPECT_EQ(Observe((*follower)->db()), Observe((*primary)->db()));
  EXPECT_EQ((*follower)->db().node_count(), (*primary)->db().node_count());
  EXPECT_EQ((*follower)->db().edge_count(), (*primary)->db().edge_count());
}

TEST_P(ReplicationTest, FollowerOnTheOtherBackendMatchesByteForByte) {
  // The log is logical: a graphstore primary can feed a relational
  // follower and vice versa, and reads still match byte for byte.
  const BackendKind other = GetParam() == BackendKind::kGraphStore
                                ? BackendKind::kRelational
                                : BackendKind::kGraphStore;
  auto primary = OpenPrimary(FreshDir("p"), GetParam());
  ASSERT_TRUE(primary.ok()) << primary.status();
  const uint64_t base = (*primary)->records_appended();
  auto listener = Serve(**primary, "cross");
  ASSERT_TRUE(listener.ok()) << listener.status();
  auto follower =
      ConnectFollower(FreshDir("f"), other, (*listener)->address());
  ASSERT_TRUE(follower.ok()) << follower.status();
  IngestWorkload((*primary)->db());
  ASSERT_TRUE(WaitForCatchUp(**primary, **follower, base));
  EXPECT_EQ(Observe((*follower)->db()), Observe((*primary)->db()));
}

TEST_P(ReplicationTest, FollowerBootstrapsFromClosedSegmentsAndLiveTail) {
  // Catch-up must read committed-but-unshipped records back from disk:
  // checkpoint first (so Subscribe does not cut a fresh image), then
  // commit a workload that therefore sits only in WAL segments.
  auto primary = OpenPrimary(FreshDir("p"), GetParam());
  ASSERT_TRUE(primary.ok()) << primary.status();
  ASSERT_TRUE((*primary)->Checkpoint().ok());
  IngestWorkload((*primary)->db());
  const uint64_t pre_subscribe = (*primary)->records_appended();
  ASSERT_GT(pre_subscribe, 0u);

  auto listener = Serve(**primary, "disk");
  ASSERT_TRUE(listener.ok()) << listener.status();
  auto follower =
      ConnectFollower(FreshDir("f"), GetParam(), (*listener)->address());
  ASSERT_TRUE(follower.ok()) << follower.status();
  // Live tail on top of the disk catch-up.
  ASSERT_TRUE((*primary)
                  ->db()
                  .AddNode("Docker", {{"name", Value("live-tail")}})
                  .ok());
  ASSERT_TRUE(WaitForCatchUp(**primary, **follower));
  // Every pre-subscribe record was applied (they were not in the image).
  EXPECT_GE((*follower)->records_applied(), pre_subscribe);
  EXPECT_EQ(Observe((*follower)->db()), Observe((*primary)->db()));
}

TEST_P(ReplicationTest, PruneNeverDeletesSegmentsASubscriberStillNeeds) {
  // The rotate-then-prune race: a subscriber attaches with unconsumed
  // records in the then-active segment; two checkpoints later that
  // segment is older than every retained image and Prune() would delete
  // it — retention pinning must keep it until the subscriber has read it.
  const std::string dir = FreshDir("pin");
  auto primary = OpenPrimary(dir, GetParam());
  ASSERT_TRUE(primary.ok()) << primary.status();
  ASSERT_TRUE((*primary)->Checkpoint().ok());  // checkpoint-2, segment 2
  IngestWorkload((*primary)->db());            // records live in segment 2

  auto sub = (*primary)->Subscribe();
  ASSERT_TRUE(sub.ok()) << sub.status();
  EXPECT_EQ((*sub)->start_seq(), 2u);
  const uint64_t appended = (*primary)->records_appended();

  // Rotate past the attach segment twice; without pinning, segment 2 is
  // now older than the oldest retained checkpoint (3) and gets deleted.
  ASSERT_TRUE((*primary)->Checkpoint().ok());  // checkpoint-3
  ASSERT_TRUE((*primary)->Checkpoint().ok());  // checkpoint-4, retains {3,4}
  EXPECT_TRUE(fs::exists(dir + "/" + persist::WalSegmentFileName(2)))
      << "prune deleted a segment the subscriber has not consumed";

  // The subscriber can still read the complete stream from its image on.
  uint64_t got = 0;
  persist::WalShipFrame frame;
  while (got < appended) {
    auto next = (*sub)->Next(&frame, std::chrono::milliseconds(1000));
    ASSERT_TRUE(next.ok()) << next.status();
    ASSERT_TRUE(*next) << "timed out after " << got << " frames";
    ++got;
  }
  EXPECT_EQ(got, appended);

  // Once the subscriber lets go, the next checkpoint prunes the segment.
  (*sub)->Cancel();
  ASSERT_TRUE((*primary)->Checkpoint().ok());
  EXPECT_FALSE(fs::exists(dir + "/" + persist::WalSegmentFileName(2)));
}

TEST_P(ReplicationTest, LaggedSubscriberIsDisconnectedNotBlocking) {
  auto primary = OpenPrimary(FreshDir("p"), GetParam());
  ASSERT_TRUE(primary.ok()) << primary.status();
  persist::SubscribeOptions tiny;
  tiny.max_buffered_bytes = 64;  // a handful of records at most
  auto sub = (*primary)->Subscribe(tiny);
  ASSERT_TRUE(sub.ok()) << sub.status();

  // Nobody consumes; the primary must stay un-throttled and cut the
  // subscriber loose instead of buffering forever.
  IngestWorkload((*primary)->db());
  EXPECT_TRUE((*sub)->lagged());

  persist::WalShipFrame frame;
  for (;;) {
    auto next = (*sub)->Next(&frame, std::chrono::milliseconds(10));
    if (!next.ok()) {
      EXPECT_EQ(next.status().code(), StatusCode::kUnavailable);
      EXPECT_NE(next.status().message().find("lagged"), std::string::npos)
          << next.status();
      break;
    }
    ASSERT_TRUE(*next) << "subscription neither delivered nor failed";
  }
}

TEST_P(ReplicationTest, ReplicaRejectsDirectWritesAndCatalogRoutesReads) {
  auto primary = OpenPrimary(FreshDir("p"), GetParam());
  ASSERT_TRUE(primary.ok()) << primary.status();
  IngestWorkload((*primary)->db());
  const uint64_t base = (*primary)->records_appended();
  auto listener = Serve(**primary, "ro");
  ASSERT_TRUE(listener.ok()) << listener.status();
  auto follower =
      ConnectFollower(FreshDir("f"), GetParam(), (*listener)->address());
  ASSERT_TRUE(follower.ok()) << follower.status();
  ASSERT_TRUE(WaitForCatchUp(**primary, **follower, base));

  // Direct writes at the replica are rejected; the apply loop is the only
  // admitted writer.
  auto rejected =
      (*follower)->db().AddNode("Docker", {{"name", Value("stray")}});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kReadOnly);
  EXPECT_EQ((*follower)->db().SetTime(Ts(kT2) + 1).code(),
            StatusCode::kReadOnly);

  // Catalog: the replica serves federated reads but refuses write routing.
  {
    nql::QueryEngine engine(&(*primary)->db());
    nql::SourceDescriptor standby;
    standby.db = &(*follower)->db();
    standby.role = nql::SourceRole::kReplica;
    ASSERT_TRUE(engine.catalog().Register("standby", standby).ok());
    auto reads = engine.Run(
        "Retrieve P From PATHS P In 'standby' Where P MATCHES "
        "VM()->OnServer()->Host()");
    ASSERT_TRUE(reads.ok()) << reads.status();
    EXPECT_EQ(reads->rows.size(), 1u);
    auto writable = engine.catalog().Writable("standby");
    ASSERT_FALSE(writable.ok());
    EXPECT_EQ(writable.status().code(), StatusCode::kReadOnly);
  }

  // The replica keeps answering after the primary is gone.
  listener->reset();
  primary->reset();
  nql::QueryEngine survivor(&(*follower)->db());
  auto still = survivor.Run(
      "Retrieve P From PATHS P Where P MATCHES Host()");
  ASSERT_TRUE(still.ok()) << still.status();
  EXPECT_EQ(still->rows.size(), 2u);
}

TEST_P(ReplicationTest, PromotedFollowerAcceptsWritesAndRecovers) {
  const std::string follower_dir = FreshDir("f");
  std::string after_promotion;
  {
    auto primary = OpenPrimary(FreshDir("p"), GetParam());
    ASSERT_TRUE(primary.ok()) << primary.status();
    IngestWorkload((*primary)->db());
    const uint64_t base = (*primary)->records_appended();
    auto listener = Serve(**primary, "old");
    ASSERT_TRUE(listener.ok()) << listener.status();
    auto follower =
        ConnectFollower(follower_dir, GetParam(), (*listener)->address());
    ASSERT_TRUE(follower.ok()) << follower.status();
    ASSERT_TRUE(WaitForCatchUp(**primary, **follower, base));

    listener->reset();
    primary->reset();  // primary dies; the stream ends
    ASSERT_TRUE((*follower)->Promote().ok());
    EXPECT_TRUE((*follower)->promoted());

    // The promoted store is a writable primary in its own right: it takes
    // durable writes and can even feed a new follower.
    auto& db = (*follower)->db();
    ASSERT_TRUE(db.SetTime(db.Now() + 1000000).ok());
    ASSERT_TRUE(
        db.AddNode("Docker", {{"name", Value("post-promotion")}}).ok());
    auto next_listener = Serve((*follower)->store(), "new");
    ASSERT_TRUE(next_listener.ok()) << next_listener.status();
    auto next_follower = ConnectFollower(FreshDir("f2"), GetParam(),
                                         (*next_listener)->address());
    ASSERT_TRUE(next_follower.ok()) << next_follower.status();
    after_promotion = Observe(db);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (Observe((*next_follower)->db()) != after_promotion &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(Observe((*next_follower)->db()), after_promotion);
  }
  // And its directory recovers like any primary directory.
  auto reopened = OpenPrimary(follower_dir, GetParam());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(Observe((*reopened)->db()), after_promotion);
}

TEST_P(ReplicationTest, SigkilledPrimaryPromoteLosesNoAcknowledgedCommit) {
  // Failover drill with semi-synchronous acknowledgment: the primary
  // serves a listener with a quorum of one, so each commit waits for the
  // follower's ack. A commit counts as client-acknowledged only when its
  // AddNode returned with semi-sync still armed (the ack covered it, no
  // timeout), and the primary records each such element in a file.
  // SIGKILL the primary mid-stream, promote the follower: every recorded
  // element must be queryable — the zero-acknowledged-loss contract of
  // warm standby.
  const std::string primary_dir = FreshDir("p");
  const std::string follower_dir = FreshDir("f");
  const std::string acked_path = FreshDir("acked") + ".list";
  fs::remove(acked_path);
  const SocketAddress addr = FreshSocket("failover");

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: the primary. No gtest macros — this process dies by SIGKILL.
    auto store = OpenPrimary(primary_dir, GetParam(),
                             DurableOptions{FsyncPolicy::kAlways, 0, 2});
    if (!store.ok()) _exit(1);
    auto listener = ReplicationListener::Start(**store, addr);
    if (!listener.ok()) _exit(2);
    // Arm semi-sync once the follower's session is up: from then on every
    // commit ships as a live frame, and the follower's ack covers it.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while ((*listener)->Followers().empty()) {
      if (std::chrono::steady_clock::now() > deadline) _exit(3);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    DurableStore::SemiSyncOptions semisync;
    semisync.quorum = 1;
    semisync.timeout_ms = 30000;
    (*store)->SetSemiSync(semisync);
    std::ofstream acked(acked_path, std::ios::trunc);
    for (int i = 0; i < 200000; ++i) {
      const std::string name = "h" + std::to_string(i);
      if (!(*store)
               ->db()
               .AddNode("Host", {{"name", Value(name)},
                                 {"serial", Value("sn" + name)}})
               .ok()) {
        _exit(4);
      }
      // A degraded commit returned without the quorum's ack; only an
      // armed one is acknowledged to the "client".
      if ((*store)->semisync_degraded()) continue;
      acked << name << "\n";
      acked.flush();
    }
    _exit(0);
  }

  // Parent: the follower. Connect() keeps retrying while the child's
  // listener comes up.
  auto follower = ConnectFollower(follower_dir, GetParam(), addr);
  if (!follower.ok()) {
    kill(child, SIGKILL);
    waitpid(child, nullptr, 0);
  }
  ASSERT_TRUE(follower.ok()) << follower.status();

  // Let commits flow, then murder the primary mid-stream.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  kill(child, SIGKILL);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus)) << "child exited before the kill";

  // The stream ends; the apply loop stops; promote.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while ((*follower)->status().ok() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE((*follower)->Promote().ok());

  // Zero acknowledged loss: every element the primary recorded as
  // acknowledged exists on the promoted follower.
  std::vector<std::string> acked_names;
  {
    std::ifstream in(acked_path);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) acked_names.push_back(line);
    }
  }
  ASSERT_FALSE(acked_names.empty())
      << "the kill landed before any acknowledged commit; raise the sleep";
  nql::QueryEngine engine(&(*follower)->db());
  for (const std::string& name : acked_names) {
    auto found = engine.Run("Retrieve P From PATHS P Where P MATCHES Host("
                            "name='" + name + "')");
    ASSERT_TRUE(found.ok()) << found.status();
    EXPECT_EQ(found->rows.size(), 1u) << "acknowledged commit " << name
                                      << " lost in failover";
  }
  // The promoted follower is writable.
  ASSERT_TRUE((*follower)
                  ->db()
                  .AddNode("Docker", {{"name", Value("after-failover")}})
                  .ok());
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ReplicationTest,
    ::testing::Values(BackendKind::kGraphStore, BackendKind::kRelational),
    [](const auto& info) { return nepal::testing::BackendName(info.param); });

}  // namespace
}  // namespace nepal
