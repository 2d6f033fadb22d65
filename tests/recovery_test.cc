// Crash-recovery fault-injection suite (the durability subsystem's
// acceptance tests): WAL round trips, torn tails, CRC damage, checkpoint
// loss, a SIGKILLed writer process, snapshot save/load, and exact
// statistics restoration — always verifying that the recovered database
// answers current, timeslice and time-range queries byte-identically on
// both execution backends.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nepal/engine.h"
#include "netmodel/feed.h"
#include "persist/durable_store.h"
#include "tests/testutil.h"

namespace nepal {
namespace {

namespace fs = std::filesystem;
using nepal::testing::BackendKind;
using persist::DurableOptions;
using persist::DurableStore;
using persist::FsyncPolicy;

constexpr const char* kT0 = "2017-02-15 08:00:00";
constexpr const char* kT1 = "2017-02-15 09:00:00";
constexpr const char* kT2 = "2017-02-15 10:00:00";
constexpr const char* kT3 = "2017-02-15 11:00:00";
constexpr const char* kT4 = "2017-02-15 12:00:00";

Timestamp Ts(const char* s) {
  auto r = ParseTimestamp(s);
  EXPECT_TRUE(r.ok());
  return *r;
}

std::string FreshDir(const std::string& name) {
  // Suffix with the full test name (param included) so the graphstore and
  // relational instantiations of one TEST_P never share a directory when
  // ctest runs them concurrently.
  std::string unique = "nepal_rec_" + name;
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

Result<std::unique_ptr<DurableStore>> OpenDir(const std::string& dir,
                                              BackendKind kind,
                                              DurableOptions options = {}) {
  return DurableStore::Open(dir, nepal::testing::Figure3Schema(),
                            Factory(kind), options);
}

/// The temporal workload every recovery test replays: a VNF whose VM
/// migrates between hosts, changes status, and is finally deleted (node
/// removal cascades onto the placement edge), with the clock advancing
/// between batches.
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

  ASSERT_TRUE(db.SetTime(Ts(kT2)).ok());
  ASSERT_TRUE(db.RemoveElement(placement1).ok());
  ASSERT_TRUE(
      db.AddEdge("OnServer", vm, host2, {{"name", Value("p2")}}).ok());

  ASSERT_TRUE(db.SetTime(Ts(kT3)).ok());
  ASSERT_TRUE(db.UpdateElement(vm, {{"status", Value("Red")}}).ok());

  ASSERT_TRUE(db.SetTime(Ts(kT4)).ok());
  ASSERT_TRUE(db.RemoveElement(host1).ok());
}

const std::vector<std::string>& ObservationQueries() {
  static const std::vector<std::string> queries = {
      // Current snapshot.
      "Retrieve P From PATHS P Where P MATCHES "
      "VNF()->[Vertical()]{1,6}->Host()",
      "Retrieve P From PATHS P Where P MATCHES Container()",
      // Timeslices before and after the migration.
      "AT '" + std::string(kT1) +
          "' Retrieve P From PATHS P Where P MATCHES "
          "VNF()->[Vertical()]{1,6}->Host()",
      "AT '" + std::string(kT3) +
          "' Retrieve P From PATHS P Where P MATCHES "
          "VNF()->[Vertical()]{1,6}->Host()",
      // Time-range over the whole morning (maximal validity intervals).
      "AT '" + std::string(kT0) + "' : '" + std::string(kT4) +
          "' Retrieve P From PATHS P Where P MATCHES "
          "VNF()->[Vertical()]{1,6}->Host()",
      "AT '" + std::string(kT0) + "' : '" + std::string(kT4) +
          "' Retrieve P From PATHS P Where P MATCHES VM(status='Red')",
  };
  return queries;
}

/// Renders every observation query against `db`; recovery must reproduce
/// this string byte for byte.
std::string Observe(storage::GraphDb& db) {
  nql::QueryEngine engine(&db);
  std::string out;
  for (const std::string& q : ObservationQueries()) {
    auto result = engine.Run(q);
    out += "== " + q + "\n";
    out += result.ok() ? result->ToString(/*max_rows=*/100000)
                       : result.status().ToString();
    out += "\n";
  }
  return out;
}

std::string NewestFile(const std::string& dir, const std::string& prefix) {
  std::string newest;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0 && name > newest) newest = name;
  }
  EXPECT_FALSE(newest.empty()) << "no " << prefix << "* in " << dir;
  return dir + "/" + newest;
}

class RecoveryTest : public ::testing::TestWithParam<BackendKind> {};

TEST_P(RecoveryTest, WalReplayIsByteIdenticalOnBothBackends) {
  const std::string dir = FreshDir("roundtrip");
  {
    auto store = OpenDir(dir, GetParam());
    ASSERT_TRUE(store.ok()) << store.status();
    IngestWorkload((*store)->db());
  }

  // Replaying the log under either backend must reproduce, byte for byte,
  // what live ingestion on that backend would have answered — including
  // a WAL written by the *other* backend (the log is logical).
  for (BackendKind kind :
       {BackendKind::kGraphStore, BackendKind::kRelational}) {
    schema::SchemaPtr schema = nepal::testing::Figure3Schema();
    storage::GraphDb live(schema, nepal::testing::MakeBackend(kind, schema));
    IngestWorkload(live);
    const std::string expected = Observe(live);
    ASSERT_FALSE(expected.empty());

    auto reopened = OpenDir(dir, kind);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_FALSE((*reopened)->recovery_info().restored_checkpoint);
    EXPECT_GT((*reopened)->recovery_info().records_replayed, 0u);
    EXPECT_EQ(Observe((*reopened)->db()), expected)
        << "recovered on " << nepal::testing::BackendName(kind);
  }

  // The recovered database accepts further writes with replayed uids
  // cleared (the allocator resumed past the log's maximum).
  auto reopened = OpenDir(dir, GetParam());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  auto uid = (*reopened)->db().AddNode(
      "Docker", {{"name", Value("post-recovery")}});
  ASSERT_TRUE(uid.ok()) << uid.status();
  ASSERT_TRUE((*reopened)->db().RemoveElement(*uid).ok());
}

TEST_P(RecoveryTest, TornTailIsToleratedAndTruncatedRecordDropped) {
  const std::string dir = FreshDir("torn");
  std::string before_last;
  {
    auto store = OpenDir(dir, GetParam(),
                         DurableOptions{FsyncPolicy::kAlways, 0, 2});
    ASSERT_TRUE(store.ok()) << store.status();
    IngestWorkload((*store)->db());
    before_last = Observe((*store)->db());
    // One more write that the torn tail will destroy.
    ASSERT_TRUE(
        (*store)->db().AddNode("Docker", {{"name", Value("doomed")}}).ok());
  }
  // Crash simulation: clip the final record mid-frame.
  const std::string segment = NewestFile(dir, "wal-");
  const auto size = fs::file_size(segment);
  fs::resize_file(segment, size - 3);

  auto reopened = OpenDir(dir, GetParam());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_TRUE((*reopened)->recovery_info().torn_tail);
  EXPECT_EQ(Observe((*reopened)->db()), before_last);
  nql::QueryEngine engine(&(*reopened)->db());
  auto doomed =
      engine.Run("Retrieve P From PATHS P Where P MATCHES Docker()");
  ASSERT_TRUE(doomed.ok());
  EXPECT_TRUE(doomed->rows.empty());
}

TEST_P(RecoveryTest, CrcDamageFailsRecoveryWithClearError) {
  const std::string dir = FreshDir("crc");
  {
    auto store = OpenDir(dir, GetParam());
    ASSERT_TRUE(store.ok()) << store.status();
    IngestWorkload((*store)->db());
  }
  const std::string segment = NewestFile(dir, "wal-");
  std::fstream f(segment,
                 std::ios::in | std::ios::out | std::ios::binary);
  // Flip a bit inside the first record's payload (past the 24-byte segment
  // header and the 8-byte frame header).
  f.seekg(persist::kWalHeaderSize + persist::kWalFrameHeaderSize + 2);
  char byte = 0;
  f.get(byte);
  f.seekp(persist::kWalHeaderSize + persist::kWalFrameHeaderSize + 2);
  f.put(static_cast<char>(byte ^ 0x10));
  f.close();

  auto reopened = OpenDir(dir, GetParam());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(reopened.status().message().find("crc"), std::string::npos)
      << reopened.status();
}

TEST_P(RecoveryTest, CheckpointShortensReplayAndRestoresStatsCold) {
  const std::string dir = FreshDir("ckpt");
  std::string expected;
  size_t version_count = 0;
  {
    auto store = OpenDir(dir, GetParam());
    ASSERT_TRUE(store.ok()) << store.status();
    storage::GraphDb& db = (*store)->db();
    IngestWorkload(db);
    // Same-instant insert+delete and insert+update: their zero-length
    // versions stay out of the image and out of the live VersionCount.
    Uid gone = *db.AddNode("Docker", {{"name", Value("gone")}});
    ASSERT_TRUE(db.RemoveElement(gone).ok());
    Uid flip = *db.AddNode("VMWare", {{"name", Value("flip")},
                                      {"status", Value("Green")}});
    ASSERT_TRUE(db.UpdateElement(flip, {{"status", Value("Red")}}).ok());
    ASSERT_TRUE((*store)->Checkpoint().ok());
    expected = Observe(db);
    version_count = db.backend().VersionCount();
  }
  auto reopened = OpenDir(dir, GetParam());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  const auto& info = (*reopened)->recovery_info();
  EXPECT_TRUE(info.restored_checkpoint);
  // Cold start: the state came from the image, not from replaying the
  // workload (nothing was written after the checkpoint).
  EXPECT_EQ(info.records_replayed, 0u);
  EXPECT_EQ((*reopened)->db().backend().VersionCount(), version_count);
  EXPECT_EQ(Observe((*reopened)->db()), expected);
}

TEST_P(RecoveryTest, DeletedNewestCheckpointFallsBackToPrevious) {
  const std::string dir = FreshDir("ckpt_delete");
  std::string expected;
  {
    auto store = OpenDir(dir, GetParam());
    ASSERT_TRUE(store.ok()) << store.status();
    IngestWorkload((*store)->db());
    ASSERT_TRUE((*store)->Checkpoint().ok());
    ASSERT_TRUE(
        (*store)->db().AddNode("Docker", {{"name", Value("late")}}).ok());
    ASSERT_TRUE((*store)->Checkpoint().ok());
    expected = Observe((*store)->db());
  }
  fs::remove(NewestFile(dir, "checkpoint-"));

  auto reopened = OpenDir(dir, GetParam());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  const auto& info = (*reopened)->recovery_info();
  EXPECT_TRUE(info.restored_checkpoint);
  EXPECT_EQ(info.checkpoint_seq, 2u);  // the retained, older image
  // The fallback image predates the late Docker node; the WAL tail written
  // after it carries that write, so nothing is lost.
  EXPECT_GT(info.records_replayed, 0u);
  EXPECT_EQ(Observe((*reopened)->db()), expected);
  nql::QueryEngine engine(&(*reopened)->db());
  auto late = engine.Run("Retrieve P From PATHS P Where P MATCHES Docker()");
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(late->rows.size(), 1u);
}

TEST_P(RecoveryTest, CorruptNewestCheckpointAlsoFallsBack) {
  const std::string dir = FreshDir("ckpt_corrupt");
  std::string expected;
  {
    auto store = OpenDir(dir, GetParam());
    ASSERT_TRUE(store.ok()) << store.status();
    IngestWorkload((*store)->db());
    ASSERT_TRUE((*store)->Checkpoint().ok());
    ASSERT_TRUE(
        (*store)->db().AddNode("Docker", {{"name", Value("late")}}).ok());
    ASSERT_TRUE((*store)->Checkpoint().ok());
    expected = Observe((*store)->db());
  }
  const std::string newest = NewestFile(dir, "checkpoint-");
  std::fstream f(newest, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(100);
  char byte = 0;
  f.get(byte);
  f.seekp(100);
  f.put(static_cast<char>(byte ^ 0x20));
  f.close();

  auto reopened = OpenDir(dir, GetParam());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->recovery_info().checkpoints_skipped, 1);
  EXPECT_EQ(Observe((*reopened)->db()), expected);
}

TEST_P(RecoveryTest, MissingWalSegmentIsAClearError) {
  const std::string dir = FreshDir("gap");
  {
    auto store = OpenDir(dir, GetParam());
    ASSERT_TRUE(store.ok()) << store.status();
    IngestWorkload((*store)->db());
    ASSERT_TRUE((*store)->Checkpoint().ok());  // checkpoint 2, segment 2
    ASSERT_TRUE(
        (*store)->db().AddNode("Docker", {{"name", Value("late")}}).ok());
    ASSERT_TRUE((*store)->Checkpoint().ok());  // checkpoint 3, segment 3
  }
  // Lose the newest checkpoint AND the segment the fallback needs.
  fs::remove(NewestFile(dir, "checkpoint-"));
  fs::remove(dir + "/wal-00000002.log");

  auto reopened = OpenDir(dir, GetParam());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(reopened.status().message().find("missing wal segment"),
            std::string::npos)
      << reopened.status();
}

TEST_P(RecoveryTest, SigkilledWriterRecoversConsistently) {
  const std::string dir = FreshDir("sigkill");
  fs::create_directories(dir);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: ingest with per-append fsync until killed. No gtest macros
    // here — the process dies by SIGKILL, not by assertion.
    auto store = OpenDir(dir, GetParam(),
                         DurableOptions{FsyncPolicy::kAlways, 0, 2});
    if (!store.ok()) _exit(1);
    auto& db = (*store)->db();
    Timestamp t = db.Now();
    for (int i = 0; i < 200000; ++i) {
      t += 1000;
      if (!db.SetTime(t).ok()) _exit(2);
      auto host = db.AddNode(
          "Host", {{"name", Value("h" + std::to_string(i))},
                   {"serial", Value("sn" + std::to_string(i))}});
      if (!host.ok()) _exit(3);
      if (i % 3 == 0) {
        auto vm = db.AddNode("VMWare",
                             {{"name", Value("v" + std::to_string(i))}});
        if (!vm.ok()) _exit(4);
        if (!db.AddEdge("OnServer", *vm, *host, {}).ok()) _exit(5);
      }
      if (i % 50 == 7 && (*store)->Checkpoint().ok() == false) _exit(6);
    }
    _exit(0);
  }
  // Parent: let the child commit some writes, then kill it mid-ingest.
  usleep(300 * 1000);
  kill(child, SIGKILL);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus)) << "child exited before the kill; "
                                    << "raise the iteration count";

  // Recovery must succeed on both backends and agree byte for byte.
  std::string outputs[2];
  size_t counts[2];
  int i = 0;
  for (BackendKind kind :
       {BackendKind::kGraphStore, BackendKind::kRelational}) {
    auto store = OpenDir(dir, kind);
    ASSERT_TRUE(store.ok())
        << nepal::testing::BackendName(kind) << ": " << store.status();
    auto& db = (*store)->db();
    counts[i] = db.node_count();
    nql::QueryEngine engine(&db);
    auto hosts = engine.Run(
        "Retrieve P From PATHS P Where P MATCHES "
        "VM()->OnServer()->Host()");
    ASSERT_TRUE(hosts.ok()) << hosts.status();
    outputs[i] = hosts->ToString(/*max_rows=*/1000000);
    ++i;
  }
  EXPECT_GT(counts[0], 0u) << "the kill landed before any commit; "
                           << "raise the sleep";
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_EQ(outputs[0], outputs[1]);
}

TEST_P(RecoveryTest, IdleTailUnderIntervalFsyncSurvivesSigkill) {
  // Regression for the interval-fsync idle-tail hole: a write landing
  // mid-window on a writer that then goes quiet used to stay dirty forever
  // (MaybeSync only synced when a LATER append arrived after the window).
  // The deadline flusher must put it on disk within the window, so a
  // SIGKILL long after the append recovers the record. (SIGKILL alone
  // cannot prove the fsync — the page cache survives process death — so
  // the in-process fsync-counter test in batch_test.cc covers that half;
  // this drill covers the end-to-end recovery contract.)
  const std::string dir = FreshDir("idletail");
  fs::create_directories(dir);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    auto store = OpenDir(dir, GetParam(),
                         DurableOptions{FsyncPolicy::kInterval,
                                        /*fsync_interval_ms=*/25, 2});
    if (!store.ok()) _exit(1);
    auto& db = (*store)->db();
    if (!db.AddNode("Host", {{"name", Value("lone")},
                             {"serial", Value("sn-lone")}}).ok()) {
      _exit(2);
    }
    // Go idle: no further append ever arrives to trigger a sync. Spin
    // until killed — never run Close()/destructors, they would sync.
    for (;;) usleep(100 * 1000);
  }
  // Give the deadline flusher ample slack past the 25 ms window, then
  // kill without any clean shutdown.
  usleep(600 * 1000);
  kill(child, SIGKILL);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus));

  auto store = OpenDir(dir, GetParam());
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ((*store)->db().node_count(), 1u)
      << "the idle-tail append was lost";
  EXPECT_GE((*store)->recovery_info().records_replayed, 1u);
}

TEST_P(RecoveryTest, SaveSnapshotLoadsOnBothBackends) {
  auto net = nepal::testing::MakeTinyNetwork(GetParam());
  ASSERT_TRUE(net.db->SetTime(net.db->Now() + 777).ok());
  ASSERT_TRUE(
      net.db->UpdateElement(net.vm1, {{"status", Value("Blue")}}).ok());

  const std::string dir = FreshDir("snapshot");
  ASSERT_TRUE(DurableStore::SaveSnapshot(dir, *net.db).ok());
  // A second save into the same directory must refuse to clobber it.
  EXPECT_EQ(DurableStore::SaveSnapshot(dir, *net.db).code(),
            StatusCode::kAlreadyExists);

  for (BackendKind kind :
       {BackendKind::kGraphStore, BackendKind::kRelational}) {
    // Loading the snapshot under either backend must answer byte-for-byte
    // what live ingestion on that backend would have answered.
    auto live = nepal::testing::MakeTinyNetwork(kind);
    ASSERT_TRUE(live.db->SetTime(live.db->Now() + 777).ok());
    ASSERT_TRUE(
        live.db->UpdateElement(live.vm1, {{"status", Value("Blue")}}).ok());
    const std::string expected = Observe(*live.db);

    // Each backend loads its own copy: opening a snapshot makes the
    // directory live (a WAL segment appears and absorbs new writes).
    const std::string copy =
        FreshDir("snapshot_" + nepal::testing::BackendName(kind));
    fs::copy(dir, copy);
    auto loaded = OpenDir(copy, kind);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_TRUE((*loaded)->recovery_info().restored_checkpoint);
    EXPECT_EQ(Observe((*loaded)->db()), expected)
        << "loaded on " << nepal::testing::BackendName(kind);
    // The loaded store is live: it accepts durable writes.
    ASSERT_TRUE(
        (*loaded)->db().AddNode("Docker", {{"name", Value("fresh")}}).ok());
  }
}

TEST_P(RecoveryTest, ColdStartRestoresStatsAndPlanChoice) {
  // 60 VMs packed onto 3 hosts: the cost-based optimizer must anchor the
  // VM->OnServer->Host pathway at Host, and a cold start from a checkpoint
  // must reach the same choice from the restored statistics alone.
  const std::string dir = FreshDir("statsparity");
  const std::string query =
      "Retrieve P From PATHS P Where P MATCHES VM()->OnServer()->Host()";
  std::string live_stats, live_plan;
  double live_scan_vm = 0, live_scan_host = 0;
  {
    auto store = OpenDir(dir, GetParam());
    ASSERT_TRUE(store.ok()) << store.status();
    auto& db = (*store)->db();
    std::vector<Uid> hosts;
    for (int h = 0; h < 3; ++h) {
      hosts.push_back(
          *db.AddNode("Host", {{"name", Value("h" + std::to_string(h))}}));
    }
    for (int v = 0; v < 60; ++v) {
      Uid vm = *db.AddNode("VMWare",
                           {{"name", Value("vm" + std::to_string(v))}});
      ASSERT_TRUE(db.AddEdge("OnServer", vm, hosts[v % 3], {}).ok());
    }
    db.backend().stats().SerializeTo(&live_stats);
    storage::ScanSpec vm_scan, host_scan;
    vm_scan.cls = db.schema().FindClass("VM");
    host_scan.cls = db.schema().FindClass("Host");
    live_scan_vm = db.backend().EstimateScan(vm_scan);
    live_scan_host = db.backend().EstimateScan(host_scan);
    nql::QueryEngine engine(&db);
    auto explained = engine.Explain(query);
    ASSERT_TRUE(explained.ok()) << explained.status();
    live_plan = *explained;
    EXPECT_NE(live_plan.find("anchor Host"), std::string::npos) << live_plan;
    ASSERT_TRUE((*store)->Checkpoint().ok());
  }

  auto reopened = OpenDir(dir, GetParam());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  // The whole point of checkpointed statistics: nothing to replay, and no
  // per-element re-derivation on the cold path.
  EXPECT_TRUE((*reopened)->recovery_info().restored_checkpoint);
  EXPECT_EQ((*reopened)->recovery_info().records_replayed, 0u);

  auto& db = (*reopened)->db();
  std::string restored_stats;
  db.backend().stats().SerializeTo(&restored_stats);
  EXPECT_EQ(restored_stats, live_stats)
      << "restored statistics are not byte-identical to live statistics";
  storage::ScanSpec vm_scan, host_scan;
  vm_scan.cls = db.schema().FindClass("VM");
  host_scan.cls = db.schema().FindClass("Host");
  EXPECT_EQ(db.backend().EstimateScan(vm_scan), live_scan_vm);
  EXPECT_EQ(db.backend().EstimateScan(host_scan), live_scan_host);
  nql::QueryEngine engine(&db);
  auto explained = engine.Explain(query);
  ASSERT_TRUE(explained.ok()) << explained.status();
  EXPECT_EQ(*explained, live_plan)
      << "cold-start plan diverged from the live plan";
}

TEST_P(RecoveryTest, FeedExportIsSnapshotOnlyAndCountsSkipped) {
  // The inventory feed is the *other* persistence path: replayable text,
  // but current-snapshot only. The round trip must work from a recovered
  // database, count unnamed (unexportable) elements, and demonstrably
  // lose history — which is the documented reason the WAL exists.
  const std::string dir = FreshDir("feedexport");
  {
    auto store = OpenDir(dir, GetParam());
    ASSERT_TRUE(store.ok()) << store.status();
    IngestWorkload((*store)->db());
    // An unnamed node cannot be exported by name and must be skipped.
    ASSERT_TRUE((*store)->db().AddNode("Docker", {}).ok());
  }
  auto reopened = OpenDir(dir, GetParam());
  ASSERT_TRUE(reopened.ok()) << reopened.status();

  size_t skipped = 0;
  const std::string feed =
      netmodel::ExportFeed((*reopened)->db(), &skipped);
  EXPECT_EQ(skipped, 1u);  // the unnamed Docker node
  EXPECT_NE(feed.find("CURRENT snapshot only"), std::string::npos) << feed;

  schema::SchemaPtr schema = nepal::testing::Figure3Schema();
  storage::GraphDb fresh(schema, nepal::testing::MakeBackend(GetParam(),
                                                             schema));
  netmodel::FeedLoader loader(&fresh);
  auto stats = loader.Load(feed);
  ASSERT_TRUE(stats.ok()) << stats.status() << "\nfeed:\n" << feed;
  EXPECT_EQ(stats->nodes, 4u);  // vnf, vfc, vm, host2 (host1 was removed)
  EXPECT_EQ(stats->edges, 3u);

  nql::QueryEngine original(&(*reopened)->db());
  nql::QueryEngine roundtripped(&fresh);
  const std::string current =
      "Retrieve P From PATHS P Where P MATCHES "
      "VNF()->[Vertical()]{1,6}->Host()";
  auto r1 = original.Run(current);
  auto r2 = roundtripped.Run(current);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->rows.size(), r2->rows.size());

  // History loss: at the pre-migration timeslice the WAL-recovered
  // database still shows the old placement (host1); the feed round trip
  // flattened history into "the current placement always existed".
  const std::string at_t1 = "AT '" + std::string(kT1) +
                            "' Select target(P).name From PATHS P "
                            "Where P MATCHES VM()->OnServer()->Host()";
  auto h1 = original.Run(at_t1);
  auto h2 = roundtripped.Run(at_t1);
  ASSERT_TRUE(h1.ok()) << h1.status();
  ASSERT_TRUE(h2.ok()) << h2.status();
  ASSERT_EQ(h1->rows.size(), 1u);
  ASSERT_EQ(h2->rows.size(), 1u);
  EXPECT_EQ(h1->rows[0].values[0], Value("host1"));
  EXPECT_EQ(h2->rows[0].values[0], Value("host2"));
}

INSTANTIATE_TEST_SUITE_P(
    Backends, RecoveryTest,
    ::testing::Values(BackendKind::kGraphStore, BackendKind::kRelational),
    [](const auto& info) { return nepal::testing::BackendName(info.param); });

}  // namespace
}  // namespace nepal
