// Group-commit batch ingest and epoch-pinned reads: GraphDb::ApplyBatch
// must be byte-identical to the equivalent single applies (queries, stats,
// WAL replay) on both backends, a mid-batch validation failure must leave
// no partial state, a read pinned to an earlier commit epoch must
// reproduce that commit's answers after later writes (same-instant ones
// included), and the WAL's kInterval deadline flusher must sync an idle
// tail.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nepal/engine.h"
#include "obs/metrics.h"
#include "persist/durable_store.h"
#include "persist/wal.h"
#include "persist/wal_format.h"
#include "tests/testutil.h"

namespace nepal {
namespace {

namespace fs = std::filesystem;
using nepal::testing::BackendKind;
using persist::DurableOptions;
using persist::DurableStore;
using persist::FsyncPolicy;
using storage::Mutation;

Timestamp Ts(const char* s) {
  auto r = ParseTimestamp(s);
  EXPECT_TRUE(r.ok());
  return *r;
}

constexpr const char* kT0 = "2017-03-01 08:00:00";
constexpr const char* kT1 = "2017-03-01 09:00:00";
constexpr const char* kT2 = "2017-03-01 10:00:00";
constexpr const char* kT3 = "2017-03-01 11:00:00";

std::string FreshDir(const std::string& name) {
  std::string unique = "nepal_batch_" + name;
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

/// The workload both the single-op and the batched ingest perform: a VNF
/// chain built at T0, a placement migration at T1, a status update at T2
/// and a cascading node removal at T3.
struct WorkloadUids {
  Uid vnf, vfc, vm, host1, host2, placement1, placement2;
};

void IngestSingly(storage::GraphDb& db, WorkloadUids* u) {
  ASSERT_TRUE(db.SetTime(Ts(kT0)).ok());
  u->vnf = *db.AddNode("DNS", {{"name", Value("vnf")},
                               {"vnf_type", Value("dns")}});
  u->vfc = *db.AddNode("VFC", {{"name", Value("vfc")}});
  u->vm = *db.AddNode("VMWare", {{"name", Value("vm")},
                                 {"status", Value("Green")}});
  u->host1 = *db.AddNode("Host", {{"name", Value("host1")},
                                  {"serial", Value("sn-1")}});
  u->host2 = *db.AddNode("Host", {{"name", Value("host2")},
                                  {"serial", Value("sn-2")}});
  ASSERT_TRUE(db.AddEdge("composed_of", u->vnf, u->vfc,
                         {{"name", Value("c1")}}).ok());
  ASSERT_TRUE(db.AddEdge("hosted_on", u->vfc, u->vm,
                         {{"name", Value("h1")}}).ok());
  u->placement1 = *db.AddEdge("OnServer", u->vm, u->host1,
                              {{"name", Value("p1")}});

  ASSERT_TRUE(db.SetTime(Ts(kT1)).ok());
  ASSERT_TRUE(db.RemoveElement(u->placement1).ok());
  u->placement2 = *db.AddEdge("OnServer", u->vm, u->host2,
                              {{"name", Value("p2")}});

  ASSERT_TRUE(db.SetTime(Ts(kT2)).ok());
  ASSERT_TRUE(db.UpdateElement(u->vm, {{"status", Value("Red")}}).ok());

  ASSERT_TRUE(db.SetTime(Ts(kT3)).ok());
  ASSERT_TRUE(db.RemoveElement(u->host1).ok());
}

void IngestBatched(storage::GraphDb& db, WorkloadUids* u) {
  // Batch 1: the T0 build-out. Edges reference nodes added by the same
  // batch via the uids assigned during the batch's apply phase — but the
  // caller does not know them yet, so the build is split where a later
  // mutation needs an earlier one's uid.
  std::vector<Mutation> nodes;
  nodes.push_back(Mutation::SetTime(Ts(kT0)));
  nodes.push_back(Mutation::AddNode("DNS", {{"name", Value("vnf")},
                                            {"vnf_type", Value("dns")}}));
  nodes.push_back(Mutation::AddNode("VFC", {{"name", Value("vfc")}}));
  nodes.push_back(Mutation::AddNode("VMWare", {{"name", Value("vm")},
                                               {"status", Value("Green")}}));
  nodes.push_back(Mutation::AddNode("Host", {{"name", Value("host1")},
                                             {"serial", Value("sn-1")}}));
  nodes.push_back(Mutation::AddNode("Host", {{"name", Value("host2")},
                                             {"serial", Value("sn-2")}}));
  ASSERT_TRUE(db.ApplyBatch(nodes).ok());
  u->vnf = nodes[1].uid;
  u->vfc = nodes[2].uid;
  u->vm = nodes[3].uid;
  u->host1 = nodes[4].uid;
  u->host2 = nodes[5].uid;

  std::vector<Mutation> edges;
  edges.push_back(Mutation::AddEdge("composed_of", u->vnf, u->vfc,
                                    {{"name", Value("c1")}}));
  edges.push_back(Mutation::AddEdge("hosted_on", u->vfc, u->vm,
                                    {{"name", Value("h1")}}));
  edges.push_back(Mutation::AddEdge("OnServer", u->vm, u->host1,
                                    {{"name", Value("p1")}}));
  ASSERT_TRUE(db.ApplyBatch(edges).ok());
  u->placement1 = edges[2].uid;

  // Batch 2: the migration — remove and re-add under one commit.
  std::vector<Mutation> migrate;
  migrate.push_back(Mutation::SetTime(Ts(kT1)));
  migrate.push_back(Mutation::Remove(u->placement1));
  migrate.push_back(Mutation::AddEdge("OnServer", u->vm, u->host2,
                                      {{"name", Value("p2")}}));
  ASSERT_TRUE(db.ApplyBatch(migrate).ok());
  u->placement2 = migrate[2].uid;

  // Batch 3: update + cascade delete, clock advancing inside the batch.
  std::vector<Mutation> tail;
  tail.push_back(Mutation::SetTime(Ts(kT2)));
  tail.push_back(Mutation::Update(u->vm, {{"status", Value("Red")}}));
  tail.push_back(Mutation::SetTime(Ts(kT3)));
  tail.push_back(Mutation::Remove(u->host1));
  ASSERT_TRUE(db.ApplyBatch(tail).ok());
}

const std::vector<std::string>& ObservationQueries() {
  static const std::vector<std::string> queries = {
      "Retrieve P From PATHS P Where P MATCHES "
      "VNF()->[Vertical()]{1,6}->Host()",
      "Retrieve P From PATHS P Where P MATCHES VM(status='Red')",
      "AT '" + std::string(kT0) +
          "' Retrieve P From PATHS P Where P MATCHES "
          "VNF()->[Vertical()]{1,6}->Host()",
      "AT '" + std::string(kT0) + "' : '" + std::string(kT3) +
          "' Retrieve P From PATHS P Where P MATCHES "
          "VNF()->[Vertical()]{1,6}->Host()",
  };
  return queries;
}

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

class BatchTest : public ::testing::TestWithParam<BackendKind> {};

// ---- Tentpole: ApplyBatch == N single applies, byte for byte ----

TEST_P(BatchTest, ApplyBatchMatchesSingleAppliesByteForByte) {
  const std::string dir_single = FreshDir("single");
  const std::string dir_batch = FreshDir("batch");

  WorkloadUids single_uids{}, batch_uids{};
  std::string single_obs, batch_obs, single_stats, batch_stats;
  {
    auto store = DurableStore::Open(dir_single,
                                    nepal::testing::Figure3Schema(),
                                    Factory(GetParam()));
    ASSERT_TRUE(store.ok()) << store.status();
    IngestSingly((*store)->db(), &single_uids);
    single_obs = Observe((*store)->db());
    single_stats = (*store)->db().backend().stats().ToString();
  }
  {
    auto store = DurableStore::Open(dir_batch,
                                    nepal::testing::Figure3Schema(),
                                    Factory(GetParam()));
    ASSERT_TRUE(store.ok()) << store.status();
    IngestBatched((*store)->db(), &batch_uids);
    batch_obs = Observe((*store)->db());
    batch_stats = (*store)->db().backend().stats().ToString();
  }

  // Uid assignment, live results and maintained statistics agree.
  EXPECT_EQ(single_uids.vnf, batch_uids.vnf);
  EXPECT_EQ(single_uids.placement2, batch_uids.placement2);
  EXPECT_EQ(single_obs, batch_obs);
  EXPECT_EQ(single_stats, batch_stats);

  // The batched WAL (frame groups) replays byte-identically to the
  // single-append WAL on either execution backend: replay under backend X
  // must reproduce what live single-op ingestion on X answers (physical
  // row order is a per-backend property, so the baseline is per-backend).
  for (BackendKind kind :
       {BackendKind::kGraphStore, BackendKind::kRelational}) {
    schema::SchemaPtr schema = nepal::testing::Figure3Schema();
    storage::GraphDb live(schema, nepal::testing::MakeBackend(kind, schema));
    WorkloadUids live_uids{};
    IngestSingly(live, &live_uids);
    const std::string expected = Observe(live);
    for (const std::string& dir : {dir_single, dir_batch}) {
      auto reopened = DurableStore::Open(dir,
                                         nepal::testing::Figure3Schema(),
                                         Factory(kind));
      ASSERT_TRUE(reopened.ok())
          << nepal::testing::BackendName(kind) << ": " << reopened.status();
      EXPECT_EQ(Observe((*reopened)->db()), expected)
          << nepal::testing::BackendName(kind) << " replay of " << dir;
    }
  }
}

TEST_P(BatchTest, EmptyBatchIsANoOp) {
  auto net = nepal::testing::MakeTinyNetwork(GetParam());
  const uint64_t epoch = net.db->commit_epoch();
  std::vector<Mutation> empty;
  EXPECT_TRUE(net.db->ApplyBatch(empty).ok());
  EXPECT_EQ(net.db->commit_epoch(), epoch);
}

// ---- Satellite: mid-batch validation failure leaves zero state ----

TEST_P(BatchTest, MidBatchValidationFailureLeavesNoPartialState) {
  auto net = nepal::testing::MakeTinyNetwork(GetParam());
  auto& db = *net.db;
  const size_t nodes_before = db.node_count();
  const size_t edges_before = db.edge_count();
  const uint64_t epoch_before = db.commit_epoch();
  const std::string obs_before = Observe(db);

  // Mutation #2 references a nonexistent endpoint; #0 and #1 are valid and
  // must NOT be applied.
  std::vector<Mutation> batch;
  batch.push_back(Mutation::AddNode("Host", {{"name", Value("h-new")},
                                             {"serial", Value("sn-new")}}));
  batch.push_back(Mutation::AddNode("VMWare", {{"name", Value("v-new")}}));
  batch.push_back(Mutation::AddEdge("OnServer", /*source=*/999999,
                                    net.host1, {}));
  Status st = db.ApplyBatch(batch);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("batch mutation #2"), std::string::npos)
      << st.message();

  EXPECT_EQ(db.node_count(), nodes_before);
  EXPECT_EQ(db.edge_count(), edges_before);
  EXPECT_EQ(db.commit_epoch(), epoch_before);
  EXPECT_EQ(Observe(db), obs_before);

  // The uid allocator must not have moved: the next single add gets the
  // uid the failed batch would have assigned first.
  Uid probe_before = batch[0].uid;  // stays 0 — adds only write back on success
  EXPECT_EQ(probe_before, 0u);
  auto next = db.AddNode("Host", {{"name", Value("after")},
                                  {"serial", Value("sn-after")}});
  ASSERT_TRUE(next.ok());
  // Re-running the same failing batch still fails identically (no residue
  // in the unique index or elsewhere).
  std::vector<Mutation> again;
  again.push_back(Mutation::AddNode("Host", {{"name", Value("h-new")},
                                             {"serial", Value("sn-new")}}));
  again.push_back(Mutation::AddEdge("OnServer", /*source=*/999999,
                                    net.host1, {}));
  Status st2 = db.ApplyBatch(again);
  ASSERT_FALSE(st2.ok());
  EXPECT_NE(st2.message().find("batch mutation #1"), std::string::npos);
}

TEST_P(BatchTest, BatchDuplicateUniqueValidationCatchesIntraBatchClash) {
  auto net = nepal::testing::MakeTinyNetwork(GetParam());
  // "serial" is not unique in the Figure 3 schema; uid references are.
  // Removing the same element twice in one batch must fail validation on
  // the second occurrence (the overlay already saw it removed).
  std::vector<Mutation> batch;
  batch.push_back(Mutation::SetTime(net.db->Now() + 1000));
  batch.push_back(Mutation::Remove(net.rt1));
  batch.push_back(Mutation::Remove(net.rt1));
  const std::string obs_before = Observe(*net.db);
  Status st = net.db->ApplyBatch(batch);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("batch mutation #2"), std::string::npos)
      << st.message();
  EXPECT_EQ(Observe(*net.db), obs_before);
}

// ---- Epoch-pinned reads ----

TEST_P(BatchTest, PinnedReadsReproduceEarlierAnswers) {
  auto net = nepal::testing::MakeTinyNetwork(GetParam());
  auto& db = *net.db;
  const Timestamp t0 = db.Now();
  const Timestamp t1 = t0 + 1000;
  const Timestamp t2 = t1 + 1000;
  // History before the pin, so Range views have closed versions too.
  ASSERT_TRUE(db.SetTime(t1).ok());
  ASSERT_TRUE(db.UpdateElement(net.vm1, {{"status", Value("Red")}}).ok());
  // Two VMs born at t1 that the commits below mutate at that same instant.
  Uid ghost = *db.AddNode("VMWare", {{"name", Value("ghost")},
                                     {"status", Value("Green")}});
  ASSERT_TRUE(db.AddEdge("OnServer", ghost, net.host1, {}).ok());
  Uid flip = *db.AddNode("VMWare", {{"name", Value("flip")},
                                    {"status", Value("Green")}});
  ASSERT_TRUE(db.AddEdge("OnServer", flip, net.host2, {}).ok());
  const uint64_t pin = db.commit_epoch();

  const std::vector<std::string> rpes = {
      "VNF()->[Vertical()]{1,6}->Host()",
      "VM()->OnServer()->Host()",
      // Equality: at the head the graphstore reads its eq index, pinned
      // past the head it scans chains — rows agree, order may not, hence
      // the sorted comparison below.
      "VM(status='Green')",
      "Switch()->Connects()->Router()",
      "Container()",
  };
  const std::vector<storage::TimeView> views = {
      storage::TimeView::Current(),
      storage::TimeView::AsOf(t1),
      storage::TimeView::Range(t0, t2 + 1000),
  };
  auto rows = [&](const std::string& rpe_text, const storage::TimeView& view) {
    auto rpe = nql::ParseRpe(rpe_text);
    EXPECT_TRUE(rpe.ok()) << rpe.status();
    nql::RpeNode resolved = *std::move(rpe);
    nql::PlanOptions options;
    options.parallelism = 1;
    EXPECT_TRUE(
        nql::ResolveRpe(db.schema(), options.max_repetition, &resolved).ok());
    auto paths = nepal::testing::EvaluatePinned(&db, resolved, view, options);
    EXPECT_TRUE(paths.ok()) << rpe_text << ": " << paths.status();
    std::vector<std::string> out;
    if (!paths.ok()) return out;
    for (const storage::PathState& p : *paths) {
      std::string line;
      for (Uid uid : p.uids) line += std::to_string(uid) + ",";
      out.push_back(line + " " + p.valid.ToString());
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  std::vector<std::vector<std::string>> recorded;
  for (const std::string& rpe : rpes) {
    for (const storage::TimeView& view : views) {
      recorded.push_back(rows(rpe, view.WithEpoch(pin)));
    }
  }

  // Same-instant insert+delete (cascading onto its edge) and insert+update,
  // then an update and a removal at a later instant.
  ASSERT_TRUE(db.RemoveElement(ghost).ok());
  ASSERT_TRUE(db.UpdateElement(flip, {{"status", Value("Red")}}).ok());
  ASSERT_TRUE(db.SetTime(t2).ok());
  ASSERT_TRUE(db.UpdateElement(net.vm3, {{"status", Value("Red")}}).ok());
  ASSERT_TRUE(db.RemoveElement(net.rt1).ok());
  ASSERT_GT(db.commit_epoch(), pin);

  size_t i = 0;
  for (const std::string& rpe : rpes) {
    for (const storage::TimeView& view : views) {
      EXPECT_EQ(rows(rpe, view.WithEpoch(pin)), recorded[i])
          << rpe << " view kind " << static_cast<int>(view.kind());
      ++i;
    }
  }
  // The head has moved on: the ghost's placement is gone unpinned.
  EXPECT_NE(rows("VM()->OnServer()->Host()", storage::TimeView::Current()),
            recorded[3]);
}

TEST_P(BatchTest, SnapshotReadsDoNotSeeAConcurrentBatchPartially) {
  auto net = nepal::testing::MakeTinyNetwork(GetParam());
  auto& db = *net.db;
  nql::QueryEngine engine(&db);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> batches{0};
  std::thread writer([&] {
    Timestamp t = db.Now();
    int i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      t += 1000;
      std::vector<Mutation> nodes;
      nodes.push_back(Mutation::SetTime(t));
      nodes.push_back(Mutation::AddNode(
          "Host", {{"name", Value("bh" + std::to_string(i))},
                   {"serial", Value("bsn" + std::to_string(i))}}));
      nodes.push_back(Mutation::AddNode(
          "VMWare", {{"name", Value("bv" + std::to_string(i))}}));
      if (!db.ApplyBatch(nodes).ok()) break;
      // The placement edge references the uids assigned above; a reader's
      // snapshot sees the pair of nodes atomically, then the edge.
      std::vector<Mutation> edge;
      edge.push_back(
          Mutation::AddEdge("OnServer", nodes[2].uid, nodes[1].uid, {}));
      if (!db.ApplyBatch(edge).ok()) break;
      // Still at instant t: every other VM is removed (cascading onto the
      // edge), every other host renamed.
      std::vector<Mutation> churn;
      if (i % 2 == 0) {
        churn.push_back(Mutation::Remove(nodes[2].uid));
      } else {
        churn.push_back(Mutation::Update(
            nodes[1].uid, {{"name", Value("bh" + std::to_string(i) + "r")}}));
      }
      if (!db.ApplyBatch(churn).ok()) break;
      batches.fetch_add(1, std::memory_order_release);
      ++i;
    }
  });

  // Reader: every query runs while the writer holds / re-takes the write
  // path; it must keep completing queries (nonzero QPS) and every result
  // must be internally consistent.
  size_t completed = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(400);
  while (std::chrono::steady_clock::now() < deadline) {
    auto r = engine.Run(
        "Retrieve P From PATHS P Where P MATCHES VM()->OnServer()->Host()");
    ASSERT_TRUE(r.ok()) << r.status();
    ++completed;
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  EXPECT_GT(completed, 0u);
  EXPECT_GT(batches.load(std::memory_order_acquire), 0u)
      << "writer never committed — the reader starved the write path";
}

// ---- Satellite: WAL idle-tail deadline flush (in-process) ----

TEST(WalIdleTailTest, IntervalPolicySyncsDirtyTailWithinWindow) {
  const std::string dir = FreshDir("idle_tail");
  fs::create_directories(dir);
  auto writer = persist::WalWriter::Create(
      dir + "/wal-00000001.log", 1, 77,
      persist::WalWriterOptions{FsyncPolicy::kInterval,
                                /*fsync_interval_ms=*/30});
  ASSERT_TRUE(writer.ok()) << writer.status();

  obs::Counter* fsyncs =
      obs::MetricsRegistry::Global().GetCounter("nepal.wal.fsyncs");
  const uint64_t before = fsyncs->Value();
  // One append lands mid-window; no further append will ever arrive. The
  // bug this regresses: MaybeSync only synced on the NEXT append, so this
  // tail stayed dirty forever, violating the bounded-loss contract.
  ASSERT_TRUE((*writer)->Append("lone-record").ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fsyncs->Value() == before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(fsyncs->Value(), before)
      << "deadline flusher never synced the idle tail";
  ASSERT_TRUE((*writer)->Close().ok());
}

TEST(WalIdleTailTest, AppendGroupFramesReadBackAsIndividualRecords) {
  const std::string dir = FreshDir("group_frames");
  fs::create_directories(dir);
  const std::string path = dir + "/wal-00000003.log";
  {
    auto writer = persist::WalWriter::Create(
        path, 3, 77, persist::WalWriterOptions{FsyncPolicy::kAlways, 0});
    ASSERT_TRUE(writer.ok()) << writer.status();
    std::vector<std::string> group;
    for (int i = 0; i < 4; ++i) {
      persist::WalRecord rec;
      rec.type = persist::WalRecordType::kRemove;
      rec.time = 100 + i;
      rec.uid = static_cast<Uid>(10 + i);
      std::string payload;
      persist::EncodeWalRecord(rec, &payload);
      group.push_back(std::move(payload));
    }
    ASSERT_TRUE((*writer)->AppendGroup(group).ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  // A group is indistinguishable from N single appends on disk.
  std::vector<Uid> seen;
  auto read = persist::ReadWalSegment(
      path, 3, 77, [&](const persist::WalRecord& rec) {
        seen.push_back(rec.uid);
        return Status::OK();
      });
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_FALSE(read->torn_tail);
  EXPECT_EQ(seen, (std::vector<Uid>{10, 11, 12, 13}));
}

INSTANTIATE_TEST_SUITE_P(
    Backends, BatchTest,
    ::testing::Values(BackendKind::kGraphStore, BackendKind::kRelational),
    [](const ::testing::TestParamInfo<BackendKind>& info) {
      return nepal::testing::BackendName(info.param);
    });

}  // namespace
}  // namespace nepal
