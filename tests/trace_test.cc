// Span-tracing suite (obs/trace.h): ring eviction order, the zero-cost
// sampling-off fast path, partition invariance of the read-path span
// tree, and commit-to-visible joining — a follower connected through a
// listener reports the primary's trace id and its wire/decode/apply
// segments land in the primary's own span tree, and the 0x03 wire
// annotation carries the trace id and root span through the frame codec.

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nepal/engine.h"
#include "obs/trace.h"
#include "persist/durable_store.h"
#include "replication/listener.h"
#include "replication/replica_store.h"
#include "replication/wire.h"
#include "tests/testutil.h"

namespace nepal {
namespace {

namespace fs = std::filesystem;
using nepal::testing::BackendKind;
using obs::Tracer;

std::string FreshDir(const std::string& name) {
  std::string unique = "nepal_trace_" + name;
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  if (info != nullptr) {
    unique += "_";
    unique += info->name();
  }
  fs::path dir = fs::path(::testing::TempDir()) / unique;
  fs::remove_all(dir);
  return dir.string();
}

persist::BackendFactory Factory() {
  return [](schema::SchemaPtr s) {
    return nepal::testing::MakeBackend(BackendKind::kGraphStore,
                                       std::move(s));
  };
}

Tracer::Options TraceAll(size_t ring = 32) {
  Tracer::Options options;
  options.sample_rate = 1.0;
  options.ring_capacity = ring;
  return options;
}

/// Restores the global tracer to its off state when a test exits.
struct TracerGuard {
  ~TracerGuard() { Tracer::Global().Configure(Tracer::Options{}); }
};

std::vector<storage::Mutation> HostBatch(size_t n, const std::string& tag) {
  std::vector<storage::Mutation> muts;
  for (size_t i = 0; i < n; ++i) {
    muts.push_back(storage::Mutation::AddNode(
        "Host", {{"name", Value("h_" + tag + "_" + std::to_string(i))},
                 {"serial", Value("sn_" + tag + "_" + std::to_string(i))}}));
  }
  return muts;
}

/// The newest completed trace with the given root name, or nullptr.
std::shared_ptr<obs::Trace> NewestTrace(const std::string& root) {
  auto completed = Tracer::Global().Completed();
  for (auto it = completed.rbegin(); it != completed.rend(); ++it) {
    if ((*it)->root_name() == root) return *it;
  }
  return nullptr;
}

TEST(TraceRingTest, EvictsOldestFirst) {
  TracerGuard guard;
  Tracer::Global().Configure(TraceAll(/*ring=*/3));
  std::vector<uint64_t> ids;
  for (int i = 0; i < 5; ++i) {
    auto trace = Tracer::Global().StartTrace("t");
    ASSERT_NE(trace, nullptr);
    ids.push_back(trace->trace_id());
    Tracer::Global().Finish(trace);
  }
  auto completed = Tracer::Global().Completed();
  ASSERT_EQ(completed.size(), 3u);
  // Oldest-first ring contents: the first two traces were evicted.
  EXPECT_EQ(completed[0]->trace_id(), ids[2]);
  EXPECT_EQ(completed[1]->trace_id(), ids[3]);
  EXPECT_EQ(completed[2]->trace_id(), ids[4]);
  EXPECT_EQ(Tracer::Global().Find(ids[0]), nullptr);
  EXPECT_NE(Tracer::Global().Find(ids[4]), nullptr);
  const Tracer::Stats stats = Tracer::Global().stats();
  EXPECT_EQ(stats.started, 5u);
  EXPECT_EQ(stats.kept, 5u);  // all were sampled; eviction is not a drop
}

TEST(TraceSamplingTest, OffModeRecordsNothing) {
  TracerGuard guard;
  Tracer::Global().Configure(Tracer::Options{});  // off
  EXPECT_FALSE(Tracer::Global().enabled());
  EXPECT_EQ(Tracer::Global().StartTrace("t"), nullptr);

  // Drive both instrumented hot paths: a batched write and a query.
  auto net = nepal::testing::MakeTinyNetwork(BackendKind::kGraphStore);
  std::vector<storage::Mutation> muts = HostBatch(4, "off");
  ASSERT_TRUE(net.db->ApplyBatch(muts).ok());
  nql::QueryEngine engine(net.db.get());
  auto result = engine.Run(
      "Retrieve P From PATHS P Where P MATCHES VM()->OnServer()->Host()");
  ASSERT_TRUE(result.ok());

  const Tracer::Stats stats = Tracer::Global().stats();
  EXPECT_EQ(stats.started, 0u);
  EXPECT_EQ(stats.spans, 0u);
  EXPECT_TRUE(Tracer::Global().Completed().empty());
}

TEST(TraceQueryTest, SpanTreeShapeIsParallelismInvariant) {
  TracerGuard guard;
  auto net = nepal::testing::MakeTinyNetwork(BackendKind::kGraphStore);
  const std::string query =
      "Retrieve P From PATHS P Where P MATCHES "
      "VNF()->[Vertical()]{1,6}->Host()";

  // (parent, name) pairs in span-id order fully describe the tree shape;
  // durations and shard counts are the only things allowed to differ.
  auto run_shape = [&](int parallelism) {
    Tracer::Global().Configure(TraceAll());
    nql::EngineOptions options;
    options.plan.parallelism = parallelism;
    nql::QueryEngine engine(net.db.get(), options);
    auto result = engine.Run(query);
    EXPECT_TRUE(result.ok());
    EXPECT_FALSE(result->rows.empty());
    auto trace = NewestTrace("query");
    EXPECT_NE(trace, nullptr);
    std::vector<std::pair<uint32_t, std::string>> shape;
    if (trace != nullptr) {
      for (const obs::SpanView& s : trace->Snapshot()) {
        shape.emplace_back(s.parent, s.name);
      }
    }
    return shape;
  };

  const auto serial = run_shape(1);
  const auto parallel = run_shape(4);
  EXPECT_EQ(serial, parallel);
  // Sanity: the tree decomposes into parse + execute + operator spans.
  ASSERT_GE(serial.size(), 3u);
  EXPECT_EQ(serial[0].second, "query");
  const auto has = [&](const std::string& name) {
    return std::any_of(serial.begin(), serial.end(),
                       [&](const auto& p) { return p.second == name; });
  };
  EXPECT_TRUE(has("parse"));
  EXPECT_TRUE(has("execute"));
}

TEST(TraceCommitTest, ApplyBatchDecomposesCommitLatency) {
  TracerGuard guard;
  const std::string dir = FreshDir("commit");
  persist::DurableOptions options;
  options.fsync_policy = persist::FsyncPolicy::kAlways;
  auto store = persist::DurableStore::Open(
      dir, nepal::testing::Figure3Schema(), Factory(), options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->db().SetTime(1500000000000000).ok());

  Tracer::Global().Configure(TraceAll());
  std::vector<storage::Mutation> muts = HostBatch(8, "c");
  ASSERT_TRUE((*store)->db().ApplyBatch(muts).ok());

  auto trace = NewestTrace("apply_batch");
  ASSERT_NE(trace, nullptr);
  std::vector<std::string> names;
  for (const obs::SpanView& s : trace->Snapshot()) names.push_back(s.name);
  for (const char* expect :
       {"lock_wait", "validate", "apply", "wal.encode", "wal.write",
        "wal.fsync", "publish"}) {
    EXPECT_TRUE(std::find(names.begin(), names.end(), expect) != names.end())
        << "missing span " << expect << " in:\n"
        << trace->ToText();
  }
  store->reset();
  fs::remove_all(dir);
}

TEST(TraceJoinTest, FollowerJoinsPrimaryTraceInProcess) {
  TracerGuard guard;
  const std::string pdir = FreshDir("join_p");
  const std::string fdir = FreshDir("join_f");
  persist::DurableOptions primary_options;
  primary_options.fsync_policy = persist::FsyncPolicy::kAlways;
  auto primary = persist::DurableStore::Open(
      pdir, nepal::testing::Figure3Schema(), Factory(), primary_options);
  ASSERT_TRUE(primary.ok());
  ASSERT_TRUE((*primary)->db().SetTime(1500000000000000).ok());

  auto listener = replication::ReplicationListener::Start(
      **primary, nepal::testing::FreshSocket("join"));
  ASSERT_TRUE(listener.ok()) << listener.status();
  auto follower = nepal::testing::ConnectFollower(
      fdir, BackendKind::kGraphStore, (*listener)->address());
  ASSERT_TRUE(follower.ok()) << follower.status();

  Tracer::Global().Configure(TraceAll());
  std::vector<storage::Mutation> muts = HostBatch(8, "j");
  ASSERT_TRUE((*primary)->db().ApplyBatch(muts).ok());
  auto trace = NewestTrace("apply_batch");
  ASSERT_NE(trace, nullptr);
  const uint64_t trace_id = trace->trace_id();

  // The follower's apply loop joins the primary's trace: wait until its
  // last traced apply reports that very id.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while ((*follower)->last_traced_apply().trace_id != trace_id &&
         std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE((*follower)->status().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto traced = (*follower)->last_traced_apply();
  ASSERT_EQ(traced.trace_id, trace_id);
  EXPECT_GT(traced.frames, 0u);

  // Same-process join: the follower's segments landed in the primary's
  // own span tree, so one trace now decomposes commit-to-visible end to
  // end.
  std::vector<std::string> names;
  for (const obs::SpanView& s : trace->Snapshot()) names.push_back(s.name);
  for (const char* expect : {"wal.fsync", "publish", "wire",
                             "replica.decode", "replica.apply"}) {
    EXPECT_TRUE(std::find(names.begin(), names.end(), expect) != names.end())
        << "missing span " << expect << " in:\n"
        << trace->ToText();
  }

  follower->reset();
  listener->reset();
  primary->reset();
  fs::remove_all(pdir);
  fs::remove_all(fdir);
}

TEST(TraceJoinTest, WireAnnotationRoundTripsThroughTheFrameCodec) {
  TracerGuard guard;
  const std::string dir = FreshDir("wire");
  auto primary = persist::DurableStore::Open(
      dir, nepal::testing::Figure3Schema(), Factory(), {});
  ASSERT_TRUE(primary.ok());
  ASSERT_TRUE((*primary)->db().SetTime(1500000000000000).ok());
  auto sub = (*primary)->Subscribe();
  ASSERT_TRUE(sub.ok()) << sub.status();

  Tracer::Global().Configure(TraceAll());
  std::vector<storage::Mutation> muts = HostBatch(4, "w");
  ASSERT_TRUE((*primary)->db().ApplyBatch(muts).ok());
  auto trace = NewestTrace("apply_batch");
  ASSERT_NE(trace, nullptr);

  // Every shipped frame crosses a socketpair through the codec; untraced
  // frames go out as 0x02, the traced commit's as 0x03.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  replication::OwnedFd out_fd(sv[0]);
  replication::OwnedFd in_fd(sv[1]);
  persist::WalShipFrame sent;
  bool traced_sent = false;
  while (!traced_sent) {
    auto next = (*sub)->Next(&sent, std::chrono::milliseconds(1000));
    ASSERT_TRUE(next.ok()) << next.status();
    ASSERT_TRUE(*next) << "the traced commit never reached the stream";
    traced_sent = sent.trace_id != 0;
    std::string bytes;
    replication::wire::AppendFrame(sent, &bytes);
    EXPECT_EQ(static_cast<uint8_t>(bytes[0]),
              traced_sent ? replication::wire::kFrameTagTraced
                          : replication::wire::kFrameTag);
    ASSERT_TRUE(
        replication::WriteFully(out_fd.get(), bytes.data(), bytes.size())
            .ok());
  }

  // Decode until the annotated frame arrives: it must carry the primary's
  // trace id and its root span id (always 1).
  persist::WalShipFrame frame;
  bool found = false;
  while (!found) {
    auto got = replication::wire::ReadFrame(in_fd.get(), &frame,
                                            std::chrono::milliseconds(1000));
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(*got) << "no trace-annotated frame arrived on the wire";
    found = frame.trace_id != 0;
  }
  EXPECT_EQ(frame.trace_id, trace->trace_id());
  EXPECT_EQ(frame.root_span, trace->root_span());
  EXPECT_EQ(frame.shipped_at_us, sent.shipped_at_us);
  EXPECT_GT(frame.shipped_at_us, 0);
  EXPECT_EQ(frame.segment_seq, sent.segment_seq);
  EXPECT_EQ(frame.payload, sent.payload);
  EXPECT_FALSE(frame.payload.empty());

  (*sub)->Cancel();
  primary->reset();
  fs::remove_all(dir);
}

TEST(TraceExportTest, JsonListsKeptTraces) {
  TracerGuard guard;
  Tracer::Global().Configure(TraceAll(/*ring=*/4));
  auto trace = Tracer::Global().StartTrace("export");
  ASSERT_NE(trace, nullptr);
  const uint32_t child = trace->OpenSpan(trace->root_span(), "step");
  trace->CloseSpan(child);
  Tracer::Global().Finish(trace);

  const std::string json = Tracer::Global().ExportJson();
  EXPECT_NE(json.find("\"traces\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"root\":\"export\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"step\""), std::string::npos) << json;
}

}  // namespace
}  // namespace nepal
