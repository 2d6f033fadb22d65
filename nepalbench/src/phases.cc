#include "phases.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <thread>

#include "common/rng.h"
#include "nepal/executor.h"
#include "nepal/parser.h"
#include "nepal/plan.h"
#include "obs/metrics.h"

namespace nepalbench {

using nepal::Status;
using nepal::Uid;
using nepal::Value;
using nepal::storage::Mutation;

namespace {

constexpr size_t kSpanCapacity = 1u << 20;
constexpr size_t kLiveWarmupBatches = 100;
constexpr auto kVisibleDeadline = std::chrono::seconds(10);
/// The live phase ends here even if the reader is short of samples (the
/// shortfall then fails the run).
constexpr double kLiveHardCapSeconds = 60;
constexpr const char* kVmClasses[] = {"VMWare", "OnMetal", "KvmVM"};

double SecondsSince(Clock::time_point t) {
  return MsBetween(t, Clock::now()) / 1000.0;
}

nepal::storage::TimeView ViewFor(const nepal::nql::Query& q) {
  const auto& decl = q.range_vars[0];
  const std::optional<nepal::nql::TimeSpec>& spec =
      decl.at.has_value() ? decl.at : q.at;
  if (!spec.has_value()) return nepal::storage::TimeView::Current();
  if (spec->is_range()) {
    return nepal::storage::TimeView::Range(spec->start, *spec->end);
  }
  return nepal::storage::TimeView::AsOf(spec->start);
}

/// The traced decomposition of one single-variable MATCHES query: the
/// benchmark calls each layer's public function itself — ParseQuery,
/// ResolveRpe + PlanMatch, then EvaluateMatch through a TracingExecutor —
/// under the same shared database lock a locked Run holds.
Status Decompose(nepal::storage::GraphDb& db, const std::string& query,
                 SpanRecorder* rec) {
  uint32_t span = rec->Open("parser.parse");
  auto parsed = nepal::nql::ParseQuery(query);
  rec->Close(span);
  if (!parsed.ok()) return parsed.status();
  const nepal::nql::Query& q = *parsed;
  const nepal::nql::Predicate* match = nullptr;
  for (const nepal::nql::Predicate& pred : q.where) {
    if (pred.kind == nepal::nql::Predicate::Kind::kMatches) match = &pred;
  }
  if (match == nullptr || q.range_vars.size() != 1) {
    return Status::Unsupported("traced reads need one MATCHES variable");
  }
  const nepal::storage::TimeView view = ViewFor(q);
  const nepal::nql::PlanOptions plan = PinnedEngineOptions().plan;

  std::shared_lock<std::shared_mutex> lock(db.mutex());
  span = rec->Open("optimizer.plan");
  nepal::nql::RpeNode rpe = match->rpe;
  Status st = nepal::nql::ResolveRpe(db.schema(), plan.max_repetition, &rpe);
  if (st.ok()) {
    st = nepal::nql::PlanMatch(rpe, db.backend(), plan, view).status();
  }
  rec->Close(span);
  if (!st.ok()) return st;

  TracingExecutor exec(db.backend().CreateExecutor(), rec);
  span = rec->Open("executor.evaluate");
  auto paths = nepal::nql::EvaluateMatch(exec, db.backend(), rpe, view, plan);
  rec->Close(span);
  return paths.status();
}

/// One read through the public Run, returning the result's fingerprint.
/// With a recorder, the read becomes a traced request: the timed Run, then
/// (with the result already released, so it does not weigh on the
/// decomposition) the per-layer calls above. `run_ms` receives the Run
/// latency and `op_ms` the whole operation's wall time.
nepal::Result<Fingerprint> Read(const nepal::nql::QueryEngine& engine,
                                nepal::storage::GraphDb& db, Bucket bucket,
                                const Instance& inst, SpanRecorder* rec,
                                double* run_ms, double* op_ms) {
  const std::string& query = inst.query;
  const auto t0 = Clock::now();
  uint32_t span = 0;
  if (rec != nullptr) {
    rec->BeginRequest(bucket, inst.kind);
    span = rec->Open("engine.run");
  }
  auto result = engine.Run(query);
  *run_ms = rec != nullptr ? static_cast<double>(rec->Close(span)) / 1e6
                           : MsBetween(t0, Clock::now());
  if (!result.ok()) {
    if (rec != nullptr) rec->EndRequest();
    *op_ms = MsBetween(t0, Clock::now());
    return result.status();
  }
  const Fingerprint fp = FingerprintOf(*result);
  if (rec != nullptr) {
    { auto release = std::move(result); }  // free the rows before decomposing
    rec->Count("result.rows", static_cast<double>(fp.rows));
    double dropped = 0;
    for (const auto& op : engine.LastQueryStats().operators) {
      dropped += static_cast<double>(op.dedup_dropped);
    }
    rec->Count("executor.dedup_dropped", dropped);
    Status st = Decompose(db, query, rec);
    rec->EndRequest();
    if (!st.ok()) return st;
  }
  *op_ms = MsBetween(t0, Clock::now());
  return fp;
}

ReadPhaseResult RunReadPhase(const World& world,
                             const std::vector<Instance>& instances,
                             const PhaseSpec& spec, Outcome* outcome) {
  ReadPhaseResult r;
  if (spec.trace) {
    r.recorder = std::make_unique<SpanRecorder>("reads", kSpanCapacity);
  }
  const Bucket buckets[] = {kGraphstore, kRelational};
  auto check = [&](const Instance& inst, Bucket b,
                   const nepal::Result<Fingerprint>& result) {
    outcome->Attempt();
    const char* backend = b == kGraphstore ? "graphstore" : "relational";
    if (!result.ok()) {
      outcome->Fail(std::string(backend) + " error: " +
                    result.status().ToString() + " in " + inst.query);
    } else if (!(*result == inst.expected)) {
      outcome->Fail(std::string(backend) + " rows differ from set-up in " +
                    inst.query);
    }
  };

  // Warm-up pass: every instance once per backend, checked, not timed.
  for (const Instance& inst : instances) {
    for (Bucket b : buckets) {
      auto result = world.CopyFor(inst, b).engine->Run(inst.query);
      if (result.ok()) {
        check(inst, b, FingerprintOf(*result));
      } else {
        check(inst, b, result.status());
      }
    }
  }

  const auto start = Clock::now();
  const double untraced_s = spec.trace ? spec.seconds / 2 : spec.seconds;
  size_t traced_passes = 0;
  size_t closed = 0;  // segments with min_samples on both backends
  for (ReadFigures& fig : r.by_bucket) fig.segments.emplace_back();
  while (true) {
    const bool tracing = spec.trace && SecondsSince(start) >= untraced_s;
    SpanRecorder* rec = tracing ? r.recorder.get() : nullptr;
    for (const Instance& inst : instances) {
      for (Bucket b : buckets) {
        const Copy& copy = world.CopyFor(inst, b);
        double run_ms = 0, op_ms = 0;
        auto result =
            Read(*copy.engine, *copy.net.db, b, inst, rec, &run_ms, &op_ms);
        check(inst, b, result);
        ReadFigures& fig = r.by_bucket[b];
        fig.segments.back().run_ms.push_back(run_ms);
        fig.segments.back().busy_s += run_ms / 1000.0;
        fig.run_ms.push_back(run_ms);
        (inst.history ? fig.history_ms : fig.current_ms).push_back(run_ms);
        (tracing ? fig.traced_op_ms : fig.untraced_op_ms).push_back(op_ms);
        fig.by_kind_ms[inst.kind].push_back(run_ms);
      }
    }
    ++r.passes;
    if (tracing) ++traced_passes;
    bool segment_done = true;
    for (const ReadFigures& fig : r.by_bucket) {
      segment_done &= fig.segments.back().run_ms.size() >= spec.min_samples;
    }
    if (!segment_done) continue;
    ++closed;
    if (SecondsSince(start) >= spec.seconds &&
        closed >= spec.min_segments && (!spec.trace || traced_passes > 0)) {
      break;
    }
    for (ReadFigures& fig : r.by_bucket) fig.segments.emplace_back();
  }
  return r;
}

uint64_t WalBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0) total += entry.file_size(ec);
  }
  return total;
}

uint64_t CounterValue(const std::string& name) {
  return nepal::obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

/// Quantile of the observations a histogram gained between two snapshots.
double DeltaQuantile(const nepal::obs::Histogram::Snapshot& before,
                     const nepal::obs::Histogram::Snapshot& after, double q) {
  nepal::obs::Histogram::Snapshot delta = after;
  for (size_t i = 0; i < delta.counts.size() && i < before.counts.size();
       ++i) {
    delta.counts[i] -= before.counts[i];
  }
  delta.count -= before.count;
  delta.sum -= before.sum;
  return static_cast<double>(delta.Quantile(q));
}

/// The next batch of inventory churn: a transaction-time advance, VM status
/// updates, and now and then a VM migration or a VFC scale-out/in. Every
/// added element gets a pinned uid, so the writer knows the batch's effect
/// before it commits and no batch depends on another's outcome.
std::vector<Mutation> NextChurnBatch(LiveSystem& live, nepal::Rng& rng) {
  std::vector<Mutation> batch;
  batch.push_back(Mutation::SetTime(live.next_time));
  live.next_time += 1000000;  // one second of transaction time per batch
  for (int i = 0; i < 4; ++i) {
    const Uid vm = live.vms[rng.Below(live.vms.size())];
    const char* status = rng.Chance(0.7)   ? "Green"
                         : rng.Chance(0.5) ? "Yellow"
                                           : "Red";
    batch.push_back(Mutation::Update(vm, {{"status", Value(status)}}));
  }
  Uid migrated = 0;
  if (rng.Chance(0.3)) {
    migrated = live.vms[rng.Below(live.vms.size())];
    const Uid host = live.compute_hosts[rng.Below(live.compute_hosts.size())];
    batch.push_back(Mutation::Remove(live.placement[migrated]));
    Mutation edge = Mutation::AddEdge("on_server", migrated, host, {});
    edge.forced_uid = live.next_uid++;
    live.placement[migrated] = edge.forced_uid;
    batch.push_back(std::move(edge));
  }
  if (rng.Chance(0.2)) {
    if (!live.scaled.empty() && rng.Chance(0.4) &&
        live.scaled.back() != migrated) {
      const Uid vm = live.scaled.back();
      live.scaled.pop_back();
      live.vms.erase(std::find(live.vms.begin(), live.vms.end(), vm));
      live.placement.erase(vm);
      batch.push_back(Mutation::Remove(vm));
    } else {
      const Uid vm = live.next_uid++;
      Mutation node = Mutation::AddNode(
          kVmClasses[rng.Below(3)],
          {{"name", Value("bench-vm-" + std::to_string(vm))},
           {"status", Value("Green")}});
      node.forced_uid = vm;
      batch.push_back(std::move(node));
      Mutation composed = Mutation::AddEdge(
          "on_vm", live.vfcs[rng.Below(live.vfcs.size())], vm, {});
      composed.forced_uid = live.next_uid++;
      batch.push_back(std::move(composed));
      Mutation placed = Mutation::AddEdge(
          "on_server", vm,
          live.compute_hosts[rng.Below(live.compute_hosts.size())], {});
      placed.forced_uid = live.next_uid++;
      live.placement[vm] = placed.forced_uid;
      batch.push_back(std::move(placed));
      live.vms.push_back(vm);
      live.scaled.push_back(vm);
    }
  }
  return batch;
}

}  // namespace

void Outcome::Fail(const std::string& message) {
  ++failed;
  if (messages.size() < 8) messages.push_back(message);
}

void Outcome::Merge(const Outcome& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& m : other.messages) {
    if (messages.size() < 8) messages.push_back(m);
  }
}

ReadPhaseResult RunLookupPhase(const World& world, const PhaseSpec& spec,
                               Outcome* outcome) {
  return RunReadPhase(world, world.lookup, spec, outcome);
}

ReadPhaseResult RunDeepPhase(const World& world, const PhaseSpec& spec,
                             Outcome* outcome) {
  return RunReadPhase(world, world.deep, spec, outcome);
}

LivePhaseResult RunLivePhase(World& world, const PhaseSpec& spec,
                             double rate_per_s, size_t min_served,
                             uint64_t seed, Outcome* outcome) {
  LiveSystem& live = *world.live;
  nepal::persist::DurableStore& primary = *live.primary;
  nepal::replication::ReplicaStore& follower = *live.follower;
  nepal::storage::GraphDb& pdb = primary.db();
  nepal::obs::Histogram* repair_ns =
      nepal::obs::MetricsRegistry::Global().GetHistogram(
          "nepal.views.repair_ns");

  LivePhaseResult r;
  if (spec.trace) {
    r.writer_recorder = std::make_unique<SpanRecorder>("writer", kSpanCapacity);
  }
  TracingWriteLog forwarder(&primary, r.writer_recorder.get());

  std::atomic<bool> warm{false};
  std::atomic<bool> writer_done{false};
  std::atomic<size_t> served{0};

  // ---- Visibility poller ----
  struct Pending {
    size_t index;
    Clock::time_point due;
    Clock::time_point committed;
    uint64_t token;
  };
  std::mutex queue_mu;
  std::condition_variable queue_cv;
  std::deque<Pending> queue;
  bool queue_closed = false;
  Outcome poller_outcome;
  std::thread poller([&] {
    while (true) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(queue_mu);
        queue_cv.wait(lock, [&] { return !queue.empty() || queue_closed; });
        if (queue.empty()) return;
        p = queue.front();
        queue.pop_front();
      }
      const auto deadline = p.committed + kVisibleDeadline;
      while (true) {
        const uint64_t applied = follower.records_applied();
        const uint64_t appended = primary.records_appended();
        if (appended > applied) {
          r.max_lag_records = std::max(r.max_lag_records, appended - applied);
        }
        const auto now = Clock::now();
        if (applied >= p.token) {
          if (p.index >= kLiveWarmupBatches) {
            r.visible_ms.push_back(MsBetween(p.due, now));
            r.ship_apply_ms.push_back(MsBetween(p.committed, now));
          }
          break;
        }
        if (now > deadline) {
          poller_outcome.Fail("batch " + std::to_string(p.index) +
                              " not visible on the follower");
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  });

  // ---- Reader: lookups on primary and follower, alternating with SERVE
  // VIEW, in a fixed instance order. ----
  Outcome reader_outcome;
  std::thread reader([&] {
    const std::string serve = std::string("SERVE VIEW ") + kViewName;
    size_t i = 0;
    for (int step = 0; !writer_done.load(std::memory_order_acquire);
         step = (step + 1) % 4) {
      reader_outcome.Attempt();
      const bool record = warm.load(std::memory_order_acquire);
      if (step % 2 == 1) {
        const auto t0 = Clock::now();
        auto result = live.primary_engine->Run(serve);
        const double ms = MsBetween(t0, Clock::now());
        if (!result.ok()) {
          reader_outcome.Fail("SERVE VIEW: " + result.status().ToString());
        } else if (record) {
          r.served_ms.push_back(ms);
          served.fetch_add(1, std::memory_order_release);
        }
        continue;
      }
      const Instance& inst = world.lookup[i % world.lookup.size()];
      const Bucket b = step == 0 ? kRelational : kGraphstore;
      if (step == 2) ++i;
      const nepal::nql::QueryEngine& engine =
          b == kRelational ? *live.primary_engine : *live.follower_engine;
      nepal::storage::GraphDb& db = b == kRelational ? pdb : follower.db();
      double run_ms = 0, op_ms = 0;
      auto result = Read(engine, db, b, inst, nullptr, &run_ms, &op_ms);
      if (!result.ok()) {
        reader_outcome.Fail("live lookup: " + result.status().ToString() +
                            " in " + inst.query);
        continue;
      }
      if (!record) continue;
      r.lookup_ms[b].push_back(run_ms);
    }
  });

  // ---- Open-loop writer (this thread) ----
  nepal::Rng rng(seed * 0x2545f4914f6cdd1dull + 99);
  Clock::time_point timed_start{};
  uint64_t wal_start = 0, shipped_start = 0, repairs_start = 0,
           rebuilds_start = 0, fsyncs_start = 0;
  nepal::obs::Histogram::Snapshot repair_start;
  const std::string shipped_counter =
      "nepal.replication.follower.f1.bytes_shipped";
  if (spec.trace) pdb.set_write_log(&forwarder);

  auto keep_going = [&](size_t i) {
    if (i < kLiveWarmupBatches) return true;
    if (i == kLiveWarmupBatches) {
      timed_start = Clock::now();
      wal_start = WalBytes(primary.dir());
      shipped_start = CounterValue(shipped_counter);
      repairs_start = CounterValue("nepal.views.repairs");
      rebuilds_start = CounterValue("nepal.views.rebuilds");
      fsyncs_start = CounterValue("nepal.wal.fsyncs");
      repair_start = repair_ns->Snap();
      warm.store(true, std::memory_order_release);
    }
    const double elapsed = SecondsSince(timed_start);
    if (elapsed >= kLiveHardCapSeconds) return false;
    return elapsed < spec.seconds ||
           i - kLiveWarmupBatches < spec.min_samples ||
           served.load(std::memory_order_acquire) < min_served;
  };
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  auto send = [&](size_t i) {
    std::vector<Mutation> batch = NextChurnBatch(live, rng);
    outcome->Attempt();
    SpanRecorder* rec = r.writer_recorder.get();
    uint32_t span = 0;
    if (rec != nullptr) {
      rec->BeginRequest(kWrites, "churn");
      span = rec->Open("graphdb.apply_batch");
    }
    Status st = pdb.ApplyBatch(batch);
    if (rec != nullptr) {
      rec->Close(span);
      rec->EndRequest();
    }
    const auto committed = Clock::now();
    if (!st.ok()) {
      outcome->Fail("commit: " + st.ToString());
      return;
    }
    if (i >= kLiveWarmupBatches) {
      r.mutations += batch.size() - 1;  // SetTime is not a mutation
    }
    const Clock::time_point due = DueTime(start, rate_per_s, i);
    std::lock_guard<std::mutex> lock(queue_mu);
    queue.push_back(Pending{i, due, committed, primary.records_appended()});
    queue_cv.notify_one();
  };
  std::vector<OpenLoopOp> ops = RunOpenLoop(
      rate_per_s, start, keep_going, send, [] { return Clock::now(); },
      [](Clock::time_point t) { std::this_thread::sleep_until(t); });
  r.seconds = SecondsSince(timed_start);
  // Detach the forwarder before anything can destroy the store.
  if (spec.trace) pdb.set_write_log(&primary);

  {
    std::lock_guard<std::mutex> lock(queue_mu);
    queue_closed = true;
  }
  queue_cv.notify_all();
  poller.join();
  writer_done.store(true, std::memory_order_release);
  reader.join();
  outcome->Merge(poller_outcome);
  outcome->Merge(reader_outcome);
  if (ops.size() > kLiveWarmupBatches) {
    r.batches.assign(ops.begin() + kLiveWarmupBatches, ops.end());
  }
  r.wal_bytes = WalBytes(primary.dir()) - wal_start;
  r.shipped_bytes = CounterValue(shipped_counter) - shipped_start;
  r.repairs = CounterValue("nepal.views.repairs") - repairs_start;
  r.rebuilds = CounterValue("nepal.views.rebuilds") - rebuilds_start;
  r.fsyncs = CounterValue("nepal.wal.fsyncs") - fsyncs_start;
  const nepal::obs::Histogram::Snapshot repair_end = repair_ns->Snap();
  r.repair_p50_us = DeltaQuantile(repair_start, repair_end, 0.5) / 1e3;
  r.repair_p99_us = DeltaQuantile(repair_start, repair_end, 0.99) / 1e3;
  r.reconnects = follower.reconnects();

  // ---- End-of-run checks, with the writer stopped and every batch
  // visible on the follower. ----
  const std::string verify = std::string("Retrieve P From PATHS P Where P "
                                         "MATCHES ") + kViewRpe;
  outcome->Attempt();
  auto on_primary = live.cold_engine->Run(verify);
  auto on_follower = live.follower_engine->Run(verify);
  if (!on_primary.ok() || !on_follower.ok() ||
      SerializeRows(*on_primary) != SerializeRows(*on_follower)) {
    outcome->Fail("primary and follower disagree on the verification query");
  }
  outcome->Attempt();
  Status fresh = live.catalog->WaitUntilFresh(kViewName, pdb.commit_epoch(),
                                              std::chrono::seconds(10));
  auto served_rows =
      live.primary_engine->Run(std::string("SERVE VIEW ") + kViewName);
  if (!fresh.ok() || !served_rows.ok() || !on_primary.ok() ||
      SerializeRows(*served_rows) != SerializeRows(*on_primary)) {
    outcome->Fail("served view differs from cold evaluation");
  }
  return r;
}

}  // namespace nepalbench
