#include "views/view_catalog.h"

#include <algorithm>
#include <deque>
#include <shared_mutex>
#include <utility>

#include "nepal/executor.h"
#include "nepal/snapshot.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/wal_format.h"

namespace nepal::views {

namespace {

obs::Counter* RepairsCounter() {
  return obs::MetricsRegistry::Global().GetCounter("nepal.views.repairs");
}
obs::Counter* RebuildsCounter() {
  return obs::MetricsRegistry::Global().GetCounter("nepal.views.rebuilds");
}
obs::Counter* SkippedCounter() {
  return obs::MetricsRegistry::Global().GetCounter(
      "nepal.views.skipped_records");
}
obs::Histogram* RepairHistogram() {
  return obs::MetricsRegistry::Global().GetHistogram(
      "nepal.views.repair_ns", obs::DefaultLatencyBucketsNs());
}

}  // namespace

ViewCatalog::ViewCatalog(persist::DurableStore* store, nql::PlanOptions plan)
    : store_(store), db_(&store->db()), plan_(plan) {}

Result<std::unique_ptr<ViewCatalog>> ViewCatalog::Open(
    persist::DurableStore* store, nql::PlanOptions plan) {
  // Repairs run serially on the maintenance thread; parallel shard merges
  // would only add canonicalization passes the snapshot already does.
  plan.parallelism = 1;
  auto catalog =
      std::unique_ptr<ViewCatalog>(new ViewCatalog(store, plan));
  NEPAL_ASSIGN_OR_RETURN(catalog->sub_, store->Subscribe());
  ViewCatalog* c = catalog.get();
  catalog->drain_.Start(
      [c](const std::atomic<bool>& stop) { c->MaintenanceLoop(stop); },
      [c] {
        std::shared_ptr<persist::WalSubscription> sub;
        {
          std::lock_guard<std::mutex> lock(c->mu_);
          sub = c->sub_;
        }
        if (sub != nullptr) sub->Cancel();
      });
  return catalog;
}

ViewCatalog::~ViewCatalog() { drain_.Stop(); }

Status ViewCatalog::CreateView(const std::string& name, nql::RpeNode rpe,
                               std::optional<Timestamp> as_of) {
  if (name.empty()) {
    return Status::InvalidArgument("view name must not be empty");
  }
  auto view = std::make_shared<View>();
  view->name = name;
  view->as_of = as_of;
  rpe = nql::Normalize(std::move(rpe));
  view->canonical = rpe.ToString();
  view->resolved = std::move(rpe);
  NEPAL_RETURN_NOT_OK(
      nql::ResolveRpe(db_->schema(), plan_.max_repetition, &view->resolved));
  const storage::TimeView base = as_of ? storage::TimeView::AsOf(*as_of)
                                       : storage::TimeView::Current();
  NEPAL_ASSIGN_OR_RETURN(
      view->plan, nql::PlanMatchLocked(db_, view->resolved, plan_, base));
  view->footprint = CollectFootprint(view->plan, view->resolved);
  // The view enters the catalog flagged for its initial build; the
  // maintenance thread builds it at an epoch >= this capture, so waiting
  // for `reg_epoch` waits exactly for "servable".
  const uint64_t reg_epoch = db_->commit_epoch();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (views_.count(name) > 0) {
      return Status::AlreadyExists("view " + name + " already exists");
    }
    views_[name] = view;
  }
  UpdateGauges();
  return WaitUntilFresh(name, reg_epoch, std::chrono::milliseconds(60000));
}

Status ViewCatalog::DropView(const std::string& name) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (views_.erase(name) == 0) {
      return Status::NotFound("view " + name + " is not registered");
    }
  }
  UpdateGauges();
  fresh_cv_.notify_all();
  return Status::OK();
}

std::vector<ViewInfo> ViewCatalog::List() const {
  const uint64_t commit = db_->commit_epoch();
  std::vector<ViewInfo> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, view] : views_) {
    std::lock_guard<std::mutex> vlock(view->mu);
    ViewInfo info;
    info.name = name;
    info.rpe = view->canonical;
    info.mode = view->as_of ? "asof " + std::to_string(*view->as_of)
                            : "current";
    info.footprint = view->footprint.ToString();
    info.fresh_epoch = view->fresh_epoch;
    info.staleness =
        commit > view->fresh_epoch ? commit - view->fresh_epoch : 0;
    info.repairs = view->repairs;
    info.rebuilds = view->rebuilds;
    info.skipped_records = view->skipped_records;
    if (view->snapshot == nullptr) view->snapshot = SnapshotLocked(*view);
    info.paths = view->snapshot->size();
    info.rebuild_pending = view->rebuild_pending;
    out.push_back(std::move(info));
  }
  return out;
}

Status ViewCatalog::WaitUntilFresh(const std::string& name, uint64_t epoch,
                                   std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    auto it = views_.find(name);
    if (it == views_.end()) {
      return Status::NotFound("view " + name + " is not registered");
    }
    {
      std::lock_guard<std::mutex> vlock(it->second->mu);
      if (it->second->fresh_epoch >= epoch) return Status::OK();
    }
    if (fresh_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      return Status::Unavailable("view " + name +
                                 " did not reach epoch " +
                                 std::to_string(epoch) + " in time");
    }
  }
}

std::optional<nql::ServedView> ViewCatalog::Match(
    const storage::GraphDb* db, const std::string& canonical_rpe,
    const std::optional<Timestamp>& as_of) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, view] : views_) {
    if (db != db_ || view->canonical != canonical_rpe ||
        view->as_of != as_of) {
      continue;
    }
    std::lock_guard<std::mutex> vlock(view->mu);
    if (view->fresh_epoch == 0) continue;  // initial build still running
    if (view->snapshot == nullptr) view->snapshot = SnapshotLocked(*view);
    return nql::ServedView{name, db_, view->as_of, view->fresh_epoch,
                           view->snapshot};
  }
  return std::nullopt;
}

std::optional<nql::ServedView> ViewCatalog::Serve(
    const std::string& name) const {
  std::shared_ptr<View> view;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = views_.find(name);
    if (it == views_.end()) return std::nullopt;
    view = it->second;
  }
  std::lock_guard<std::mutex> vlock(view->mu);
  if (view->fresh_epoch == 0) return std::nullopt;
  if (view->snapshot == nullptr) view->snapshot = SnapshotLocked(*view);
  return nql::ServedView{view->name, db_, view->as_of, view->fresh_epoch,
                         view->snapshot};
}

// ---- Maintenance ----

void ViewCatalog::MaintenanceLoop(const std::atomic<bool>& stop) {
  std::vector<persist::WalRecord> group;
  uint64_t group_epoch = 0;
  auto flush = [&] {
    if (group.empty()) return;
    ApplyGroup(group, group_epoch);
    group.clear();
    group_epoch = 0;
    UpdateGauges();
  };
  while (!stop.load(std::memory_order_acquire)) {
    // Initial builds and flagged rebuilds first, so a freshly registered
    // view becomes servable without waiting for write traffic.
    std::vector<std::shared_ptr<View>> rebuilds;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [name, view] : views_) {
        std::lock_guard<std::mutex> vlock(view->mu);
        if (view->rebuild_pending) rebuilds.push_back(view);
      }
    }
    if (!rebuilds.empty()) {
      flush();
      for (const std::shared_ptr<View>& view : rebuilds) Rebuild(view.get());
      UpdateGauges();
    }

    std::shared_ptr<persist::WalSubscription> sub;
    {
      std::lock_guard<std::mutex> lock(mu_);
      sub = sub_;
    }
    if (sub == nullptr) break;
    persist::WalShipFrame frame;
    Result<bool> got = sub->Next(
        &frame, std::chrono::milliseconds(group.empty() ? 20 : 0));
    if (!got.ok()) {
      flush();
      if (stop.load(std::memory_order_acquire)) break;
      if (sub->lagged()) {
        // The stream has a hole; re-bootstrap every view from a fresh
        // subscription and a full rebuild.
        Result<std::shared_ptr<persist::WalSubscription>> fresh =
            store_->Subscribe();
        if (!fresh.ok()) break;
        {
          std::lock_guard<std::mutex> lock(mu_);
          sub_ = *fresh;
          for (const auto& [name, view] : views_) {
            std::lock_guard<std::mutex> vlock(view->mu);
            view->rebuild_pending = true;
          }
        }
        continue;
      }
      break;  // closed: the store is shutting down
    }
    if (!*got) {  // timeout
      flush();
      continue;
    }
    // Disk catch-up frames carry epoch 0; every such commit predates the
    // initial build epoch, which already includes it.
    if (frame.commit_epoch == 0) continue;
    Result<persist::WalRecord> rec = persist::DecodeWalRecord(frame.payload);
    if (!rec.ok()) {
      // A frame we cannot interpret invalidates incremental maintenance;
      // fall back to rebuilding everything past it.
      flush();
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [name, view] : views_) {
        std::lock_guard<std::mutex> vlock(view->mu);
        view->rebuild_pending = true;
      }
      continue;
    }
    if (!group.empty() && frame.commit_epoch != group_epoch) flush();
    group_epoch = frame.commit_epoch;
    group.push_back(std::move(*rec));
  }
}

void ViewCatalog::ApplyGroup(const std::vector<persist::WalRecord>& records,
                             uint64_t epoch) {
  std::vector<std::shared_ptr<View>> views;
  {
    std::lock_guard<std::mutex> lock(mu_);
    views.reserve(views_.size());
    for (const auto& [name, view] : views_) views.push_back(view);
  }
  for (const std::shared_ptr<View>& view : views) {
    {
      std::lock_guard<std::mutex> vlock(view->mu);
      if (view->rebuild_pending) continue;  // the pending rebuild covers it
      if (epoch <= view->fresh_epoch) {
        view->skipped_records += records.size();
        SkippedCounter()->Add(records.size());
        continue;
      }
    }
    std::vector<Uid> touched;
    bool rebuild = false;
    size_t skipped = 0;
    for (const persist::WalRecord& rec : records) {
      if (rec.type == storage::WalRecordType::kSetTime) {
        // Clock moves shift what "current" means for every in-flight
        // interval; cheaper to rebuild than to reason about.
        rebuild = true;
        break;
      }
      const schema::ClassDef* cls = nullptr;
      if (rec.type == storage::WalRecordType::kAddNode ||
          rec.type == storage::WalRecordType::kAddEdge) {
        cls = db_->schema().FindClass(rec.class_name);
      } else {
        // Update/Remove records carry no class. An element already cached
        // is relevant regardless; otherwise probe its history for the
        // class (a removed node may cascade onto cached edges, but those
        // paths also contain the node itself, so the class test covers it).
        bool indexed;
        {
          std::lock_guard<std::mutex> vlock(view->mu);
          indexed = view->index.count(rec.uid) > 0;
        }
        if (indexed) {
          touched.push_back(rec.uid);
          continue;
        }
        cls = ClassOf(rec.uid, epoch);
        if (cls == nullptr) {  // never became visible: cannot affect rows
          ++skipped;
          continue;
        }
      }
      if (view->footprint.Relevant(cls)) {
        touched.push_back(rec.uid);
      } else {
        ++skipped;
      }
    }
    if (rebuild || (!touched.empty() && view->footprint.unbounded)) {
      std::lock_guard<std::mutex> vlock(view->mu);
      view->rebuild_pending = true;
      continue;
    }
    if (skipped > 0) {
      SkippedCounter()->Add(skipped);
      std::lock_guard<std::mutex> vlock(view->mu);
      view->skipped_records += skipped;
    }
    if (touched.empty()) {
      // Nothing in this commit can change the rows: the cache is exact at
      // the new epoch too.
      {
        std::lock_guard<std::mutex> vlock(view->mu);
        view->fresh_epoch = epoch;
      }
      { std::lock_guard<std::mutex> lock(mu_); }
      fresh_cv_.notify_all();
      continue;
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()),
                  touched.end());
    Repair(view.get(), touched, epoch);
  }
}

void ViewCatalog::Rebuild(View* view) {
  const uint64_t t0 = obs::TraceNowNs();
  obs::ScopedTrace scoped(obs::Tracer::Global().StartTrace("view.rebuild"));
  const uint64_t epoch = db_->commit_epoch();
  const storage::TimeView vt = PinnedView(*view, epoch);
  nql::LockedExecutor exec(db_, db_->backend().CreateExecutor());
  std::map<BucketKey, storage::PathSet> buckets;
  for (size_t k = 0; k < view->plan.anchors.size(); ++k) {
    storage::PathSet anchors = exec.Select(view->plan.anchors[k].anchor, vt);
    std::map<Uid, storage::PathSet> grouped;
    for (storage::PathState& s : anchors) {
      if (s.uids.empty()) continue;
      grouped[s.uids[0]].push_back(std::move(s));
    }
    for (auto& [anchor_uid, seeds] : grouped) {
      storage::PathSet rows = nql::RunAnchoredFrom(
          exec, view->plan.anchors[k], std::move(seeds), vt);
      if (!rows.empty()) buckets[{k, anchor_uid}] = std::move(rows);
    }
  }
  {
    std::lock_guard<std::mutex> vlock(view->mu);
    view->buckets = std::move(buckets);
    ReindexLocked(view);
    view->fresh_epoch = epoch;
    view->rebuild_pending = false;
    ++view->rebuilds;
    view->snapshot = SnapshotLocked(*view);  // serve off the query path
  }
  { std::lock_guard<std::mutex> lock(mu_); }
  fresh_cv_.notify_all();
  RebuildsCounter()->Add(1);
  RepairHistogram()->Observe(obs::TraceNowNs() - t0);
}

void ViewCatalog::Repair(View* view, const std::vector<Uid>& uids,
                         uint64_t epoch) {
  const uint64_t t0 = obs::TraceNowNs();
  obs::ScopedTrace scoped(obs::Tracer::Global().StartTrace("view.repair"));
  const storage::TimeView vt = PinnedView(*view, epoch);
  // Buckets to recompute: every bucket whose cached paths contain a
  // touched element (lost/changed rows), plus every anchor element within
  // footprint radius of a touched element (gained rows must contain the
  // touched element, and their anchor cannot be farther than a path
  // stretches).
  std::set<BucketKey> keys;
  {
    std::lock_guard<std::mutex> vlock(view->mu);
    for (Uid uid : uids) {
      auto it = view->index.find(uid);
      if (it == view->index.end()) continue;
      keys.insert(it->second.begin(), it->second.end());
    }
  }
  {
    obs::ScopedSpan span("view.locate");
    for (Uid uid : uids) AnchorsNear(*view, uid, vt, &keys);
  }
  // Recompute outside view->mu: evaluation takes the database lock and can
  // wait out the writer, and serving must keep answering from the old
  // snapshot meanwhile. Only the maintenance thread mutates buckets, so
  // the staged results cannot go stale between compute and splice.
  nql::LockedExecutor exec(db_, db_->backend().CreateExecutor());
  std::map<BucketKey, storage::PathSet> recomputed;
  {
    obs::ScopedSpan span("view.recompute");
    for (const BucketKey& key : keys) {
      recomputed[key] = RecomputeBucket(*view, key, vt, exec);
    }
  }
  {
    std::lock_guard<std::mutex> vlock(view->mu);
    for (auto& [key, rows] : recomputed) {
      if (rows.empty()) {
        view->buckets.erase(key);
      } else {
        view->buckets[key] = std::move(rows);
      }
    }
    ReindexLocked(view);
    view->fresh_epoch = epoch;
    ++view->repairs;
    // Regenerate the canonical snapshot here, on the maintenance thread,
    // so Serve()/Match() hand out a shared pointer instead of paying the
    // concat+sort on the query path after every repair.
    view->snapshot = SnapshotLocked(*view);
  }
  { std::lock_guard<std::mutex> lock(mu_); }
  fresh_cv_.notify_all();
  RepairsCounter()->Add(1);
  RepairHistogram()->Observe(obs::TraceNowNs() - t0);
}

storage::PathSet ViewCatalog::RecomputeBucket(
    const View& view, const BucketKey& key,
    const storage::TimeView& view_time,
    storage::PathOperatorExecutor& exec) {
  storage::CompiledAtom anchor = view.plan.anchors[key.first].anchor;
  storage::FieldCondition pin;
  pin.field_index = -1;  // the `id` pseudo-field; pushes into ScanSpec::uid
  pin.field_name = "id";
  pin.op = storage::FieldCondition::Op::kEq;
  pin.value = Value(static_cast<int64_t>(key.second));
  anchor.conditions.push_back(std::move(pin));
  storage::PathSet seeds = exec.Select(anchor, view_time);
  storage::PathSet rows;
  if (!seeds.empty()) {
    rows = nql::RunAnchoredFrom(exec, view.plan.anchors[key.first],
                                std::move(seeds), view_time);
  }
  return rows;
}

void ViewCatalog::AnchorsNear(const View& view, Uid uid,
                              const storage::TimeView& view_time,
                              std::set<BucketKey>* out) const {
  const int radius = view.footprint.radius();
  const storage::StorageBackend& backend = db_->backend();
  std::set<Uid> visited;
  std::deque<std::pair<Uid, int>> frontier;
  frontier.emplace_back(uid, 0);
  visited.insert(uid);
  while (!frontier.empty()) {
    auto [cur, depth] = frontier.front();
    frontier.pop_front();
    // One brief shared lock per visited element, around its probes.
    std::shared_lock<std::shared_mutex> lock(db_->mutex());
    const storage::TimeView vt = db_->ReadViewLocked(view_time);
    std::optional<storage::ElementVersion> version;
    backend.Get(cur, vt, [&](const storage::ElementVersion& v) {
      version = v;
    });
    if (!version) continue;  // not visible at the repair epoch
    for (size_t k = 0; k < view.plan.anchors.size(); ++k) {
      if (view.plan.anchors[k].anchor.Matches(*version)) {
        out->insert({k, cur});
      }
    }
    if (depth >= radius) continue;
    auto visit = [&](Uid next) {
      if (visited.insert(next).second) frontier.emplace_back(next, depth + 1);
    };
    if (version->is_edge()) {
      visit(version->source);
      visit(version->target);
    } else {
      auto sink = [&](const storage::ElementVersion& e) { visit(e.uid); };
      backend.IncidentEdges(cur, storage::Direction::kOut, nullptr, vt, sink);
      backend.IncidentEdges(cur, storage::Direction::kIn, nullptr, vt, sink);
    }
  }
}

const schema::ClassDef* ViewCatalog::ClassOf(Uid uid, uint64_t epoch) const {
  const schema::ClassDef* cls = nullptr;
  std::shared_lock<std::shared_mutex> lock(db_->mutex());
  db_->backend().Get(
      uid,
      db_->ReadViewLocked(
          storage::TimeView::Range(Interval::All()).WithEpoch(epoch)),
      [&](const storage::ElementVersion& v) { cls = v.cls; });
  return cls;
}

storage::TimeView ViewCatalog::PinnedView(const View& view, uint64_t epoch) {
  const storage::TimeView base = view.as_of
                                     ? storage::TimeView::AsOf(*view.as_of)
                                     : storage::TimeView::Current();
  return base.WithEpoch(epoch);
}

void ViewCatalog::ReindexLocked(View* view) {
  view->index.clear();
  for (const auto& [key, paths] : view->buckets) {
    for (const storage::PathState& p : paths) {
      for (Uid u : p.uids) view->index[u].insert(key);
    }
  }
}

std::shared_ptr<const storage::PathSet> ViewCatalog::SnapshotLocked(
    const View& view) {
  storage::PathSet all;
  for (const auto& [key, paths] : view.buckets) {
    all.insert(all.end(), paths.begin(), paths.end());
  }
  // Same normalization cold evaluation applies: dedup across buckets (one
  // path can be reachable from several anchors) and canonical order.
  storage::CanonicalizePaths(&all);
  return std::make_shared<const storage::PathSet>(std::move(all));
}

void ViewCatalog::UpdateGauges() const {
  auto& reg = obs::MetricsRegistry::Global();
  const uint64_t commit = db_->commit_epoch();
  uint64_t worst = 0;
  size_t registered = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    registered = views_.size();
    for (const auto& [name, view] : views_) {
      std::lock_guard<std::mutex> vlock(view->mu);
      const uint64_t lag =
          commit > view->fresh_epoch ? commit - view->fresh_epoch : 0;
      worst = std::max(worst, lag);
    }
  }
  reg.GetGauge("nepal.views.registered")->Set(static_cast<int64_t>(registered));
  reg.GetGauge("nepal.views.staleness_epochs")
      ->Set(static_cast<int64_t>(worst));
}

}  // namespace nepal::views
