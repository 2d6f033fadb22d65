// ViewCatalog: materialized pathway views with WAL-driven incremental
// maintenance.
//
// A view registers a pathway query — anchor + pathway expression + temporal
// mode (Current or AsOf t) — under a name. Registration compiles the RPE to
// a MatchPlan once, flags the view for an initial full build, and the
// catalog's maintenance thread (one per catalog, a persist::DrainThread
// tailing DurableStore::Subscribe) builds it pinned to a commit epoch
// through an nql::LockedExecutor (brief shared locks per operator call,
// never blocking writers for the whole build).
//
// From then on every committed WAL record drives maintenance. Frames are
// grouped by the commit epoch they carry (one ApplyBatch = one epoch = one
// group) and each group is, per view, one of:
//
//  - skipped: the touched class is outside the view's dependency footprint
//    (footprint.h) — the freshness epoch still advances, since the cached
//    rows provably equal cold evaluation at the new epoch;
//  - incrementally repaired: the touched elements' cached rows are dropped
//    and recomputed by re-running the view's physical programs seeded at
//    every anchor element within footprint radius, pinned to the group's
//    epoch. The cache is bucketed by (anchored-plan index, anchor element),
//    so a repair replaces exactly the buckets the write can have changed;
//  - a flagged full rebuild: SetTime records and writes relevant to a view
//    with an unbounded repetition (no finite repair radius).
//
// Serving: the catalog implements nql::PathwayViewProvider. Serve(name) and
// Match(db, canonical rpe, as_of) return an immutable snapshot of the
// cached pathway set — deduplicated, canonical order — plus its freshness
// epoch; the engine answers the query from it pinned to that epoch,
// byte-identical to cold evaluation at the same epoch.
//
// Metrics: nepal.views.registered / repairs / rebuilds / skipped_records /
// served (counters & gauges), nepal.views.staleness_epochs (gauge: largest
// commit-epoch lag over registered views), nepal.views.repair_ns
// (histogram). Repairs start an obs trace ("view.repair") when sampling is
// armed.

#ifndef NEPAL_VIEWS_VIEW_CATALOG_H_
#define NEPAL_VIEWS_VIEW_CATALOG_H_

#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "nepal/plan.h"
#include "nepal/rpe.h"
#include "nepal/view_provider.h"
#include "persist/drain_thread.h"
#include "persist/durable_store.h"
#include "views/footprint.h"

namespace nepal::views {

/// One row of `\views` / List().
struct ViewInfo {
  std::string name;
  std::string rpe;   // canonical rendering (the Match key)
  std::string mode;  // "current" or "asof <t>"
  std::string footprint;
  uint64_t fresh_epoch = 0;
  /// Commit epochs the cache lags the database (0 = fully fresh).
  uint64_t staleness = 0;
  uint64_t repairs = 0;
  uint64_t rebuilds = 0;
  uint64_t skipped_records = 0;
  size_t paths = 0;  // cached pathway count
  bool rebuild_pending = false;
};

class ViewCatalog final : public nql::PathwayViewProvider {
 public:
  /// Subscribes to `store`'s WAL and starts the maintenance thread. `plan`
  /// configures view compilation (the repetition length limit; parallelism
  /// is forced to 1 for repairs — they run on the maintenance thread).
  static Result<std::unique_ptr<ViewCatalog>> Open(
      persist::DurableStore* store, nql::PlanOptions plan = {});

  ~ViewCatalog() override;

  /// Registers `name` over the store's database. `rpe` is normalized and
  /// compiled here; `as_of` unset registers a Current view. Blocks until
  /// the initial build is complete (the view is servable on return).
  Status CreateView(const std::string& name, nql::RpeNode rpe,
                    std::optional<Timestamp> as_of = std::nullopt);
  Status DropView(const std::string& name);

  std::vector<ViewInfo> List() const;

  /// Blocks until `name`'s freshness epoch reaches `epoch` (tests, and the
  /// shell's synchronous `\views` staleness demo).
  Status WaitUntilFresh(const std::string& name, uint64_t epoch,
                        std::chrono::milliseconds timeout);

  // ---- nql::PathwayViewProvider ----
  std::optional<nql::ServedView> Match(
      const storage::GraphDb* db, const std::string& canonical_rpe,
      const std::optional<Timestamp>& as_of) const override;
  std::optional<nql::ServedView> Serve(const std::string& name) const override;

 private:
  /// Cache bucket key: (anchored-plan index, anchor element uid). A repair
  /// recomputes whole buckets, so every cached path must be attributable to
  /// the anchor element whose Select seeded it.
  using BucketKey = std::pair<size_t, Uid>;

  struct View {
    std::string name;
    std::string canonical;  // Normalize(rpe).ToString()
    std::optional<Timestamp> as_of;
    nql::RpeNode resolved;  // resolved copy (plan recompilation not needed)
    nql::MatchPlan plan;
    ViewFootprint footprint;

    // Cache state. Only the maintenance thread writes; readers (Serve,
    // List) take `mu` for consistent snapshots.
    mutable std::mutex mu;
    std::map<BucketKey, storage::PathSet> buckets;
    /// Element uid -> buckets whose cached paths contain it.
    std::map<Uid, std::set<BucketKey>> index;
    uint64_t fresh_epoch = 0;  // 0 = initial build not done yet
    bool rebuild_pending = true;
    /// Lazily (re)materialized canonical snapshot of all buckets.
    mutable std::shared_ptr<const storage::PathSet> snapshot;
    uint64_t repairs = 0;
    uint64_t rebuilds = 0;
    uint64_t skipped_records = 0;
  };

  ViewCatalog(persist::DurableStore* store, nql::PlanOptions plan);

  void MaintenanceLoop(const std::atomic<bool>& stop);
  /// Applies one same-epoch frame group to every registered view.
  void ApplyGroup(const std::vector<persist::WalRecord>& records,
                  uint64_t epoch);
  /// Full build at the current commit epoch. Caller does NOT hold view->mu.
  void Rebuild(View* view);
  /// Incremental repair of `view` to `epoch` for touched elements `uids`.
  void Repair(View* view, const std::vector<Uid>& uids, uint64_t epoch);
  /// Recomputes bucket (k, anchor_uid) pinned to `view_time`; an empty
  /// result means the bucket has no rows and should be erased. Reads only
  /// the immutable plan, so the caller must NOT hold view->mu — evaluation
  /// contends with writers on the database lock, and holding the view
  /// mutex through it would stall serving for the whole repair. `exec` is
  /// an nql::LockedExecutor over the database, so neither may the caller
  /// hold the database lock.
  storage::PathSet RecomputeBucket(const View& view, const BucketKey& key,
                                   const storage::TimeView& view_time,
                                   storage::PathOperatorExecutor& exec);
  /// Anchor elements within footprint radius of `uid` at `view_time`, as
  /// bucket keys (undirected BFS over the element graph). Appends to `out`.
  /// Takes the database lock shared around each element's probes.
  void AnchorsNear(const View& view, Uid uid,
                   const storage::TimeView& view_time,
                   std::set<BucketKey>* out) const;
  /// The class of element `uid` as of `epoch` (whole-history probe, so a
  /// just-removed element still resolves); nullptr when unknown or never
  /// visible (a zero-length version closed by `epoch`). Takes the
  /// database lock shared.
  const schema::ClassDef* ClassOf(Uid uid, uint64_t epoch) const;
  /// View's base TimeView (Current or AsOf) pinned to `epoch`.
  static storage::TimeView PinnedView(const View& view, uint64_t epoch);
  /// Rebuilds `view->index` from `view->buckets`. Caller holds view->mu.
  static void ReindexLocked(View* view);
  /// Canonical snapshot of the current buckets. Caller holds view->mu.
  static std::shared_ptr<const storage::PathSet> SnapshotLocked(
      const View& view);
  void UpdateGauges() const;

  persist::DurableStore* store_;
  storage::GraphDb* db_;
  nql::PlanOptions plan_;
  std::shared_ptr<persist::WalSubscription> sub_;

  mutable std::mutex mu_;  // guards views_ (map shape, not View internals)
  mutable std::condition_variable fresh_cv_;
  std::map<std::string, std::shared_ptr<View>> views_;

  persist::DrainThread drain_;
};

}  // namespace nepal::views

#endif  // NEPAL_VIEWS_VIEW_CATALOG_H_
