// The benchmark's world: everything a run sets up before it measures.
//
//  - the default virtualized graph (paper Table 1 data set, 60-day churn
//    history) built twice from the run's seed, once per backend;
//  - rpe_automaton's small cyclic switching core, also once per backend;
//  - the sampled query instances with the row count and fingerprint each
//    returned at set-up;
//  - the live system: a durable relational primary loaded from the
//    virtualized graph through DurableStore::SaveSnapshot and Open, one
//    async graphstore follower connected over a unix socket, and one
//    materialized view kept by a ViewCatalog.
//
// Only the seed reaches the generators and the samplers.

#ifndef NEPALBENCH_FIXTURE_H_
#define NEPALBENCH_FIXTURE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "measure.h"
#include "nepal/engine.h"
#include "netmodel/virtualized.h"
#include "persist/durable_store.h"
#include "replication/listener.h"
#include "replication/replica_store.h"
#include "tracing.h"
#include "views/view_catalog.h"

namespace nepalbench {

/// The pinned engine configuration: one worker lane, every other option
/// at the program default (locked reads, cost-based loop strategy).
nepal::nql::EngineOptions PinnedEngineOptions();

/// The view the live system maintains and serves.
inline constexpr const char* kViewName = "hot";
inline constexpr const char* kViewRpe = "VNF()->[Vertical()]{1,6}->Host()";

/// One in-memory copy of a generated graph with its engine.
struct Copy {
  nepal::netmodel::VirtualizedNetwork net;
  std::unique_ptr<nepal::nql::QueryEngine> engine;
};

/// A query instance. Lookup instances come in pairs (current snapshot and
/// AT a mid-history instant); deep instances run on the virtualized graph
/// or on the small switching core.
struct Instance {
  std::string kind;  // topdown, bottomup, hosthost4, hosthost6, vmvm4, ...
  std::string query;
  bool history = false;
  bool core = false;
  Fingerprint expected;  // recorded at set-up on the graphstore copy
};

/// The durable primary, its follower and the view, plus the writer's
/// knowledge of the inventory it churns.
struct LiveSystem {
  std::string dir;
  std::unique_ptr<nepal::persist::DurableStore> primary;
  std::unique_ptr<nepal::replication::ReplicationListener> listener;
  std::unique_ptr<nepal::replication::ReplicaStore> follower;
  std::unique_ptr<nepal::views::ViewCatalog> catalog;
  /// Serves the view (provider attached); `cold` has no provider.
  std::unique_ptr<nepal::nql::QueryEngine> primary_engine;
  std::unique_ptr<nepal::nql::QueryEngine> cold_engine;
  std::unique_ptr<nepal::nql::QueryEngine> follower_engine;

  std::vector<nepal::Uid> vms;  // live VMs (initial plus scaled out)
  std::vector<nepal::Uid> scaled;  // VMs the writer added (scale-in pool)
  std::vector<nepal::Uid> vfcs;
  std::vector<nepal::Uid> compute_hosts;
  std::map<nepal::Uid, nepal::Uid> placement;  // VM -> its on_server edge
  nepal::Uid next_uid = 0;  // the writer pins every uid it adds
  nepal::Timestamp next_time = 0;

  LiveSystem() = default;
  LiveSystem(const LiveSystem&) = delete;
  LiveSystem& operator=(const LiveSystem&) = delete;
  /// Tears down in dependency order: view, follower, listener, primary.
  ~LiveSystem();
};

/// Wall time of each set-up stage, in seconds.
struct SetupTimes {
  double generate = 0;
  double sample = 0;
  double recover = 0;
  double bootstrap = 0;
  double view_build = 0;
  double total() const {
    return generate + sample + recover + bootstrap + view_build;
  }
};

struct World {
  Copy gs, rel;            // virtualized graph
  Copy core_gs, core_rel;  // small cyclic switching core
  std::vector<Instance> lookup;
  std::vector<Instance> deep;
  std::unique_ptr<LiveSystem> live;
  nepal::Timestamp mid_history = 0;
  SetupTimes times;

  const Copy& CopyFor(const Instance& inst, Bucket bucket) const {
    if (inst.core) return bucket == kGraphstore ? core_gs : core_rel;
    return bucket == kGraphstore ? gs : rel;
  }
};

/// Builds the whole world from `seed`; `dir` holds the live system's data
/// directories and socket.
nepal::Result<std::unique_ptr<World>> BuildWorld(uint64_t seed,
                                                 const std::string& dir);

}  // namespace nepalbench

#endif  // NEPALBENCH_FIXTURE_H_
