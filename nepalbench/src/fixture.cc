#include "fixture.h"

#include <filesystem>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "common/rng.h"
#include "graphstore/graph_store.h"
#include "nepal/parser.h"
#include "relational/relational_store.h"
#include "replication/socket_util.h"

namespace nepalbench {

using nepal::Result;
using nepal::Status;
using nepal::Uid;

namespace {

// Instance counts per query type. Each lookup instance runs twice (current
// snapshot and AT mid-history) on both backends; every count is fixed so
// two runs of one seed do identical work.
// Top-down runs once per VNF (all 33), as in the paper's Table 1.
constexpr size_t kBottomUp = 32;
constexpr size_t kHostHost4 = 40;
constexpr size_t kHostHost6 = 4;
constexpr size_t kVmVm4 = 12;
constexpr size_t kCoreDepth12 = 4;
constexpr size_t kCoreStar = 4;

double Seconds(Clock::time_point since) {
  return MsBetween(since, Clock::now()) / 1000.0;
}

nepal::persist::BackendFactory FactoryFor(Bucket bucket) {
  if (bucket == kRelational) {
    return [](nepal::schema::SchemaPtr s)
               -> std::unique_ptr<nepal::storage::StorageBackend> {
      return std::make_unique<nepal::relational::RelationalStore>(
          std::move(s));
    };
  }
  return [](nepal::schema::SchemaPtr s)
             -> std::unique_ptr<nepal::storage::StorageBackend> {
    return std::make_unique<nepal::graphstore::GraphStore>(std::move(s));
  };
}

Status BuildCopy(const nepal::netmodel::VirtualizedParams& params,
                 Bucket bucket, Copy* copy) {
  auto built = nepal::netmodel::BuildVirtualizedNetwork(params,
                                                        FactoryFor(bucket));
  if (!built.ok()) return built.status();
  copy->net = std::move(*built);
  copy->engine = std::make_unique<nepal::nql::QueryEngine>(
      copy->net.db.get(), PinnedEngineOptions());
  return Status::OK();
}

nepal::netmodel::VirtualizedParams CoreParams(uint64_t seed) {
  // rpe_automaton's small cyclic switching core: 2 routers, 2 aggregation
  // switches and 3 ToRs, so deep and unbounded repetitions stay bounded.
  nepal::netmodel::VirtualizedParams params;
  params.seed = seed;
  params.history_days = 0;
  params.num_hosts = 24;
  params.num_agg_switches = 2;
  params.num_routers = 2;
  params.num_datacenters = 1;
  params.num_services = 4;
  params.num_vnfs = 8;
  params.vfcs_per_vnf = 4;
  params.num_vnets = 20;
  params.num_vrouters = 6;
  return params;
}

std::string NameOf(const nepal::storage::GraphDb& db, Uid uid) {
  auto v = db.GetCurrent(uid);
  if (!v.ok()) return "";
  int idx = v->cls->FieldIndex("name");
  return idx < 0 ? "" : v->fields[static_cast<size_t>(idx)].AsString();
}

std::string Retrieve(const std::string& rpe) {
  return "Retrieve P From PATHS P Where P MATCHES " + rpe;
}

std::string AtInstant(nepal::Timestamp t, const std::string& query) {
  return "AT '" + nepal::FormatTimestamp(t) + "' " + query;
}

/// Appends up to `want` candidates that return at least one row on
/// `engine`, recording each one's fingerprint. With `mid` set, each kept
/// instance is followed by its AT-`mid` twin (recorded whatever it returns).
Status Sample(const nepal::nql::QueryEngine& engine, const std::string& kind,
              const std::vector<std::string>& candidates, size_t want,
              bool core, std::optional<nepal::Timestamp> mid,
              std::vector<Instance>* out) {
  size_t kept = 0;
  for (const std::string& q : candidates) {
    if (kept == want) break;
    auto result = engine.Run(q);
    if (!result.ok()) return result.status();
    if (result->rows.empty()) continue;
    out->push_back(Instance{kind, q, false, core, FingerprintOf(*result)});
    if (mid.has_value()) {
      const std::string hq = AtInstant(*mid, q);
      auto hist = engine.Run(hq);
      if (!hist.ok()) return hist.status();
      out->push_back(Instance{kind, hq, true, core, FingerprintOf(*hist)});
    }
    ++kept;
  }
  if (kept < want) {
    return Status::Internal("sampled only " + std::to_string(kept) + " of " +
                            std::to_string(want) + " " + kind +
                            " instances");
  }
  return Status::OK();
}

std::vector<std::string> HostPairs(const nepal::netmodel::VirtualizedNetwork& net,
                                   nepal::Rng& rng, int depth, size_t count) {
  std::vector<std::string> out;
  while (out.size() < count) {
    const size_t a = rng.Below(net.hosts.size());
    const size_t b = rng.Below(net.hosts.size());
    if (a == b) continue;
    out.push_back(Retrieve("Host(name='" + NameOf(*net.db, net.hosts[a]) +
                           "')->[connects()]{1," + std::to_string(depth) +
                           "}->Host(name='" +
                           NameOf(*net.db, net.hosts[b]) + "')"));
  }
  return out;
}

Status SampleInstances(uint64_t seed, World* w) {
  const nepal::nql::QueryEngine& engine = *w->gs.engine;
  const nepal::netmodel::VirtualizedNetwork& net = w->gs.net;
  nepal::Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);

  // Lookup: the paper's Table 1 interactive types.
  std::vector<std::string> cands;
  std::vector<Uid> vnfs = net.vnfs;
  for (size_t i = vnfs.size(); i > 1; --i) {
    std::swap(vnfs[i - 1], vnfs[rng.Below(i)]);
  }
  for (Uid vnf : vnfs) {
    cands.push_back(Retrieve("VNF(id=" + std::to_string(vnf) +
                             ")->[Vertical()]{1,6}->Host()"));
  }
  NEPAL_RETURN_NOT_OK(Sample(engine, "topdown", cands, cands.size(), false,
                             w->mid_history, &w->lookup));
  cands.clear();
  for (size_t i = 0; i < 20 * kBottomUp; ++i) {
    cands.push_back(Retrieve("VNF()->[Vertical()]{1,6}->Host(id=" +
                             std::to_string(net.hosts[rng.Below(
                                 net.hosts.size())]) +
                             ")"));
  }
  NEPAL_RETURN_NOT_OK(Sample(engine, "bottomup", cands, kBottomUp, false,
                             w->mid_history, &w->lookup));
  NEPAL_RETURN_NOT_OK(Sample(engine, "hosthost4",
                             HostPairs(net, rng, 4, 20 * kHostHost4),
                             kHostHost4, false, w->mid_history, &w->lookup));

  // Deep: path enumeration dominates.
  NEPAL_RETURN_NOT_OK(Sample(engine, "hosthost6",
                             HostPairs(net, rng, 6, 20 * kHostHost6),
                             kHostHost6, false, std::nullopt, &w->deep));
  cands.clear();
  for (size_t i = 0; i < 40 * kVmVm4; ++i) {
    const std::string a = NameOf(*net.db, net.vms[rng.Below(net.vms.size())]);
    const std::string b = NameOf(*net.db, net.vms[rng.Below(net.vms.size())]);
    if (a == b) continue;
    cands.push_back(Retrieve("VM(name='" + a +
                             "')->[virtual_connects()]{1,4}->VM(name='" + b +
                             "')"));
  }
  NEPAL_RETURN_NOT_OK(Sample(engine, "vmvm4", cands, kVmVm4, false,
                             std::nullopt, &w->deep));
  const nepal::netmodel::VirtualizedNetwork& core = w->core_gs.net;
  NEPAL_RETURN_NOT_OK(Sample(*w->core_gs.engine, "core12",
                             HostPairs(core, rng, 12, 20 * kCoreDepth12),
                             kCoreDepth12, true, std::nullopt, &w->deep));
  cands.clear();
  for (size_t i = 0; i < 20 * kCoreStar; ++i) {
    cands.push_back(Retrieve(
        "Host(name='" +
        NameOf(*core.db, core.hosts[rng.Below(core.hosts.size())]) +
        "')->[connects()]*->Router()"));
  }
  return Sample(*w->core_gs.engine, "corestar", cands, kCoreStar, true,
                std::nullopt, &w->deep);
}

/// The writer's starting knowledge of the primary's inventory.
Status ScanInventory(const nepal::netmodel::VirtualizedNetwork& net,
                     LiveSystem* live) {
  nepal::storage::GraphDb& db = live->primary->db();
  std::shared_lock<std::shared_mutex> lock(db.mutex());
  const nepal::schema::ClassDef* on_server =
      db.schema().FindClass("on_server");
  for (Uid vm : net.vms) {
    Uid edge = 0;
    db.backend().IncidentEdges(
        vm, nepal::storage::Direction::kOut, on_server,
        nepal::storage::TimeView::Current(),
        [&](const nepal::storage::ElementVersion& e) { edge = e.uid; });
    if (edge == 0) continue;  // removed during the generated history
    live->vms.push_back(vm);
    live->placement[vm] = edge;
  }
  live->vfcs = net.vfcs;
  for (Uid h : net.hosts) {
    nepal::storage::TimeView now = nepal::storage::TimeView::Current();
    db.backend().Get(h, now, [&](const nepal::storage::ElementVersion& v) {
      if (v.cls->name() == "ComputeHost") live->compute_hosts.push_back(h);
    });
  }
  live->next_uid = db.NextUidLocked();
  live->next_time = db.NowLocked() + 1000000;
  if (live->vms.empty() || live->compute_hosts.empty()) {
    return Status::Internal("live inventory is empty");
  }
  return Status::OK();
}

Result<std::unique_ptr<LiveSystem>> StartLive(const Copy& source,
                                              const std::string& dir,
                                              SetupTimes* times) {
  namespace fs = std::filesystem;
  auto live = std::make_unique<LiveSystem>();
  live->dir = dir;
  fs::remove_all(dir);
  fs::create_directories(dir);
  nepal::schema::SchemaPtr schema = source.net.db->schema_ptr();

  auto t0 = Clock::now();
  NEPAL_RETURN_NOT_OK(nepal::persist::DurableStore::SaveSnapshot(
      dir + "/primary", *source.net.db));
  NEPAL_ASSIGN_OR_RETURN(
      live->primary,
      nepal::persist::DurableStore::Open(dir + "/primary", schema,
                                         FactoryFor(kRelational)));
  times->recover = Seconds(t0);

  t0 = Clock::now();
  NEPAL_ASSIGN_OR_RETURN(nepal::replication::SocketAddress address,
                         nepal::replication::ParseSocketAddress(
                             "unix:" + dir + "/primary.sock"));
  NEPAL_ASSIGN_OR_RETURN(
      live->listener,
      nepal::replication::ReplicationListener::Start(*live->primary, address));
  nepal::replication::ConnectOptions connect;
  connect.name = "f1";
  NEPAL_ASSIGN_OR_RETURN(
      live->follower,
      nepal::replication::ReplicaStore::Connect(dir + "/follower", schema,
                                                FactoryFor(kGraphstore),
                                                live->listener->address(),
                                                connect));
  times->bootstrap = Seconds(t0);

  t0 = Clock::now();
  NEPAL_ASSIGN_OR_RETURN(
      live->catalog,
      nepal::views::ViewCatalog::Open(live->primary.get(),
                                      PinnedEngineOptions().plan));
  NEPAL_ASSIGN_OR_RETURN(nepal::nql::RpeNode rpe,
                         nepal::nql::ParseRpe(kViewRpe));
  NEPAL_RETURN_NOT_OK(live->catalog->CreateView(kViewName, std::move(rpe)));
  times->view_build = Seconds(t0);

  nepal::storage::GraphDb& pdb = live->primary->db();
  live->primary_engine =
      std::make_unique<nepal::nql::QueryEngine>(&pdb, PinnedEngineOptions());
  live->primary_engine->set_view_provider(live->catalog.get());
  live->cold_engine =
      std::make_unique<nepal::nql::QueryEngine>(&pdb, PinnedEngineOptions());
  live->follower_engine = std::make_unique<nepal::nql::QueryEngine>(
      &live->follower->db(), PinnedEngineOptions());
  NEPAL_RETURN_NOT_OK(ScanInventory(source.net, live.get()));
  return live;
}

}  // namespace

nepal::nql::EngineOptions PinnedEngineOptions() {
  nepal::nql::EngineOptions options;
  options.plan.parallelism = 1;
  return options;
}

LiveSystem::~LiveSystem() {
  primary_engine.reset();
  cold_engine.reset();
  follower_engine.reset();
  catalog.reset();
  follower.reset();
  if (listener != nullptr) listener->Stop();
  listener.reset();
  primary.reset();
  std::error_code ec;
  if (!dir.empty()) std::filesystem::remove_all(dir, ec);
}

Result<std::unique_ptr<World>> BuildWorld(uint64_t seed,
                                          const std::string& dir) {
  auto w = std::make_unique<World>();
  nepal::netmodel::VirtualizedParams params;
  params.seed = seed;
  auto t0 = Clock::now();
  NEPAL_RETURN_NOT_OK(BuildCopy(params, kGraphstore, &w->gs));
  NEPAL_RETURN_NOT_OK(BuildCopy(params, kRelational, &w->rel));
  NEPAL_RETURN_NOT_OK(BuildCopy(CoreParams(seed), kGraphstore, &w->core_gs));
  NEPAL_RETURN_NOT_OK(BuildCopy(CoreParams(seed), kRelational, &w->core_rel));
  w->times.generate = Seconds(t0);
  w->mid_history =
      w->gs.net.snapshot_time + (w->gs.net.end_time - w->gs.net.snapshot_time) / 2;

  t0 = Clock::now();
  NEPAL_RETURN_NOT_OK(SampleInstances(seed, w.get()));
  w->times.sample = Seconds(t0);

  NEPAL_ASSIGN_OR_RETURN(w->live, StartLive(w->rel, dir, &w->times));
  return w;
}

}  // namespace nepalbench
