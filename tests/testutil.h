// Shared test fixtures: the Figure-3 style schema, a small deterministic
// network instance parameterized over both execution backends, the
// engine's pinned read path as a cold-evaluation oracle, and the socket
// plumbing every replication follower connects through.

#ifndef NEPAL_TESTS_TESTUTIL_H_
#define NEPAL_TESTS_TESTUTIL_H_

#include <unistd.h>

#include <memory>
#include <string>

#include "graphstore/graph_store.h"
#include "nepal/executor.h"
#include "nepal/snapshot.h"
#include "relational/relational_store.h"
#include "replication/replica_store.h"
#include "schema/dsl_parser.h"
#include "storage/graphdb.h"

namespace nepal::testing {

enum class BackendKind { kGraphStore, kRelational };

inline std::string BackendName(BackendKind kind) {
  return kind == BackendKind::kGraphStore ? "graphstore" : "relational";
}

inline std::unique_ptr<storage::StorageBackend> MakeBackend(
    BackendKind kind, schema::SchemaPtr schema) {
  if (kind == BackendKind::kGraphStore) {
    return std::make_unique<graphstore::GraphStore>(std::move(schema));
  }
  return std::make_unique<relational::RelationalStore>(std::move(schema));
}

/// The simple underlay/overlay schema of the paper's Figure 3.
inline const char* kFigure3SchemaDsl = R"(
data_type routingTableEntry {
  address: ip;
  mask: int;
  interface: string;
}

node Service : Node {}
node VNF : Node { vnf_type: string; }
node DNS : VNF {}
node Firewall : VNF {}
node VFC : Node {}
node Container : Node { status: string; }
node VM : Container {}
node VMWare : VM {}
node OnMetal : VM {}
node Docker : Container {}
node Host : Node { serial: string; }
node Switch : Node {}
node Router : Node { routingTable: list<routingTableEntry>; }
node VirtualNetwork : Node {}
node VirtualRouter : Node {}

edge Vertical : Edge {}
edge composed_of : Vertical {}
edge hosted_on : Vertical {}
edge OnVM : hosted_on {}
edge OnServer : hosted_on {}
edge ConnectedTo : Edge {}
edge Connects : ConnectedTo { bandwidth: int; }
edge VirtualConnects : ConnectedTo { ip_address: ip; }

allow composed_of (VNF -> VFC);
allow hosted_on (VFC -> Container);
allow OnServer (Container -> Host);
allow Connects (Host -> Switch);
allow Connects (Switch -> Host);
allow Connects (Switch -> Switch);
allow Connects (Switch -> Router);
allow Connects (Router -> Switch);
allow Connects (Router -> Router);
allow VirtualConnects (VM -> VirtualNetwork);
allow VirtualConnects (VirtualNetwork -> VM);
allow VirtualConnects (VirtualNetwork -> VirtualRouter);
allow VirtualConnects (VirtualRouter -> VirtualNetwork);
)";

inline schema::SchemaPtr Figure3Schema() {
  auto result = schema::ParseSchemaDsl(kFigure3SchemaDsl);
  // Tests assert on this; fail loudly here if the DSL regresses.
  if (!result.ok()) {
    fprintf(stderr, "Figure3Schema: %s\n", result.status().ToString().c_str());
    abort();
  }
  return *result;
}

/// Evaluates a resolved RPE the way the engine's read path does: planned
/// against `db`'s live statistics under a brief shared lock, then executed
/// through a LockedExecutor at `view` (pinned to a commit epoch or not).
inline Result<storage::PathSet> EvaluatePinned(
    storage::GraphDb* db, const nql::RpeNode& resolved,
    const storage::TimeView& view, const nql::PlanOptions& options) {
  Result<nql::MatchPlan> plan =
      nql::PlanMatchLocked(db, resolved, options, view);
  if (!plan.ok()) return plan.status();
  nql::LockedExecutor exec(db, db->backend().CreateExecutor());
  return nql::ExecuteMatch(exec, *plan, view, options);
}

/// Unix socket paths are capped around 104 bytes; anchor them in /tmp by
/// pid + a short tag rather than the (potentially deep) test temp dir.
inline replication::SocketAddress FreshSocket(const std::string& tag) {
  replication::SocketAddress addr;
  addr.is_unix = true;
  addr.path = "/tmp/nepal_test_" + std::to_string(::getpid()) + "_" + tag +
              ".sock";
  ::unlink(addr.path.c_str());
  return addr;
}

/// A Figure-3 follower in fresh directory `dir`, connected to the
/// ReplicationListener at `address` under `name`.
inline Result<std::unique_ptr<replication::ReplicaStore>> ConnectFollower(
    const std::string& dir, BackendKind kind,
    const replication::SocketAddress& address,
    const std::string& name = "follower") {
  replication::ConnectOptions options;
  options.name = name;
  return replication::ReplicaStore::Connect(
      dir, Figure3Schema(),
      [kind](schema::SchemaPtr s) { return MakeBackend(kind, std::move(s)); },
      address, options);
}

/// A tiny deterministic deployment:
///
///   vnf1(DNS)  -composed_of-> vfc1 -hosted_on-> vm1(VMWare) -OnServer-> host1
///              -composed_of-> vfc2 -hosted_on-> vm2(OnMetal) -OnServer-> host2
///   vnf2(Firewall) -composed_of-> vfc3 -hosted_on-> vm3(VMWare) -OnServer-> host2
///   host1 <-> sw1 <-> sw2 <-> host2 (Connects both ways), sw1 <-> rt1
///   vm1 <-> vnet1 <-> vrt1 <-> vnet2 <-> vm2, vm3 <-> vnet2
struct TinyNetwork {
  std::unique_ptr<storage::GraphDb> db;
  Uid vnf1, vnf2, vfc1, vfc2, vfc3;
  Uid vm1, vm2, vm3;
  Uid host1, host2, sw1, sw2, rt1;
  Uid vnet1, vnet2, vrt1;
};

inline TinyNetwork MakeTinyNetwork(BackendKind kind) {
  schema::SchemaPtr schema = Figure3Schema();
  TinyNetwork net;
  net.db = std::make_unique<storage::GraphDb>(schema,
                                              MakeBackend(kind, schema));
  auto& db = *net.db;
  auto node = [&](const char* cls, const char* name) {
    auto r = db.AddNode(cls, {{"name", Value(name)}});
    if (!r.ok()) {
      fprintf(stderr, "AddNode(%s): %s\n", cls, r.status().ToString().c_str());
      abort();
    }
    return *r;
  };
  auto edge = [&](const char* cls, Uid s, Uid t) {
    auto r = db.AddEdge(cls, s, t, {});
    if (!r.ok()) {
      fprintf(stderr, "AddEdge(%s): %s\n", cls, r.status().ToString().c_str());
      abort();
    }
    return *r;
  };
  net.vnf1 = node("DNS", "vnf1");
  net.vnf2 = node("Firewall", "vnf2");
  net.vfc1 = node("VFC", "vfc1");
  net.vfc2 = node("VFC", "vfc2");
  net.vfc3 = node("VFC", "vfc3");
  net.vm1 = node("VMWare", "vm1");
  net.vm2 = node("OnMetal", "vm2");
  net.vm3 = node("VMWare", "vm3");
  net.host1 = node("Host", "host1");
  net.host2 = node("Host", "host2");
  net.sw1 = node("Switch", "sw1");
  net.sw2 = node("Switch", "sw2");
  net.rt1 = node("Router", "rt1");
  net.vnet1 = node("VirtualNetwork", "vnet1");
  net.vnet2 = node("VirtualNetwork", "vnet2");
  net.vrt1 = node("VirtualRouter", "vrt1");

  edge("composed_of", net.vnf1, net.vfc1);
  edge("composed_of", net.vnf1, net.vfc2);
  edge("composed_of", net.vnf2, net.vfc3);
  edge("hosted_on", net.vfc1, net.vm1);
  edge("hosted_on", net.vfc2, net.vm2);
  edge("hosted_on", net.vfc3, net.vm3);
  edge("OnServer", net.vm1, net.host1);
  edge("OnServer", net.vm2, net.host2);
  edge("OnServer", net.vm3, net.host2);

  auto both = [&](const char* cls, Uid a, Uid b) {
    edge(cls, a, b);
    edge(cls, b, a);
  };
  both("Connects", net.host1, net.sw1);
  both("Connects", net.sw1, net.sw2);
  both("Connects", net.sw2, net.host2);
  both("Connects", net.sw1, net.rt1);
  both("VirtualConnects", net.vm1, net.vnet1);
  both("VirtualConnects", net.vnet1, net.vrt1);
  both("VirtualConnects", net.vrt1, net.vnet2);
  both("VirtualConnects", net.vnet2, net.vm2);
  both("VirtualConnects", net.vm3, net.vnet2);
  return net;
}

}  // namespace nepal::testing

#endif  // NEPAL_TESTS_TESTUTIL_H_
