// Differential property tests.
//
// For randomized small graphs and randomized RPEs, three independent
// implementations must agree on the exact set of matching pathways:
//   1. the graphstore backend (traverser execution),
//   2. the relational backend (bulk-join execution),
//   3. a brute-force reference that enumerates every simple pathway and
//      checks it against the RPE with a direct nondeterministic simulation
//      of the paper's Section 3.3 semantics (four-way concatenation,
//      implicit endpoints, cycle-freedom).
//
// A second property checks temporal correctness: a timeslice query at time
// t over the full history must equal the same query on a fresh database
// holding only the elements alive at t.

#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nepal/engine.h"
#include "persist/durable_store.h"
#include "tests/testutil.h"
#include "views/view_catalog.h"

namespace nepal {
namespace {

using storage::ElementVersion;

// ---- Reference semantics ----

/// A pathway as a concrete alternating element sequence.
using Fragment = std::vector<ElementVersion>;

/// Nondeterministic simulation state: how many elements are consumed and
/// the kind of the last *atom-consumed* element.
struct SimState {
  size_t pos;
  enum class Last { kNone, kNode, kEdge } last;
  bool operator<(const SimState& o) const {
    return pos != o.pos ? pos < o.pos : last < o.last;
  }
};

void SimAtom(const storage::CompiledAtom& atom, const Fragment& frag,
             const SimState& s, std::set<SimState>* out) {
  const bool atom_is_edge = atom.is_edge();
  auto last_kind = s.last;
  bool same_kind =
      (last_kind == SimState::Last::kEdge && atom_is_edge) ||
      (last_kind == SimState::Last::kNode && !atom_is_edge);
  size_t pos = s.pos;
  if (last_kind == SimState::Last::kNone && atom_is_edge) {
    // Implicit head node before a leading edge atom.
    if (pos < frag.size() && !frag[pos].is_edge()) ++pos;
  } else if (same_kind) {
    // One implicit, unconstrained element between same-kind atoms.
    if (pos >= frag.size()) return;
    ++pos;
  }
  if (pos >= frag.size()) return;
  const ElementVersion& elem = frag[pos];
  if (elem.is_edge() != atom_is_edge) return;
  if (!atom.Matches(elem)) return;
  out->insert(SimState{pos + 1, atom_is_edge ? SimState::Last::kEdge
                                             : SimState::Last::kNode});
}

std::set<SimState> SimRpe(const nql::RpeNode& rpe, const Fragment& frag,
                          const std::set<SimState>& in) {
  switch (rpe.kind) {
    case nql::RpeNode::Kind::kAtom: {
      std::set<SimState> out;
      for (const SimState& s : in) SimAtom(rpe.atom, frag, s, &out);
      return out;
    }
    case nql::RpeNode::Kind::kSeq: {
      std::set<SimState> cur = in;
      for (const nql::RpeNode& child : rpe.children) {
        cur = SimRpe(child, frag, cur);
        if (cur.empty()) break;
      }
      return cur;
    }
    case nql::RpeNode::Kind::kAlt: {
      std::set<SimState> out;
      for (const nql::RpeNode& child : rpe.children) {
        std::set<SimState> branch = SimRpe(child, frag, in);
        out.insert(branch.begin(), branch.end());
      }
      return out;
    }
    case nql::RpeNode::Kind::kRep: {
      std::set<SimState> out;
      std::set<SimState> cur = in;
      if (rpe.min_rep == 0) out.insert(cur.begin(), cur.end());
      // A copy of the body that consumes nothing leaves a state as it is,
      // and every other copy consumes an element, so min_rep + |frag| + 1
      // rounds reach every state: a body that matches ε never has an empty
      // round to stop at.
      const int rounds = static_cast<int>(std::min<size_t>(
          static_cast<size_t>(rpe.max_rep),
          static_cast<size_t>(rpe.min_rep) + frag.size() + 1));
      for (int k = 1; k <= rounds && !cur.empty(); ++k) {
        cur = SimRpe(rpe.children[0], frag, cur);
        if (k >= rpe.min_rep) out.insert(cur.begin(), cur.end());
      }
      return out;
    }
  }
  return {};
}

bool ReferenceMatches(const nql::RpeNode& rpe, const Fragment& frag) {
  std::set<SimState> finals =
      SimRpe(rpe, frag, {SimState{0, SimState::Last::kNone}});
  for (const SimState& s : finals) {
    if (s.pos == frag.size()) return true;
    // Implicit tail node after a trailing edge atom.
    if (s.pos == frag.size() - 1 && s.last == SimState::Last::kEdge) {
      return true;
    }
  }
  return false;
}

// ---- Random graph and RPE generation ----

constexpr const char* kPropertySchema = R"(
node A : Node { val: int; }
node A1 : A {}
node B : Node { val: int; }
edge E : Edge { w: int; }
edge E1 : E {}
edge F : Edge { w: int; }
allow E (Node -> Node);
allow F (Node -> Node);
)";

struct RandomGraph {
  std::unique_ptr<storage::GraphDb> db;
  std::vector<Uid> nodes;
};

RandomGraph MakeRandomGraph(schema::SchemaPtr schema,
                            nepal::testing::BackendKind kind, Rng* rng,
                            int num_nodes, int num_edges) {
  RandomGraph g;
  g.db = std::make_unique<storage::GraphDb>(
      schema, nepal::testing::MakeBackend(kind, schema));
  const char* node_classes[] = {"A", "A1", "B"};
  const char* edge_classes[] = {"E", "E1", "F"};
  for (int i = 0; i < num_nodes; ++i) {
    auto uid = g.db->AddNode(
        node_classes[rng->Below(3)],
        {{"name", Value("n" + std::to_string(i))},
         {"val", Value(static_cast<int64_t>(rng->Below(4)))}});
    EXPECT_TRUE(uid.ok());
    g.nodes.push_back(*uid);
  }
  for (int i = 0; i < num_edges; ++i) {
    Uid s = g.nodes[rng->Below(g.nodes.size())];
    Uid t = g.nodes[rng->Below(g.nodes.size())];
    if (s == t) continue;
    auto uid = g.db->AddEdge(
        edge_classes[rng->Below(3)], s, t,
        {{"w", Value(static_cast<int64_t>(rng->Below(4)))}});
    EXPECT_TRUE(uid.ok());
  }
  return g;
}

nql::RpeNode RandomAtom(Rng* rng) {
  static const char* kNames[] = {"A", "A1", "B", "Node",
                                 "E", "E1", "F", "Edge"};
  std::string cls = kNames[rng->Below(8)];
  std::vector<nql::RawCondition> conds;
  if (rng->Chance(0.3)) {
    nql::RawCondition cond;
    bool is_edge = cls == "E" || cls == "E1" || cls == "F" || cls == "Edge";
    cond.field = is_edge ? "w" : "val";
    if (cls == "Node" || cls == "Edge") cond.field = "name";
    using Op = storage::FieldCondition::Op;
    if (cond.field == "name") {
      cond.op = Op::kNe;
      cond.value = Value("zzz");  // matches everything with a name
    } else {
      static const Op kOps[] = {Op::kEq, Op::kNe, Op::kLt, Op::kGe};
      cond.op = kOps[rng->Below(4)];
      cond.value = Value(static_cast<int64_t>(rng->Below(4)));
    }
    conds.push_back(std::move(cond));
  }
  return nql::RpeNode::Atom(std::move(cls), std::move(conds));
}

nql::RpeNode RandomRpe(Rng* rng, int depth) {
  if (depth == 0 || rng->Chance(0.4)) return RandomAtom(rng);
  switch (rng->Below(3)) {
    case 0: {  // Seq
      std::vector<nql::RpeNode> children;
      int n = 2 + static_cast<int>(rng->Below(2));
      for (int i = 0; i < n; ++i) {
        children.push_back(RandomRpe(rng, depth - 1));
      }
      return nql::RpeNode::Seq(std::move(children));
    }
    case 1: {  // Alt
      std::vector<nql::RpeNode> children;
      int n = 2 + static_cast<int>(rng->Below(2));
      for (int i = 0; i < n; ++i) {
        children.push_back(RandomRpe(rng, depth - 1));
      }
      return nql::RpeNode::Alt(std::move(children));
    }
    default: {  // Rep
      int min_rep = static_cast<int>(rng->Below(2));
      int max_rep = min_rep + 1 + static_cast<int>(rng->Below(2));
      return nql::RpeNode::Rep(RandomRpe(rng, depth - 1), min_rep, max_rep);
    }
  }
}

/// `rpe` with every repetition maximum set to `max_rep` (kUnboundedRep
/// opens them all).
nql::RpeNode WithRepetitionMax(nql::RpeNode rpe, int max_rep) {
  if (rpe.kind == nql::RpeNode::Kind::kRep) rpe.max_rep = max_rep;
  for (nql::RpeNode& child : rpe.children) {
    child = WithRepetitionMax(std::move(child), max_rep);
  }
  return rpe;
}

/// `rpe` with every open repetition maximum set to `max_rep`.
nql::RpeNode WithOpenMax(nql::RpeNode rpe, int max_rep) {
  if (rpe.kind == nql::RpeNode::Kind::kRep &&
      rpe.max_rep == nql::kUnboundedRep) {
    rpe.max_rep = max_rep;
  }
  for (nql::RpeNode& child : rpe.children) {
    child = WithOpenMax(std::move(child), max_rep);
  }
  return rpe;
}

/// Whether an open repetition's operator label names `kind` ("Loop",
/// "ExtendBlock"): the kind followed by *, + or {i,}.
bool IsOpen(const std::string& op, const std::string& kind) {
  if (op.rfind(kind, 0) != 0 || op.size() == kind.size()) return false;
  const char bound = op[kind.size()];
  return bound == '*' || bound == '+' ||
         (bound == '{' && op.find(",}") != std::string::npos);
}

/// Enumerates every simple pathway (as element sequences) up to
/// `max_elements`, in the current snapshot.
void EnumeratePathways(const storage::StorageBackend& backend,
                       const std::vector<Uid>& nodes, size_t max_elements,
                       std::vector<Fragment>* out) {
  storage::TimeView view = storage::TimeView::Current();
  std::function<void(Fragment&)> extend = [&](Fragment& frag) {
    out->push_back(frag);
    if (frag.size() + 2 > max_elements) return;
    Uid tail = frag.back().uid;
    std::vector<ElementVersion> edges;
    backend.IncidentEdges(tail, storage::Direction::kOut, nullptr, view,
                          [&](const ElementVersion& e) {
                            edges.push_back(e);
                          });
    for (const ElementVersion& e : edges) {
      bool cycle = false;
      for (const ElementVersion& seen : frag) {
        if (seen.uid == e.uid || seen.uid == e.target) cycle = true;
      }
      if (cycle) continue;
      ElementVersion far;
      bool found = false;
      backend.Get(e.target, view, [&](const ElementVersion& v) {
        far = v;
        found = true;
      });
      if (!found) continue;
      frag.push_back(e);
      frag.push_back(far);
      extend(frag);
      frag.pop_back();
      frag.pop_back();
    }
  };
  for (Uid n : nodes) {
    ElementVersion v;
    bool found = false;
    backend.Get(n, view, [&](const ElementVersion& ev) {
      v = ev;
      found = true;
    });
    if (!found) continue;
    Fragment frag = {v};
    extend(frag);
  }
}

std::string FragKey(const Fragment& frag) {
  std::string key;
  for (const ElementVersion& v : frag) {
    key += std::to_string(v.uid) + ",";
  }
  return key;
}

TEST(PropertyTest, BackendsAgreeWithReferenceSemantics) {
  schema::SchemaPtr schema = *schema::ParseSchemaDsl(kPropertySchema);
  Rng rng(20260704);
  int rpes_checked = 0;
  for (int round = 0; round < 60; ++round) {
    Rng graph_rng(rng.Next());
    RandomGraph g1 = MakeRandomGraph(schema,
                                     nepal::testing::BackendKind::kGraphStore,
                                     &graph_rng, 10, 18);

    // Build the relational twin with the same structure by copying
    // elements from the graphstore instance.
    auto g2db = std::make_unique<storage::GraphDb>(
        schema, nepal::testing::MakeBackend(
                    nepal::testing::BackendKind::kRelational, schema));
    {
      std::vector<ElementVersion> all_nodes, all_edges;
      storage::ScanSpec spec;
      spec.cls = schema->node_root();
      g1.db->backend().Scan(spec, storage::TimeView::Current(),
                            [&](const ElementVersion& v) {
                              all_nodes.push_back(v);
                            });
      spec.cls = schema->edge_root();
      g1.db->backend().Scan(spec, storage::TimeView::Current(),
                            [&](const ElementVersion& v) {
                              all_edges.push_back(v);
                            });
      std::sort(all_nodes.begin(), all_nodes.end(),
                [](const auto& a, const auto& b) { return a.uid < b.uid; });
      std::sort(all_edges.begin(), all_edges.end(),
                [](const auto& a, const auto& b) { return a.uid < b.uid; });
      std::map<Uid, Uid> remap;
      for (const ElementVersion& v : all_nodes) {
        schema::FieldValues fields;
        for (size_t i = 0; i < v.fields.size(); ++i) {
          fields.emplace_back(v.cls->fields()[i].name, v.fields[i]);
        }
        remap[v.uid] = *g2db->AddNode(v.cls->name(), fields);
        ASSERT_EQ(remap[v.uid], v.uid);  // same insertion order => same uids
      }
      for (const ElementVersion& v : all_edges) {
        schema::FieldValues fields;
        for (size_t i = 0; i < v.fields.size(); ++i) {
          fields.emplace_back(v.cls->fields()[i].name, v.fields[i]);
        }
        auto uid = g2db->AddEdge(v.cls->name(), remap[v.source],
                                 remap[v.target], fields);
        ASSERT_TRUE(uid.ok());
        ASSERT_EQ(*uid, v.uid);
      }
    }

    // All simple pathways once per graph.
    std::vector<Fragment> pathways;
    EnumeratePathways(g1.db->backend(), g1.nodes, 7, &pathways);

    nql::QueryEngine engine1(g1.db.get());
    nql::QueryEngine engine2(g2db.get());

    for (int r = 0; r < 8; ++r) {
      nql::RpeNode rpe = nql::Normalize(RandomRpe(&rng, 2));
      nql::RpeNode resolved = rpe;
      if (!nql::ResolveRpe(*schema, 8, &resolved).ok()) continue;
      // Bound the total length so the reference enumeration covers it.
      if (nql::MaxAtoms(resolved) > 3) continue;

      std::set<std::string> expected;
      for (const Fragment& frag : pathways) {
        if (ReferenceMatches(resolved, frag)) expected.insert(FragKey(frag));
      }

      std::string query =
          "Retrieve P From PATHS P Where P MATCHES " + rpe.ToString();
      auto check = [&](nql::QueryEngine& engine,
                       const char* which) -> bool {
        auto result = engine.Run(query);
        if (!result.ok()) {
          // Unanchorable RPEs are legitimately rejected; the property
          // only covers plannable queries.
          EXPECT_EQ(result.status().code(), StatusCode::kPlanError)
              << which << ": " << result.status() << "\nrpe: "
              << rpe.ToString();
          return false;
        }
        std::set<std::string> actual;
        for (const auto& row : result->rows) {
          std::string key;
          for (Uid u : row.paths[0].uids) key += std::to_string(u) + ",";
          actual.insert(key);
        }
        EXPECT_EQ(actual, expected)
            << which << " disagrees with reference\nrpe: " << rpe.ToString()
            << "\nround " << round << " rpe#" << r;
        return true;
      };
      bool planned = check(engine1, "graphstore");
      check(engine2, "relational");
      if (planned) ++rpes_checked;
    }
  }
  // The property is vacuous if everything got rejected; make sure a healthy
  // number of RPEs was actually exercised.
  EXPECT_GT(rpes_checked, 150);
}

TEST(PropertyTest, BackendsAgreeOnTimeRangeQueries) {
  // Range queries branch over versions and coalesce maximal intervals;
  // the two backends must produce identical (pathway, interval) sets.
  schema::SchemaPtr schema = *schema::ParseSchemaDsl(kPropertySchema);
  Rng rng(9001);
  const Timestamp base = *ParseTimestamp("2017-04-01 00:00:00");
  for (int round = 0; round < 15; ++round) {
    auto make_db = [&](nepal::testing::BackendKind kind) {
      return std::make_unique<storage::GraphDb>(
          schema, nepal::testing::MakeBackend(kind, schema));
    };
    auto db1 = make_db(nepal::testing::BackendKind::kGraphStore);
    auto db2 = make_db(nepal::testing::BackendKind::kRelational);
    Rng ops_rng(rng.Next());
    // Identical random op streams into both databases.
    std::vector<Uid> nodes;
    for (int step = 0; step < 60; ++step) {
      Timestamp t = base + static_cast<Timestamp>(step) * 1000000;
      ASSERT_TRUE(db1->SetTime(t).ok());
      ASSERT_TRUE(db2->SetTime(t).ok());
      double dice = ops_rng.NextDouble();
      if (dice < 0.4 || nodes.size() < 2) {
        const char* cls = ops_rng.Chance(0.5) ? "A" : "B";
        schema::FieldValues f = {
            {"name", Value("n" + std::to_string(step))},
            {"val", Value(static_cast<int64_t>(ops_rng.Below(3)))}};
        Uid u1 = *db1->AddNode(cls, f);
        Uid u2 = *db2->AddNode(cls, f);
        ASSERT_EQ(u1, u2);
        nodes.push_back(u1);
      } else if (dice < 0.7) {
        Uid s = nodes[ops_rng.Below(nodes.size())];
        Uid t2 = nodes[ops_rng.Below(nodes.size())];
        if (s == t2) continue;
        auto e1 = db1->AddEdge("E", s, t2, {});
        auto e2 = db2->AddEdge("E", s, t2, {});
        ASSERT_EQ(e1.ok(), e2.ok());
      } else if (dice < 0.9) {
        Uid u = nodes[ops_rng.Below(nodes.size())];
        Value v(static_cast<int64_t>(ops_rng.Below(3)));
        Status s1 = db1->UpdateElement(u, {{"val", v}});
        Status s2 = db2->UpdateElement(u, {{"val", v}});
        ASSERT_EQ(s1.ok(), s2.ok());
      } else {
        Uid u = nodes[ops_rng.Below(nodes.size())];
        Status s1 = db1->RemoveElement(u);
        Status s2 = db2->RemoveElement(u);
        ASSERT_EQ(s1.ok(), s2.ok());
      }
    }
    nql::QueryEngine e1(db1.get()), e2(db2.get());
    std::string range = "AT '" + FormatTimestamp(base) + "' : '" +
                        FormatTimestamp(base + 70 * 1000000) + "' ";
    for (const char* q :
         {"Retrieve P From PATHS P Where P MATCHES A(val<2)",
          "Retrieve P From PATHS P Where P MATCHES A()->E()->B()",
          "Retrieve P From PATHS P Where P MATCHES Node(name<>'zz')->"
          "[E()]{1,2}->Node(name<>'zz')"}) {
      auto r1 = e1.Run(range + q);
      auto r2 = e2.Run(range + q);
      ASSERT_TRUE(r1.ok()) << r1.status();
      ASSERT_TRUE(r2.ok()) << r2.status();
      std::multiset<std::string> s1, s2;
      for (const auto& row : r1->rows) {
        s1.insert(row.paths[0].ToString() + row.valid.ToString());
      }
      for (const auto& row : r2->rows) {
        s2.insert(row.paths[0].ToString() + row.valid.ToString());
      }
      EXPECT_EQ(s1, s2) << q;
    }
  }
}

TEST(PropertyTest, OpenRepetitionsAgreeWithSaturatedLoops) {
  // An open repetition ({m,}) runs as an open Loop: an ExtendBlock when its
  // body is one atom or an alternation of atoms, a Loop over its body
  // program (rewritten when it can match ε) otherwise. On a graph of N nodes
  // a simple pathway has at most 2N-1 elements, so 2N-1 rounds saturate
  // every repetition: the RPE with every maximum opened and the same RPE
  // with every maximum set to 2N-1 must return byte-identical rows
  // (pathway and validity interval), on both backends, under Current,
  // AsOf, and Range views. N stays at 16 or below, so 2N-1 is within the
  // default length limit.
  schema::SchemaPtr schema = *schema::ParseSchemaDsl(kPropertySchema);
  Rng rng(20260808);
  const Timestamp base = *ParseTimestamp("2017-04-01 00:00:00");
  constexpr size_t kMaxNodes = 16;
  int checked = 0;
  // Open RPEs (Current view) that ran an open Loop over a general body /
  // an open ExtendBlock.
  int ran_general_loop = 0, ran_open_loop = 0;
  for (auto kind : {nepal::testing::BackendKind::kGraphStore,
                    nepal::testing::BackendKind::kRelational}) {
    for (int round = 0; round < 8; ++round) {
      auto db = std::make_unique<storage::GraphDb>(
          schema, nepal::testing::MakeBackend(kind, schema));
      Rng ops_rng(rng.Next());
      // A temporal op stream, so the AsOf and Range views see a graph
      // that genuinely differs from the current snapshot.
      std::vector<Uid> nodes;
      for (int step = 0; step < 50; ++step) {
        Timestamp t = base + static_cast<Timestamp>(step) * 1000000;
        ASSERT_TRUE(db->SetTime(t).ok());
        double dice = ops_rng.NextDouble();
        if ((dice < 0.45 || nodes.size() < 2) && nodes.size() < kMaxNodes) {
          const char* cls = ops_rng.Chance(0.5) ? "A" : "B";
          auto u = db->AddNode(
              cls, {{"name", Value("n" + std::to_string(step))},
                    {"val", Value(static_cast<int64_t>(ops_rng.Below(3)))}});
          ASSERT_TRUE(u.ok());
          nodes.push_back(*u);
        } else if (dice < 0.8) {
          Uid s = nodes[ops_rng.Below(nodes.size())];
          Uid t2 = nodes[ops_rng.Below(nodes.size())];
          if (s == t2) continue;
          (void)db->AddEdge(
              ops_rng.Chance(0.5) ? "E" : "F", s, t2,
              {{"w", Value(static_cast<int64_t>(ops_rng.Below(3)))}});
        } else {
          (void)db->RemoveElement(nodes[ops_rng.Below(nodes.size())]);
        }
      }
      // Removed nodes count too: Range views still see them.
      const int saturated = 2 * static_cast<int>(nodes.size()) - 1;
      nql::QueryEngine engine(db.get());
      std::string asof = "AT '" + FormatTimestamp(base + 30 * 1000000) + "' ";
      std::string range = "AT '" + FormatTimestamp(base + 10 * 1000000) +
                          "' : '" + FormatTimestamp(base + 45 * 1000000) +
                          "' ";
      for (int r = 0; r < 20; ++r) {
        nql::RpeNode rpe = nql::Normalize(RandomRpe(&rng, 2));
        const std::string open =
            "Retrieve P From PATHS P Where P MATCHES " +
            WithRepetitionMax(rpe, nql::kUnboundedRep).ToString();
        const std::string bounded =
            "Retrieve P From PATHS P Where P MATCHES " +
            WithRepetitionMax(rpe, saturated).ToString();
        if (open == bounded) continue;  // no repetition to compare
        for (const std::string& prefix : {std::string(), asof, range}) {
          auto r1 = engine.Run(prefix + open);
          if (r1.ok() && prefix.empty()) {
            bool general = false, loop = false;
            for (const auto& op : engine.LastQueryStats().operators) {
              general = general || IsOpen(op.op, "Loop");
              loop = loop || IsOpen(op.op, "ExtendBlock");
            }
            ran_general_loop += general ? 1 : 0;
            ran_open_loop += loop ? 1 : 0;
          }
          auto r2 = engine.Run(prefix + bounded);
          ASSERT_EQ(r1.ok(), r2.ok())
              << open << "\nopen: " << r1.status() << "\nsaturated: "
              << r2.status();
          if (!r1.ok()) continue;
          // Row order is not part of the contract (the serial executors
          // emit in evaluation order); row *content* is — compare the
          // sorted serializations byte for byte.
          auto rows = [](const nql::QueryResult& res) {
            std::vector<std::string> out;
            for (const auto& row : res.rows) {
              out.push_back(row.paths[0].ToString() + " " +
                            row.valid.ToString());
            }
            std::sort(out.begin(), out.end());
            return out;
          };
          EXPECT_EQ(rows(*r1), rows(*r2))
              << open << "\nview prefix: '" << prefix << "'";
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 100);
  // Both kinds of open Loop ran (random bodies are mostly atoms or atom
  // alternations, so general bodies are the rarer).
  EXPECT_GE(ran_general_loop, 5);
  EXPECT_GE(ran_open_loop, 40);
}

/// `program` with every open Loop bounded at `max_rep` rounds, without its
/// goal filter. Returns the Loops bounded.
int SaturateOpenLoops(nql::Program* program, int max_rep) {
  int bounded = 0;
  for (nql::Step& step : *program) {
    for (nql::Program& branch : step.branches) {
      bounded += SaturateOpenLoops(&branch, max_rep);
    }
    if (step.kind != nql::Step::Kind::kLoop) continue;
    bounded += SaturateOpenLoops(&step.body, max_rep);
    if (step.max_rep != nql::kUnboundedRep) continue;
    step.max_rep = max_rep;
    step.open_goal = false;
    ++bounded;
  }
  return bounded;
}

/// Whether some step of `program` is an open Loop with a goal filter.
bool HasOpenGoal(const nql::Program& program) {
  for (const nql::Step& step : program) {
    if (step.kind == nql::Step::Kind::kLoop && step.open_goal) return true;
  }
  return false;
}

TEST(PropertyTest, UnboundedLoopAgreesWithSaturatedLoop) {
  // An open repetition whose body is one atom or an alternation of atoms
  // runs as a Loop, ended by its first empty round and, before a node
  // atom, handing on only goal-ending paths. On a graph of N nodes no
  // simple path has more than 2N-1 elements, so the same plan with each
  // open Loop bounded at 2N-1 rounds (no goal filter) must return the same
  // rows, validity intervals included, on both backends under Current,
  // AsOf and Range views; a one-atom body in the same order as well. The
  // repetition sits after the anchor (suffix) or before it (reversed
  // prefix), with or without a node atom on its far side.
  schema::SchemaPtr schema = *schema::ParseSchemaDsl(kPropertySchema);
  Rng rng(20261018);
  const Timestamp base = *ParseTimestamp("2017-04-01 00:00:00");
  constexpr size_t kMaxNodes = 16;
  // One edge atom, one node atom, two edge atoms, a node and an edge atom,
  // a class and its subclass.
  static const std::vector<std::vector<std::string>> kBodies = {
      {"E()", "F()", "Edge()", "E(w<2)"},
      {"A()", "Node()", "B(val<>1)"},
      {"E()|F()", "E1()|F(w<>1)"},
      {"A()|E()", "Node()|F()"},
      {"E()|E1()", "A()|A1()"}};
  static const char* kBounds[] = {"*", "+", "{2,}"};
  static const char* kGoals[] = {"A()", "B()", "A1()"};
  int checked = 0, nonempty = 0, ordered = 0, goal_filtered = 0;
  int by_side[2] = {0, 0};
  for (auto kind : {nepal::testing::BackendKind::kGraphStore,
                    nepal::testing::BackendKind::kRelational}) {
    for (int round = 0; round < 8; ++round) {
      storage::GraphDb db(schema, nepal::testing::MakeBackend(kind, schema));
      Rng ops(rng.Next());
      // Anchors are drawn from the live nodes; Range views see the removed
      // ones too.
      std::vector<Uid> nodes, removed;
      for (int step = 0; step < 60; ++step) {
        ASSERT_TRUE(
            db.SetTime(base + static_cast<Timestamp>(step) * 1000000).ok());
        const double dice = ops.NextDouble();
        if ((dice < 0.3 || nodes.size() < 2) &&
            nodes.size() + removed.size() < kMaxNodes) {
          const char* cls = ops.Chance(0.5) ? "A" : (ops.Chance(0.5) ? "A1"
                                                                     : "B");
          auto u = db.AddNode(
              cls, {{"name", Value("n" + std::to_string(step))},
                    {"val", Value(static_cast<int64_t>(ops.Below(3)))}});
          ASSERT_TRUE(u.ok());
          nodes.push_back(*u);
        } else if (dice < 0.95) {
          const Uid s = nodes[ops.Below(nodes.size())];
          const Uid t = nodes[ops.Below(nodes.size())];
          const char* cls = ops.Chance(0.5) ? "E" : (ops.Chance(0.5) ? "E1"
                                                                     : "F");
          const int64_t w = static_cast<int64_t>(ops.Below(3));
          if (s != t) (void)db.AddEdge(cls, s, t, {{"w", Value(w)}});
        } else if (nodes.size() > 2) {
          const size_t gone = ops.Below(nodes.size());
          if (db.RemoveElement(nodes[gone]).ok()) {
            removed.push_back(nodes[gone]);
            nodes.erase(nodes.begin() + static_cast<std::ptrdiff_t>(gone));
          }
        }
      }
      // Removed nodes count too: Range views still see them.
      const int max_rep =
          2 * static_cast<int>(nodes.size() + removed.size()) - 1;
      const storage::TimeView views[] = {
          storage::TimeView::Current(),
          storage::TimeView::AsOf(base + 30 * 1000000),
          storage::TimeView::Range(base + 10 * 1000000, base + 45 * 1000000)};
      nql::LockedExecutor exec(&db, db.backend().CreateExecutor());
      for (int r = 0; r < 24; ++r) {
        // One draw per statement, so the sequence does not depend on the
        // compiler's operand evaluation order.
        const size_t shape = rng.Below(kBodies.size());
        const std::string body =
            kBodies[shape][rng.Below(kBodies[shape].size())];
        const std::string rep = "[" + body + "]" + kBounds[rng.Below(3)];
        const std::string anchor =
            "Node(id=" + std::to_string(nodes[rng.Below(nodes.size())]) + ")";
        const bool goal = rng.Chance(0.5);
        const std::string far = kGoals[rng.Below(3)];
        const bool suffix = rng.Chance(0.5);
        std::string text =
            suffix ? anchor + "->" + rep : rep + "->" + anchor;
        if (goal) text = suffix ? text + "->" + far : far + "->" + text;
        auto parsed = nql::ParseRpe(text);
        ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << text;
        nql::RpeNode resolved = nql::Normalize(*parsed);
        ASSERT_TRUE(nql::ResolveRpe(*schema, 32, &resolved).ok()) << text;
        for (const storage::TimeView& view : views) {
          auto loops = nql::PlanMatch(resolved, db.backend(),
                                      nql::PlanOptions{32, 1}, view);
          ASSERT_TRUE(loops.ok()) << loops.status() << "\n" << text;
          nql::MatchPlan saturated = *loops;
          int bounded = 0;
          bool filtered = false;
          for (nql::AnchoredPlan& anchored : saturated.anchors) {
            filtered = filtered || HasOpenGoal(anchored.suffix) ||
                       HasOpenGoal(anchored.reversed_prefix);
            const int forwards = SaturateOpenLoops(&anchored.suffix, max_rep);
            const int backwards =
                SaturateOpenLoops(&anchored.reversed_prefix, max_rep);
            by_side[0] += forwards;
            by_side[1] += backwards;
            bounded += forwards + backwards;
          }
          if (bounded == 0) continue;  // the plan has no open Loop
          auto rows = [&](nql::MatchPlan& plan) {
            std::vector<std::string> out;
            for (const storage::PathState& p : nql::ExecuteMatch(
                     exec, plan, view, nql::PlanOptions{32, 1})) {
              out.push_back(p.ToString() + " " + p.valid.ToString());
            }
            return out;
          };
          std::vector<std::string> got = rows(*loops);
          std::vector<std::string> want = rows(saturated);
          if (shape == 0 || shape == 1) {
            EXPECT_EQ(got, want) << text;
            ++ordered;
          }
          std::sort(got.begin(), got.end());
          std::sort(want.begin(), want.end());
          EXPECT_EQ(got, want) << text;
          ++checked;
          if (!got.empty()) ++nonempty;
          if (filtered) ++goal_filtered;
        }
      }
    }
  }
  // Not vacuous: most plans ran, half of them found paths, and open Loops
  // ran on both sides of the anchor and with their goal filter.
  EXPECT_GT(checked, 1000);
  EXPECT_GT(nonempty, 450);
  EXPECT_GT(ordered, 350);
  EXPECT_GT(goal_filtered, 150);
  EXPECT_GT(by_side[0], 400);
  EXPECT_GT(by_side[1], 400);
}

bool MatchesEmpty(const nql::Program& program);

/// Whether `step` can match the empty sequence.
bool MatchesEmpty(const nql::Step& step) {
  switch (step.kind) {
    case nql::Step::Kind::kAtom:
      return false;
    case nql::Step::Kind::kUnion:
      return std::any_of(
          step.branches.begin(), step.branches.end(),
          [](const nql::Program& branch) { return MatchesEmpty(branch); });
    case nql::Step::Kind::kLoop:
      return step.min_rep == 0 || MatchesEmpty(step.body);
  }
  return false;
}

bool MatchesEmpty(const nql::Program& program) {
  return std::all_of(program.begin(), program.end(),
                     [](const nql::Step& step) { return MatchesEmpty(step); });
}

/// The open Loops of `program` at any depth; fails the test for one whose
/// body can match ε (its rounds would never end).
int CheckedOpenLoops(const nql::Program& program) {
  int open = 0;
  for (const nql::Step& step : program) {
    for (const nql::Program& branch : step.branches) {
      open += CheckedOpenLoops(branch);
    }
    if (step.kind != nql::Step::Kind::kLoop) continue;
    open += CheckedOpenLoops(step.body);
    if (step.max_rep != nql::kUnboundedRep) continue;
    EXPECT_FALSE(MatchesEmpty(step.body)) << nql::ProgramToString(step.body);
    ++open;
  }
  return open;
}

TEST(PropertyTest, RewrittenOpenBodiesAgreeWithSaturatedLoops) {
  // Open repetitions over general bodies: bodies that can match ε, which
  // the planner replaces by their non-empty part; a nested open body,
  // which it also flattens; a mixed-length body, whose Loop skips the
  // paths earlier collected rounds reached; and a fixed-length one. On a
  // graph of N nodes each must return the rows of its saturated form
  // (every open maximum at 2N-1: bounded Loops, no rewrite, no memo),
  // validity intervals included, on both backends under Current, AsOf and
  // Range views, and under Current exactly the reference matches. The
  // repetition sits after the anchor or before it (a reversed prefix), and
  // no open Loop body of any plan can match ε. Odd rounds run at
  // parallelism 4.
  struct Body {
    const char* text;
    bool rewritten;  // the planner rewrites it
  };
  static const Body kBodies[] = {
      {"[[E()]{0,2}]*", true},
      {"[E()|[F()]{0,1}]{2,}", true},
      {"[[A()]{0,1}->[E()]{0,1}]*", true},
      {"[[E()]*->[F()]*]{3,}", true},
      {"[E()|E()->Node()->E()]{3,}", false},
      {"[[E()->Node()]*]+", true},
      {"[E()->Node()]*", false}};
  schema::SchemaPtr schema = *schema::ParseSchemaDsl(kPropertySchema);
  Rng rng(20261019);
  const Timestamp base = *ParseTimestamp("2017-04-01 00:00:00");
  constexpr size_t kMaxNodes = 7;
  int checked = 0, nonempty = 0, rewritten = 0;
  for (auto kind : {nepal::testing::BackendKind::kGraphStore,
                    nepal::testing::BackendKind::kRelational}) {
    for (int round = 0; round < 6; ++round) {
      storage::GraphDb db(schema, nepal::testing::MakeBackend(kind, schema));
      Rng ops(rng.Next());
      // Anchors and reference paths start at the live nodes; Range views
      // see the removed elements too.
      std::vector<Uid> nodes, edges;
      size_t created = 0;
      for (int step = 0; step < 36; ++step) {
        ASSERT_TRUE(
            db.SetTime(base + static_cast<Timestamp>(step) * 1000000).ok());
        const double dice = ops.NextDouble();
        if ((dice < 0.3 || nodes.size() < 3) && created < kMaxNodes) {
          const char* cls = ops.Chance(0.5) ? "A" : (ops.Chance(0.5) ? "A1"
                                                                     : "B");
          auto u = db.AddNode(
              cls, {{"name", Value("n" + std::to_string(step))},
                    {"val", Value(static_cast<int64_t>(ops.Below(3)))}});
          ASSERT_TRUE(u.ok());
          nodes.push_back(*u);
          ++created;
        } else if (dice < 0.9 || edges.empty()) {
          const Uid s = nodes[ops.Below(nodes.size())];
          const Uid t = nodes[ops.Below(nodes.size())];
          const char* cls = ops.Chance(0.5) ? "E" : (ops.Chance(0.5) ? "E1"
                                                                     : "F");
          const int64_t w = static_cast<int64_t>(ops.Below(3));
          if (s == t) continue;
          auto e = db.AddEdge(cls, s, t, {{"w", Value(w)}});
          if (e.ok()) edges.push_back(*e);
        } else if (ops.Chance(0.8) || nodes.size() <= 3) {
          // Fails for an edge its node's removal already took.
          const size_t gone = ops.Below(edges.size());
          (void)db.RemoveElement(edges[gone]);
          edges.erase(edges.begin() + static_cast<std::ptrdiff_t>(gone));
        } else {
          const size_t gone = ops.Below(nodes.size());
          ASSERT_TRUE(db.RemoveElement(nodes[gone]).ok());
          nodes.erase(nodes.begin() + static_cast<std::ptrdiff_t>(gone));
        }
      }
      const int max_rep = 2 * static_cast<int>(created) - 1;
      std::vector<Fragment> pathways;
      EnumeratePathways(db.backend(), nodes, static_cast<size_t>(max_rep),
                        &pathways);
      nql::EngineOptions options;
      options.plan.parallelism = round % 2 == 0 ? 1 : 4;
      nql::QueryEngine engine(&db, options);
      const std::string asof = "AT '" + FormatTimestamp(base + 20 * 1000000) +
                               "' ";
      const std::string range = "AT '" + FormatTimestamp(base + 5 * 1000000) +
                                "' : '" +
                                FormatTimestamp(base + 30 * 1000000) + "' ";
      for (const Body& body : kBodies) {
        for (const bool suffix : {true, false}) {
          const std::string anchor =
              "Node(id=" + std::to_string(nodes[rng.Below(nodes.size())]) +
              ")";
          const std::string text = suffix ? anchor + "->" + body.text
                                          : std::string(body.text) + "->" +
                                                anchor;
          auto parsed = nql::ParseRpe(text);
          ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << text;
          const nql::RpeNode rpe = nql::Normalize(*parsed);
          nql::RpeNode resolved = rpe;
          ASSERT_TRUE(nql::ResolveRpe(*schema, 32, &resolved).ok()) << text;
          auto plan = nql::PlanMatch(resolved, db.backend(),
                                     nql::PlanOptions{32, 1});
          ASSERT_TRUE(plan.ok()) << plan.status() << "\n" << text;
          int open = 0;
          for (const nql::AnchoredPlan& anchored : plan->anchors) {
            open += CheckedOpenLoops(anchored.suffix) +
                    CheckedOpenLoops(anchored.reversed_prefix);
          }
          if (body.rewritten && open > 0) ++rewritten;

          std::set<std::string> expected;
          for (const Fragment& frag : pathways) {
            if (ReferenceMatches(resolved, frag)) {
              expected.insert(FragKey(frag));
            }
          }
          const std::string query = "Retrieve P From PATHS P Where P MATCHES ";
          const std::string saturated = WithOpenMax(rpe, max_rep).ToString();
          for (const std::string& prefix : {std::string(), asof, range}) {
            auto got = engine.Run(prefix + query + rpe.ToString());
            ASSERT_TRUE(got.ok()) << got.status() << "\n" << text;
            auto want = engine.Run(prefix + query + saturated);
            ASSERT_TRUE(want.ok()) << want.status() << "\n" << saturated;
            auto rows = [](const nql::QueryResult& result) {
              std::vector<std::string> out;
              for (const auto& row : result.rows) {
                out.push_back(row.paths[0].ToString() + " " +
                              row.valid.ToString());
              }
              std::sort(out.begin(), out.end());
              return out;
            };
            EXPECT_EQ(rows(*got), rows(*want))
                << text << "\nview prefix: '" << prefix << "'";
            if (prefix.empty()) {
              std::set<std::string> keys;
              for (const auto& row : got->rows) {
                std::string key;
                for (Uid u : row.paths[0].uids) key += std::to_string(u) + ",";
                keys.insert(key);
              }
              EXPECT_EQ(keys, expected) << text;
            }
            ++checked;
            if (!got->rows.empty()) ++nonempty;
          }
        }
      }
    }
  }
  // Not vacuous: every body ran on every graph, most of them found paths,
  // and the rewritten bodies were planned as open Loops.
  EXPECT_GE(checked, 500);
  EXPECT_GE(nonempty, 300);
  EXPECT_GE(rewritten, 100);
}

/// One random temporal graph, loaded into both stores by one op stream
/// (seeded by `seed`) a second apart from `base`: 10 nodes of A, A1 or B,
/// `num_edges` E, E1 or F edges between random distinct nodes, then 12
/// steps of churn that add edges or remove edges and nodes. `mid` is the
/// time the churn starts. Random edges leave dead ends and close cycles.
struct TemporalGraphPair {
  std::unique_ptr<storage::GraphDb> dbs[2];  // by BackendKind
  std::vector<Uid> nodes;
  Timestamp mid = 0;
};

TemporalGraphPair MakeTemporalGraphPair(schema::SchemaPtr schema,
                                        uint64_t seed, int num_edges,
                                        Timestamp base) {
  static const char* kNodeClasses[] = {"A", "A1", "B"};
  TemporalGraphPair g;
  for (auto kind : {nepal::testing::BackendKind::kGraphStore,
                    nepal::testing::BackendKind::kRelational}) {
    g.dbs[static_cast<int>(kind)] = std::make_unique<storage::GraphDb>(
        schema, nepal::testing::MakeBackend(kind, schema));
  }
  Rng ops(seed);
  std::vector<Uid> edges;
  int step = 0;
  auto apply = [&](const std::function<Result<Uid>(storage::GraphDb&)>& op)
      -> std::optional<Uid> {
    const Timestamp t = base + static_cast<Timestamp>(step++) * 1000000;
    std::vector<Result<Uid>> results;
    for (auto& db : g.dbs) {
      EXPECT_TRUE(db->SetTime(t).ok());
      results.push_back(op(*db));
    }
    EXPECT_EQ(results[0].ok(), results[1].ok());
    if (!results[0].ok() || !results[1].ok()) return std::nullopt;
    EXPECT_EQ(*results[0], *results[1]);
    return *results[0];
  };
  for (int i = 0; i < 10; ++i) {
    const char* cls = kNodeClasses[ops.Below(3)];
    const int64_t val = static_cast<int64_t>(ops.Below(4));
    auto uid = apply([&](storage::GraphDb& db) {
      return db.AddNode(cls, {{"name", Value("n" + std::to_string(i))},
                              {"val", Value(val)}});
    });
    if (uid) g.nodes.push_back(*uid);
  }
  auto add_edge = [&] {
    const Uid s = g.nodes[ops.Below(g.nodes.size())];
    const Uid t = g.nodes[ops.Below(g.nodes.size())];
    const char* cls = ops.Chance(0.5) ? "E" : (ops.Chance(0.5) ? "E1" : "F");
    const int64_t w = static_cast<int64_t>(ops.Below(4));
    if (s == t) return;
    auto uid = apply([&](storage::GraphDb& db) {
      return db.AddEdge(cls, s, t, {{"w", Value(w)}});
    });
    if (uid) edges.push_back(*uid);
  };
  for (int i = 0; i < num_edges; ++i) add_edge();
  g.mid = base + static_cast<Timestamp>(step) * 1000000;
  for (int i = 0; i < 12; ++i) {
    if (ops.Chance(0.4)) {
      add_edge();
    } else if (!edges.empty() || ops.Chance(0.2)) {
      const Uid gone = ops.Chance(0.8) && !edges.empty()
                           ? edges[ops.Below(edges.size())]
                           : g.nodes[ops.Below(g.nodes.size())];
      apply([&](storage::GraphDb& db) -> Result<Uid> {
        Status st = db.RemoveElement(gone);
        if (!st.ok()) return st;
        return gone;
      });
    }
  }
  return g;
}

TEST(PropertyTest, GoalDirectedRepetitionsAgree) {
  // N(id=x)->[e()|f()]{i,j}->M(id=y) is a goal-directed Loop: whichever
  // end anchors, the other end is the goal each round is pruned against.
  // Under Current both backends must return exactly the reference matches;
  // under AsOf and Range they must agree with each other, validity
  // intervals included; and every answer must be the same at parallelism 1
  // and 4. Odd rounds use denser graphs, whose wider rounds shard.
  schema::SchemaPtr schema = *schema::ParseSchemaDsl(kPropertySchema);
  Rng rng(20261017);
  const Timestamp base = *ParseTimestamp("2017-04-01 00:00:00");
  static const char* kNodeAtoms[] = {"A", "A1", "B", "Node"};
  static const char* kEdgeAtoms[] = {"E()", "E1()", "F()", "Edge()",
                                     "E(w<2)", "F(w<>1)"};
  nql::EngineOptions serial;
  serial.plan.parallelism = 1;
  nql::EngineOptions wide;
  wide.plan.parallelism = 4;
  int checked = 0, nonempty = 0;
  // By anchor side: the goal after / before the anchor.
  int anchored[2] = {0, 0};
  int labelled[2] = {0, 0};
  for (int round = 0; round < 30; ++round) {
    TemporalGraphPair graph =
        MakeTemporalGraphPair(schema, rng.Next(), round % 2 == 1 ? 36 : 18,
                              base);
    auto& dbs = graph.dbs;
    const std::vector<Uid>& nodes = graph.nodes;
    const Timestamp mid = graph.mid;
    const std::string asof = "AT '" + FormatTimestamp(mid) + "' ";
    const std::string range = "AT '" + FormatTimestamp(base + 5000000) +
                              "' : '" + FormatTimestamp(mid + 8000000) + "' ";

    std::vector<Fragment> pathways;
    EnumeratePathways(dbs[0]->backend(), nodes, 7, &pathways);
    std::vector<std::unique_ptr<nql::QueryEngine>> engines;
    for (auto& db : dbs) {
      engines.push_back(std::make_unique<nql::QueryEngine>(db.get(), serial));
      engines.push_back(std::make_unique<nql::QueryEngine>(db.get(), wide));
    }

    for (int r = 0; r < 12; ++r) {
      const Uid x = nodes[rng.Below(nodes.size())];
      const Uid y = nodes[rng.Below(nodes.size())];
      if (x == y) continue;
      // One draw per statement, so the sequence does not depend on the
      // compiler's operand evaluation order.
      const char* n = rng.Chance(0.5) ? "Node" : kNodeAtoms[rng.Below(4)];
      const char* e = kEdgeAtoms[rng.Below(6)];
      const char* f = kEdgeAtoms[rng.Below(6)];
      const uint64_t min_rep = rng.Below(2);
      const uint64_t max_rep = 1 + rng.Below(3);
      const char* m = rng.Chance(0.5) ? "Node" : kNodeAtoms[rng.Below(4)];
      const std::string rpe_text =
          std::string(n) + "(id=" + std::to_string(x) + ")->[" + e + "|" +
          f + "]{" + std::to_string(min_rep) + "," + std::to_string(max_rep) +
          "}->" + m + "(id=" + std::to_string(y) + ")";
      auto parsed = nql::ParseRpe(rpe_text);
      ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << rpe_text;
      nql::RpeNode resolved = nql::Normalize(*parsed);
      ASSERT_TRUE(nql::ResolveRpe(*schema, 8, &resolved).ok()) << rpe_text;
      auto plan = nql::PlanMatch(resolved, dbs[0]->backend(), serial.plan);
      ASSERT_TRUE(plan.ok()) << plan.status() << "\n" << rpe_text;
      if (plan->statically_empty) continue;
      const int side = plan->anchors[0].suffix.empty() ? 1 : 0;
      ++anchored[side];

      std::set<std::string> expected;
      for (const Fragment& frag : pathways) {
        if (ReferenceMatches(resolved, frag)) expected.insert(FragKey(frag));
      }
      bool goal_ran = false;
      for (const std::string& prefix : {std::string(), asof, range}) {
        const std::string query =
            prefix + "Retrieve P From PATHS P Where P MATCHES " + rpe_text;
        std::vector<std::string> first;
        for (size_t e = 0; e < engines.size(); ++e) {
          auto result = engines[e]->Run(query);
          ASSERT_TRUE(result.ok()) << result.status() << "\n" << query;
          std::vector<std::string> rows;
          std::set<std::string> keys;
          for (const auto& row : result->rows) {
            rows.push_back(row.paths[0].ToString() + " " +
                           row.valid.ToString());
            std::string key;
            for (Uid u : row.paths[0].uids) key += std::to_string(u) + ",";
            keys.insert(key);
          }
          std::sort(rows.begin(), rows.end());
          if (prefix.empty()) {
            EXPECT_EQ(keys, expected) << "engine " << e << ": " << query;
          }
          if (e == 0) {
            first = rows;
          } else {
            EXPECT_EQ(rows, first) << "engine " << e << ": " << query;
          }
          for (const auto& op : engines[e]->LastQueryStats().operators) {
            if (op.op.rfind("GoalLabel", 0) == 0 && op.invocations > 0) {
              goal_ran = true;
            }
          }
        }
        ++checked;
        if (!first.empty()) ++nonempty;
      }
      if (goal_ran) ++labelled[side];
    }
  }
  EXPECT_GT(checked, 800);
  EXPECT_GT(nonempty, 120);
  // Not vacuous: both ends anchor, and either way queries labelled their
  // goal (a third of them overall; fewer from the far end, since the
  // optimizer anchors the side whose frontier grows slower).
  EXPECT_GT(anchored[0], 60);
  EXPECT_GT(anchored[1], 60);
  EXPECT_GT(labelled[0], 45);
  EXPECT_GT(labelled[1], 8);
}

TEST(PropertyTest, GoalLabelsHoldAcrossLoopShards) {
  // A Loop fed 16 or more paths shards at parallelism 4; its goal labels
  // are built once and every shard prunes with them. A()->[E()|F()]{1,3}->
  // B(id=y), anchored at its unselective end so that every A node enters
  // the Loop, runs with each goal depth 0..3 forced: every depth and both
  // parallelisms return the unpruned rows.
  schema::SchemaPtr schema = *schema::ParseSchemaDsl(kPropertySchema);
  for (auto kind : {nepal::testing::BackendKind::kGraphStore,
                    nepal::testing::BackendKind::kRelational}) {
    storage::GraphDb db(schema, nepal::testing::MakeBackend(kind, schema));
    Rng rng(4242);
    std::vector<Uid> as, bs;
    for (int i = 0; i < 28; ++i) {
      const char* cls = i < 24 ? "A" : "B";
      auto uid = db.AddNode(cls, {{"name", Value("n" + std::to_string(i))}});
      ASSERT_TRUE(uid.ok()) << uid.status();
      (i < 24 ? as : bs).push_back(*uid);
    }
    for (int i = 0; i < 80; ++i) {
      const Uid s = as[rng.Below(as.size())];
      const Uid t = rng.Chance(0.15) ? bs[rng.Below(bs.size())]
                                     : as[rng.Below(as.size())];
      if (s == t) continue;
      ASSERT_TRUE(db.AddEdge(rng.Chance(0.5) ? "E" : "F", s, t, {}).ok());
    }
    nql::LockedExecutor exec(&db, db.backend().CreateExecutor());
    int nonempty = 0;
    for (Uid y : bs) {
      auto parsed = nql::ParseRpe("A()->[E()|F()]{1,3}->B(id=" +
                                  std::to_string(y) + ")");
      ASSERT_TRUE(parsed.ok());
      nql::RpeNode resolved = *parsed;
      ASSERT_TRUE(nql::ResolveRpe(*schema, 8, &resolved).ok());
      nql::Program program =
          nql::EmitProgram(nql::BuildLogicalPlan(resolved).root);
      ASSERT_EQ(program.size(), 3u);
      std::vector<std::string> unpruned;
      for (int depth = 0; depth <= 3; ++depth) {
        for (int lanes : {1, 4}) {
          nql::MatchPlan plan;
          nql::AnchoredPlan& anchored = plan.anchors.emplace_back();
          anchored.anchor = program[0].atom;
          anchored.suffix = {program[1], program[2]};
          anchored.suffix[0].goal_depth = depth;
          nql::PlanOptions options;
          options.parallelism = lanes;
          obs::QueryStatsBuilder builder;
          storage::PathSet paths =
              nql::ExecuteMatch(exec, plan, storage::TimeView::Current(),
                                options, builder.AddGroup("var P"));
          std::vector<std::string> rows;
          for (const storage::PathState& p : paths) {
            rows.push_back(p.ToString());
          }
          std::sort(rows.begin(), rows.end());
          if (depth == 0 && lanes == 1) {
            unpruned = rows;
            nonempty += unpruned.empty() ? 0 : 1;
          } else {
            EXPECT_EQ(rows, unpruned)
                << "depth " << depth << " lanes " << lanes;
          }
          for (const obs::OperatorStats& op : builder.Snapshot().operators) {
            if (op.op.rfind("Select", 0) == 0) {
              EXPECT_GE(op.rows_out, 16u);
            }
            if (op.op.rfind("GoalLabel", 0) == 0) {
              EXPECT_GT(depth, 0);
              EXPECT_EQ(op.invocations, 1u);
            }
            if (op.op.rfind("ExtendBlock", 0) == 0) {
              // Sharded or not, the Loop reports the rounds it built.
              EXPECT_GE(op.built, op.rows_out);
              if (lanes == 4) {
                EXPECT_GT(op.shards, 1u);
              }
            }
          }
        }
      }
    }
    EXPECT_GE(nonempty, 2);
  }
}

/// Sets the goal of every Loop of `program` that can have one — a body of
/// edge atoms followed by a node atom — and returns how many it set: a
/// bounded Loop gets goal depth `depth` (at most its max_rep), an open one
/// its goal filter. With `depth` 0 it strips every Loop's goal instead.
int ForceGoals(nql::Program* program, int depth) {
  int set = 0;
  for (size_t i = 0; i < program->size(); ++i) {
    nql::Step& step = (*program)[i];
    if (step.kind != nql::Step::Kind::kLoop) continue;
    step.goal_depth = 0;
    step.open_goal = false;
    if (depth == 0 || i + 1 == program->size()) continue;
    const nql::Step& next = (*program)[i + 1];
    if (next.kind != nql::Step::Kind::kAtom || next.atom.is_edge()) continue;
    const auto atoms = nql::AsAtomAlternation(step.body);
    if (!atoms || std::any_of(atoms->begin(), atoms->end(),
                              [](const storage::CompiledAtom& atom) {
                                return !atom.is_edge();
                              })) {
      continue;
    }
    if (step.max_rep == nql::kUnboundedRep) {
      step.open_goal = true;
    } else {
      step.goal_depth = std::min(depth, step.max_rep);
    }
    ++set;
  }
  return set;
}

TEST(PropertyTest, GoalRoundFiltersKeepEveryRow) {
  // A goal-directed Loop runs each round through its round filter: both
  // backends' edge Extends prune by the goal labels and look one edge
  // ahead before they copy a child. On the random temporal graphs of
  // GoalDirectedRepetitionsAgree (dead ends and cycles included), goal-
  // directed {0,j}, {1,j}, {2,j}, * and + Loops over one-atom and
  // alternation bodies must return the rows of the same plan with goal
  // direction stripped, validity intervals included, under Current, AsOf
  // and Range views, on both backends, at parallelism 1 and 4: the
  // graphstore in engine order, the relational sorted (its index join may
  // order the rows of a smaller frontier differently). No Loop may build
  // more paths than its stripped twin. The Loop sits after the anchor
  // (side 0), before it, run reversed in kIn (side 1), or after an edge
  // atom anchored at all its matches (side 2): each round then appends the
  // implicit node before the edge, and at parallelism 4 the Loop's input
  // shards.
  schema::SchemaPtr schema = *schema::ParseSchemaDsl(kPropertySchema);
  Rng rng(20261019);
  const Timestamp base = *ParseTimestamp("2017-04-01 00:00:00");
  static const char* kNodeAtoms[] = {"A", "A1", "B", "Node"};
  static const char* kEdgeAtoms[] = {"E()", "E1()", "F()", "Edge()",
                                     "E(w<2)", "F(w<>1)"};
  int checked = 0, nonempty = 0, fell = 0;
  int open = 0, in_prefix = 0, sharded = 0;
  for (int round = 0; round < 16; ++round) {
    TemporalGraphPair graph =
        MakeTemporalGraphPair(schema, rng.Next(), round % 2 == 1 ? 36 : 18,
                              base);
    const storage::TimeView views[] = {
        storage::TimeView::Current(), storage::TimeView::AsOf(graph.mid),
        storage::TimeView::Range(base + 5000000, graph.mid + 8000000)};
    for (int q = 0; q < 10; ++q) {
      // One draw per statement, so the sequence does not depend on the
      // compiler's operand evaluation order.
      const Uid x = graph.nodes[rng.Below(graph.nodes.size())];
      const char* n = kNodeAtoms[rng.Below(4)];
      const char* e = kEdgeAtoms[rng.Below(6)];
      const char* f = kEdgeAtoms[rng.Below(6)];
      const bool alternation = rng.Chance(0.5);
      const int kind = static_cast<int>(rng.Below(5));  // {0,j} .. {2,j}, *, +
      const int max_rep = (kind == 2 ? 2 : 1) + static_cast<int>(rng.Below(3));
      const int depth = 1 + static_cast<int>(rng.Below(3));
      const int side = static_cast<int>(rng.Below(3));
      const std::string rep =
          kind == 3   ? "*"
          : kind == 4 ? "+"
                      : "{" + std::to_string(kind) + "," +
                            std::to_string(max_rep) + "}";
      const std::string loop = "->[" + std::string(e) +
                               (alternation ? "|" + std::string(f) : "") +
                               "]" + rep + "->";
      const std::string anchor = "Node(id=" + std::to_string(x) + ")";
      const std::string text = side == 0   ? anchor + loop + n + "()"
                               : side == 1 ? std::string(n) + "()" + loop +
                                                 anchor
                                           : "Edge()" + loop + anchor;
      auto parsed = nql::ParseRpe(text);
      ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << text;
      nql::RpeNode resolved = nql::Normalize(*parsed);
      ASSERT_TRUE(nql::ResolveRpe(*schema, 8, &resolved).ok()) << text;
      const nql::Program program =
          nql::EmitProgram(nql::BuildLogicalPlan(resolved).root);
      if (side == 2 && program.size() != 3) continue;
      for (int b = 0; b < 2; ++b) {
        storage::GraphDb& db = *graph.dbs[b];
        nql::LockedExecutor exec(&db, db.backend().CreateExecutor());
        for (const storage::TimeView& view : views) {
          nql::MatchPlan plan;
          if (side == 2) {
            nql::AnchoredPlan& anchored = plan.anchors.emplace_back();
            anchored.anchor = program[0].atom;
            anchored.suffix = {program[1], program[2]};
          } else {
            auto planned = nql::PlanMatch(resolved, db.backend(),
                                          nql::PlanOptions{}, view);
            ASSERT_TRUE(planned.ok()) << planned.status() << "\n" << text;
            plan = *planned;
          }
          nql::MatchPlan stripped = plan;
          int goals = 0, reversed = 0;
          for (size_t a = 0; a < plan.anchors.size(); ++a) {
            reversed += ForceGoals(&plan.anchors[a].reversed_prefix, depth);
            goals += ForceGoals(&plan.anchors[a].suffix, depth);
            ForceGoals(&stripped.anchors[a].suffix, 0);
            ForceGoals(&stripped.anchors[a].reversed_prefix, 0);
          }
          goals += reversed;
          if (goals == 0) continue;
          for (int lanes : {1, 4}) {
            nql::PlanOptions options;
            options.parallelism = lanes;
            std::vector<std::string> rows[2];
            std::vector<uint64_t> built[2];
            for (int goal = 0; goal < 2; ++goal) {
              nql::MatchPlan run = goal ? plan : stripped;
              obs::QueryStatsBuilder builder;
              const storage::PathSet paths = nql::ExecuteMatch(
                  exec, run, view, options, builder.AddGroup("var P"));
              for (const storage::PathState& p : paths) {
                rows[goal].push_back(p.ToString() + " " + p.valid.ToString());
              }
              if (b == 1) std::sort(rows[goal].begin(), rows[goal].end());
              for (const obs::OperatorStats& op :
                   builder.Snapshot().operators) {
                if (op.op.rfind("ExtendBlock", 0) == 0) {
                  built[goal].push_back(op.built);
                  if (goal && op.shards > 1) ++sharded;
                }
              }
            }
            const std::string where = text + " backend " +
                                      std::to_string(b) + " lanes " +
                                      std::to_string(lanes) + " view " +
                                      std::to_string(static_cast<int>(
                                          view.kind()));
            EXPECT_EQ(rows[1], rows[0]) << where;
            ASSERT_EQ(built[1].size(), built[0].size()) << where;
            bool less = false;
            for (size_t i = 0; i < built[0].size(); ++i) {
              EXPECT_LE(built[1][i], built[0][i]) << where;
              less = less || built[1][i] < built[0][i];
            }
            ++checked;
            if (!rows[0].empty()) ++nonempty;
            if (less) ++fell;
            if (kind >= 3) ++open;
            if (reversed > 0) ++in_prefix;
          }
        }
      }
    }
  }
  // Not vacuous: most checks return rows and most filters cut the Loop's
  // builds; open Loops, reversed Loops and sharded Loops all ran.
  EXPECT_GT(checked, 1400);
  EXPECT_GT(nonempty, 800);
  EXPECT_GT(fell, 650);
  EXPECT_GT(open, 500);
  EXPECT_GT(in_prefix, 400);
  EXPECT_GT(sharded, 120);
}

TEST(PropertyTest, TimesliceEqualsRebuiltSnapshot) {
  schema::SchemaPtr schema = *schema::ParseSchemaDsl(kPropertySchema);
  Rng rng(777);
  for (int round = 0; round < 20; ++round) {
    // Build a history: ops at times 1000, 2000, ..., with inserts, field
    // updates and deletes. Remember the op log.
    struct Op {
      enum Kind { kAddNode, kAddEdge, kUpdate, kDelete } kind;
      std::string cls;
      std::string name;          // node identity
      std::string src, tgt;      // edge endpoints (node names)
      int64_t val = 0;
      Timestamp at = 0;
    };
    std::vector<Op> ops;
    std::vector<std::string> live_nodes;
    int counter = 0;
    const Timestamp base = *ParseTimestamp("2017-03-01 00:00:00");
    Timestamp t = base;
    for (int step = 0; step < 40; ++step) {
      t += 1000000;
      double dice = rng.NextDouble();
      if (dice < 0.45 || live_nodes.size() < 2) {
        Op op;
        op.kind = Op::kAddNode;
        op.cls = (rng.Below(2) != 0u) ? "A" : "B";
        op.name = "n" + std::to_string(counter++);
        op.val = static_cast<int64_t>(rng.Below(4));
        op.at = t;
        live_nodes.push_back(op.name);
        ops.push_back(op);
      } else if (dice < 0.75) {
        Op op;
        op.kind = Op::kAddEdge;
        op.cls = (rng.Below(2) != 0u) ? "E" : "F";
        op.name = "e" + std::to_string(counter++);
        op.src = live_nodes[rng.Below(live_nodes.size())];
        op.tgt = live_nodes[rng.Below(live_nodes.size())];
        if (op.src == op.tgt) continue;
        op.at = t;
        ops.push_back(op);
      } else if (dice < 0.9) {
        Op op;
        op.kind = Op::kUpdate;
        op.name = live_nodes[rng.Below(live_nodes.size())];
        op.val = static_cast<int64_t>(rng.Below(4));
        op.at = t;
        ops.push_back(op);
      } else {
        Op op;
        op.kind = Op::kDelete;
        size_t idx = rng.Below(live_nodes.size());
        op.name = live_nodes[idx];
        live_nodes.erase(live_nodes.begin() +
                         static_cast<std::ptrdiff_t>(idx));
        op.at = t;
        ops.push_back(op);
      }
    }

    // Replays ops with `cutoff` semantics into a database.
    auto replay = [&](Timestamp cutoff, bool temporal)
        -> std::unique_ptr<storage::GraphDb> {
      auto db = std::make_unique<storage::GraphDb>(
          schema, nepal::testing::MakeBackend(
                      nepal::testing::BackendKind::kGraphStore, schema));
      std::map<std::string, Uid> by_name;
      for (const Op& op : ops) {
        if (op.at > cutoff) break;
        if (temporal) {
          EXPECT_TRUE(db->SetTime(op.at).ok());
        }
        switch (op.kind) {
          case Op::kAddNode: {
            auto uid = db->AddNode(op.cls, {{"name", Value(op.name)},
                                            {"val", Value(op.val)}});
            EXPECT_TRUE(uid.ok()) << uid.status();
            if (uid.ok()) by_name[op.name] = *uid;
            break;
          }
          case Op::kAddEdge: {
            if (!by_name.count(op.src) || !by_name.count(op.tgt)) break;
            auto uid = db->AddEdge(op.cls, by_name[op.src], by_name[op.tgt],
                                   {{"name", Value(op.name)},
                                    {"w", Value(op.val)}});
            if (uid.ok()) by_name[op.name] = *uid;
            break;
          }
          case Op::kUpdate: {
            if (!by_name.count(op.name)) break;
            (void)db->UpdateElement(by_name[op.name],
                                    {{"val", Value(op.val)}});
            break;
          }
          case Op::kDelete: {
            if (!by_name.count(op.name)) break;
            (void)db->RemoveElement(by_name[op.name]);
            by_name.erase(op.name);
            break;
          }
        }
      }
      return db;
    };

    Timestamp full = ops.back().at;
    auto full_db = replay(full, /*temporal=*/true);
    nql::QueryEngine full_engine(full_db.get());

    // Pick three random cutoffs and compare AsOf vs rebuilt-at-cutoff.
    const char* queries[] = {
        "Retrieve P From PATHS P Where P MATCHES A()",
        "Retrieve P From PATHS P Where P MATCHES A()->[E()|F()]{1,2}->B()",
        "Retrieve P From PATHS P Where P MATCHES Node(name<>'x')->E()",
    };
    for (int c = 0; c < 3; ++c) {
      Timestamp cutoff =
          base + static_cast<Timestamp>(1 + rng.Below(41)) * 1000000;
      auto snap_db = replay(cutoff, /*temporal=*/false);
      nql::QueryEngine snap_engine(snap_db.get());
      for (const char* q : queries) {
        auto as_of = full_engine.Run("AT '" +
                                     FormatTimestamp(cutoff) + "' " + q);
        auto rebuilt = snap_engine.Run(q);
        ASSERT_TRUE(as_of.ok()) << as_of.status();
        ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
        // Compare name-sequences (uids differ between the two databases).
        auto names = [](const nql::QueryResult& result,
                        storage::GraphDb* db) {
          std::multiset<std::string> out;
          for (const auto& row : result.rows) {
            std::string key;
            for (size_t i = 0; i < row.paths[0].uids.size(); ++i) {
              ElementVersion v;
              db->backend().Get(
                  row.paths[0].uids[i],
                  storage::TimeView::Range(Interval::All()),
                  [&](const ElementVersion& ev) { v = ev; });
              key += v.fields[0].ToString() + ";";
            }
            out.insert(key);
          }
          return out;
        };
        EXPECT_EQ(names(*as_of, full_db.get()),
                  names(*rebuilt, snap_db.get()))
            << "cutoff " << FormatTimestamp(cutoff) << " query: " << q;
      }
    }
  }
}

// ---- Interval intersection canonicality (touching-endpoint hardening) ----

TEST(PropertyTest, EmptyIntersectionsAreCanonical) {
  // [a,b) ∩ [b,c) is empty (half-open semantics); every empty intersection
  // must normalize to the one canonical empty interval, never to a
  // non-canonical start > end pair that downstream code could mistake for
  // a valid period.
  const Interval none = Interval::None();
  EXPECT_TRUE(none.empty());

  // Touching endpoints, both orders.
  Interval ab{10, 20}, bc{20, 30};
  EXPECT_EQ(ab.Intersect(bc), none);
  EXPECT_EQ(bc.Intersect(ab), none);
  // Disjoint with a gap.
  EXPECT_EQ(Interval({0, 5}).Intersect({50, 60}), none);
  // Empty operand.
  EXPECT_EQ(none.Intersect(Interval::All()), none);
  EXPECT_EQ(Interval::All().Intersect(none), none);

  // Randomized: Intersect is empty exactly when the operands do not
  // overlap, every empty result is canonical, and every non-empty result
  // is the true set intersection of the two half-open ranges.
  Rng rng(112358);
  for (int i = 0; i < 20000; ++i) {
    auto pick = [&] {
      Timestamp a = static_cast<Timestamp>(rng.Below(40));
      Timestamp b = static_cast<Timestamp>(rng.Below(40));
      return Interval{a, b};
    };
    Interval x = pick(), y = pick();
    Interval got = x.Intersect(y);
    bool expect_empty = x.empty() || y.empty() || !x.Overlaps(y);
    ASSERT_EQ(got.empty(), expect_empty)
        << x.ToString() << " ∩ " << y.ToString();
    if (expect_empty) {
      ASSERT_EQ(got, none) << x.ToString() << " ∩ " << y.ToString();
    } else {
      for (Timestamp t = 0; t < 40; ++t) {
        ASSERT_EQ(got.Contains(t), x.Contains(t) && y.Contains(t))
            << x.ToString() << " ∩ " << y.ToString() << " at " << t;
      }
    }
    // An empty interval must never be added to an IntervalSet's coverage.
    IntervalSet set;
    set.Add(got);
    ASSERT_EQ(set.empty(), got.empty());
  }
}

TEST(PropertyTest, NoZeroWidthValidityReachesResultRows) {
  // Over randomized element churn (whose version boundaries routinely make
  // intervals touch), no result row of a time-range query may carry an
  // empty validity — neither the row's joint interval nor any pathway's.
  schema::SchemaPtr schema = *schema::ParseSchemaDsl(kPropertySchema);
  Rng rng(424242);
  const Timestamp base = *ParseTimestamp("2017-05-01 00:00:00");
  for (auto kind : {nepal::testing::BackendKind::kGraphStore,
                    nepal::testing::BackendKind::kRelational}) {
    for (int round = 0; round < 10; ++round) {
      auto db = std::make_unique<storage::GraphDb>(
          schema, nepal::testing::MakeBackend(kind, schema));
      Rng ops_rng(rng.Next());
      std::vector<Uid> nodes;
      for (int step = 0; step < 50; ++step) {
        ASSERT_TRUE(
            db->SetTime(base + static_cast<Timestamp>(step) * 1000000).ok());
        double dice = ops_rng.NextDouble();
        if (dice < 0.4 || nodes.size() < 2) {
          auto u = db->AddNode(
              ops_rng.Chance(0.5) ? "A" : "B",
              {{"name", Value("n" + std::to_string(step))},
               {"val", Value(static_cast<int64_t>(ops_rng.Below(3)))}});
          ASSERT_TRUE(u.ok());
          nodes.push_back(*u);
        } else if (dice < 0.7) {
          Uid s = nodes[ops_rng.Below(nodes.size())];
          Uid t = nodes[ops_rng.Below(nodes.size())];
          if (s != t) (void)db->AddEdge("E", s, t, {});
        } else if (dice < 0.9) {
          (void)db->UpdateElement(
              nodes[ops_rng.Below(nodes.size())],
              {{"val", Value(static_cast<int64_t>(ops_rng.Below(3)))}});
        } else {
          (void)db->RemoveElement(nodes[ops_rng.Below(nodes.size())]);
        }
      }
      nql::QueryEngine engine(db.get());
      std::string range = "AT '" + FormatTimestamp(base) + "' : '" +
                          FormatTimestamp(base + 60 * 1000000) + "' ";
      for (const char* q :
           {"Retrieve P From PATHS P Where P MATCHES A()->E()->Node()",
            "Retrieve P From PATHS P Where P MATCHES "
            "Node(name<>'zz')->[E()]{1,2}->Node(name<>'zz')",
            "Retrieve P, Q From PATHS P, PATHS Q "
            "Where P MATCHES A()->E()->Node() And Q MATCHES B()"}) {
        auto result = engine.Run(range + std::string(q));
        ASSERT_TRUE(result.ok()) << result.status();
        for (const auto& row : result->rows) {
          EXPECT_FALSE(row.valid.empty())
              << nepal::testing::BackendName(kind) << " row validity "
              << row.valid.ToString() << "\nquery: " << q;
          for (const auto& path : row.paths) {
            EXPECT_FALSE(path.valid.empty())
                << nepal::testing::BackendName(kind) << " pathway validity "
                << path.valid.ToString() << "\nquery: " << q;
          }
        }
      }
    }
  }
}

TEST(PropertyTest, TouchingValidityPeriodsNeverCoexist) {
  // Deterministic touching-endpoint scenario: P lives on [t0, t1), Q on
  // [t1, t2). A query-level range demands coexistence — the joint validity
  // is the empty intersection at the shared boundary t1, so no row may
  // survive.
  schema::SchemaPtr schema = *schema::ParseSchemaDsl(kPropertySchema);
  const Timestamp t0 = *ParseTimestamp("2017-06-01 00:00:00");
  const Timestamp t1 = t0 + 3600 * 1000000LL;
  const Timestamp t2 = t1 + 3600 * 1000000LL;
  for (auto kind : {nepal::testing::BackendKind::kGraphStore,
                    nepal::testing::BackendKind::kRelational}) {
    auto db = std::make_unique<storage::GraphDb>(
        schema, nepal::testing::MakeBackend(kind, schema));
    ASSERT_TRUE(db->SetTime(t0).ok());
    Uid a = *db->AddNode("A", {{"name", Value("a")}, {"val", Value(1)}});
    Uid b = *db->AddNode("B", {{"name", Value("b")}, {"val", Value(1)}});
    Uid e = *db->AddEdge("E", a, b, {});
    // At t1 the A->B edge dies and a B-side marker node is born: the edge
    // pathway's validity [t0,t1) exactly touches the marker's [t1,t2).
    ASSERT_TRUE(db->SetTime(t1).ok());
    ASSERT_TRUE(db->RemoveElement(e).ok());
    Uid marker =
        *db->AddNode("A1", {{"name", Value("m")}, {"val", Value(7)}});
    ASSERT_TRUE(db->SetTime(t2).ok());
    ASSERT_TRUE(db->RemoveElement(marker).ok());

    nql::QueryEngine engine(db.get());
    std::string range = "AT '" + FormatTimestamp(t0) + "' : '" +
                        FormatTimestamp(t2 + 1000000) + "' ";
    auto result = engine.Run(range +
                             "Retrieve P, Q From PATHS P, PATHS Q "
                             "Where P MATCHES A(name='a')->E()->B() "
                             "And Q MATCHES A1(val=7)");
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->rows.empty())
        << nepal::testing::BackendName(kind)
        << ": touching validity periods produced a coexistence row with "
        << "joint validity "
        << (result->rows.empty() ? "" : result->rows[0].valid.ToString());

    // Each variable alone is still found with its true (non-empty) period.
    auto p_only = engine.Run(
        range + "Retrieve P From PATHS P Where P MATCHES A(name='a')->E()->B()");
    ASSERT_TRUE(p_only.ok()) << p_only.status();
    ASSERT_EQ(p_only->rows.size(), 1u);
    EXPECT_EQ(p_only->rows[0].valid, Interval({t0, t1}));
  }
}

TEST(PropertyTest, ViewServedEqualsColdEvaluation) {
  // For random temporal graphs and random mutation streams, a
  // WAL-maintained materialized view must serve rows identical to cold
  // evaluation at its freshness epoch — on both backends, with batched and
  // single-op writes. Odd rounds open every repetition maximum, so views
  // over open Loops are covered as well as over bounded ones.
  namespace fs = std::filesystem;
  schema::SchemaPtr schema = *schema::ParseSchemaDsl(kPropertySchema);
  Rng rng(77007);
  int checked = 0;
  for (int round = 0; round < 16; ++round) {
    for (auto kind : {nepal::testing::BackendKind::kGraphStore,
                      nepal::testing::BackendKind::kRelational}) {
      fs::path dir = fs::path(::testing::TempDir()) /
                     ("nepal_prop_views_" + std::to_string(round) + "_" +
                      nepal::testing::BackendName(kind));
      fs::remove_all(dir);
      persist::DurableOptions d_options;
      d_options.fsync_policy = persist::FsyncPolicy::kNone;
      auto store = persist::DurableStore::Open(
          dir.string(), schema,
          [kind](schema::SchemaPtr s) {
            return nepal::testing::MakeBackend(kind, std::move(s));
          },
          d_options);
      ASSERT_TRUE(store.ok()) << store.status();
      storage::GraphDb* db = &(*store)->db();

      const char* node_classes[] = {"A", "A1", "B"};
      const char* edge_classes[] = {"E", "E1", "F"};
      std::vector<Uid> alive;
      for (int i = 0; i < 10; ++i) {
        auto uid = db->AddNode(
            node_classes[rng.Below(3)],
            {{"name", Value("n" + std::to_string(i))},
             {"val", Value(static_cast<int64_t>(rng.Below(4)))}});
        ASSERT_TRUE(uid.ok()) << uid.status();
        alive.push_back(*uid);
      }
      for (int i = 0; i < 16; ++i) {
        Uid s = alive[rng.Below(alive.size())];
        Uid t = alive[rng.Below(alive.size())];
        if (s == t) continue;
        ASSERT_TRUE(db->AddEdge(edge_classes[rng.Below(3)], s, t,
                                {{"w", Value(static_cast<int64_t>(
                                           rng.Below(4)))}})
                        .ok());
      }

      auto catalog = views::ViewCatalog::Open(store->get());
      ASSERT_TRUE(catalog.ok()) << catalog.status();
      nql::RpeNode rpe = RandomRpe(&rng, 2);
      if (round % 2 == 1) rpe = WithRepetitionMax(rpe, nql::kUnboundedRep);
      Status created = (*catalog)->CreateView("v", rpe);
      if (!created.ok()) continue;  // e.g. unplannable random RPE

      // Random mutation stream: adds, updates, removes and clock steps,
      // committed alternately one-at-a-time and as atomic batches.
      Timestamp now = db->Now();
      int node_seq = 10;
      auto random_mutation = [&]() -> std::optional<storage::Mutation> {
        switch (rng.Below(5)) {
          case 0:
            return storage::Mutation::AddNode(
                node_classes[rng.Below(3)],
                {{"name", Value("m" + std::to_string(node_seq++))},
                 {"val", Value(static_cast<int64_t>(rng.Below(4)))}});
          case 1: {
            if (alive.size() < 2) return std::nullopt;
            Uid s = alive[rng.Below(alive.size())];
            Uid t = alive[rng.Below(alive.size())];
            if (s == t) return std::nullopt;
            return storage::Mutation::AddEdge(
                edge_classes[rng.Below(3)], s, t,
                {{"w", Value(static_cast<int64_t>(rng.Below(4)))}});
          }
          case 2: {
            if (alive.empty()) return std::nullopt;
            return storage::Mutation::Update(
                alive[rng.Below(alive.size())],
                {{"val", Value(static_cast<int64_t>(rng.Below(4)))}});
          }
          case 3: {
            if (alive.size() <= 4) return std::nullopt;
            size_t at = rng.Below(alive.size());
            Uid gone = alive[at];
            alive.erase(alive.begin() + at);
            return storage::Mutation::Remove(gone);
          }
          default:
            now += 1000000;  // +1s
            return storage::Mutation::SetTime(now);
        }
      };
      for (int op = 0; op < 30;) {
        if (rng.Chance(0.5)) {
          std::vector<storage::Mutation> batch;
          for (int j = 0; j < 4; ++j) {
            if (auto m = random_mutation()) batch.push_back(std::move(*m));
          }
          if (!batch.empty()) {
            ASSERT_TRUE(db->ApplyBatch(batch).ok());
          }
          for (const storage::Mutation& m : batch) {
            if (m.kind == storage::Mutation::Kind::kAddNode) {
              alive.push_back(m.uid);
            }
          }
          op += 4;
        } else {
          if (auto m = random_mutation()) {
            std::vector<storage::Mutation> one;
            one.push_back(std::move(*m));
            ASSERT_TRUE(db->ApplyBatch(one).ok());
            if (one[0].kind == storage::Mutation::Kind::kAddNode) {
              alive.push_back(one[0].uid);
            }
          }
          ++op;
        }
      }

      ASSERT_TRUE((*catalog)
                      ->WaitUntilFresh("v", db->commit_epoch(),
                                       std::chrono::milliseconds(30000))
                      .ok());
      auto sv = (*catalog)->Serve("v");
      ASSERT_TRUE(sv.has_value());

      // Cold oracle at the served epoch, canonicalized.
      nql::RpeNode resolved = nql::Normalize(rpe);
      nql::PlanOptions cold_plan;
      ASSERT_TRUE(nql::ResolveRpe(db->schema(), cold_plan.max_repetition,
                                  &resolved)
                      .ok());
      auto cold = nepal::testing::EvaluatePinned(
          db, resolved, storage::TimeView::Current().WithEpoch(sv->epoch),
          cold_plan);
      ASSERT_TRUE(cold.ok()) << cold.status();
      storage::CanonicalizePaths(&*cold);

      auto render = [](const storage::PathSet& paths) {
        std::vector<std::string> rows;
        for (const storage::PathState& s : paths) {
          std::string line;
          for (Uid uid : s.uids) line += std::to_string(uid) + ",";
          line += " " + s.valid.ToString();
          rows.push_back(std::move(line));
        }
        std::sort(rows.begin(), rows.end());
        return rows;
      };
      EXPECT_EQ(render(*sv->paths), render(*cold))
          << nepal::testing::BackendName(kind) << " "
          << nql::Normalize(rpe).ToString();
      ++checked;
    }
  }
  EXPECT_GT(checked, 20);
}

}  // namespace
}  // namespace nepal
