// Unit tests for the query planner: anchor enumeration and costing,
// RPE splitting around anchors, repetition compilation and program
// reversal.

#include <algorithm>

#include <gtest/gtest.h>

#include "graphstore/graph_store.h"
#include "relational/relational_store.h"
#include "nepal/engine.h"
#include "nepal/executor.h"
#include "nepal/parser.h"
#include "nepal/plan.h"
#include "nepal/snapshot.h"
#include "netmodel/virtualized.h"
#include "schema/dsl_parser.h"
#include "storage/graphdb.h"
#include "tests/testutil.h"

namespace nepal::nql {
namespace {

class PlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto s = schema::ParseSchemaDsl(R"(
      node A : Node { val: int; }
      node B : Node {}
      edge E : Edge {}
      edge F : E {}
      allow E (Node -> Node);
    )");
    ASSERT_TRUE(s.ok()) << s.status();
    schema_ = *s;
    db_ = std::make_unique<storage::GraphDb>(
        schema_, std::make_unique<graphstore::GraphStore>(schema_));
    // Population: 100 A nodes, 5 B nodes — the planner should prefer B
    // anchors.
    for (int i = 0; i < 100; ++i) {
      a_.push_back(*db_->AddNode("A", {{"name", Value("a" +
                                                       std::to_string(i))}}));
    }
    for (int i = 0; i < 5; ++i) {
      b_.push_back(*db_->AddNode("B", {{"name", Value("b" +
                                                       std::to_string(i))}}));
    }
    for (int i = 0; i + 1 < 100; ++i) {
      ASSERT_TRUE(db_->AddEdge("E", a_[i], a_[i + 1], {}).ok());
    }
  }

  RpeNode Resolved(const std::string& text) {
    auto rpe = ParseRpe(text);
    EXPECT_TRUE(rpe.ok()) << rpe.status();
    RpeNode node = *rpe;
    EXPECT_TRUE(ResolveRpe(*schema_, 32, &node).ok());
    return node;
  }

  Result<MatchPlan> Plan(const std::string& text) {
    return PlanMatch(Resolved(text), db_->backend(), PlanOptions{});
  }

  schema::SchemaPtr schema_;
  std::unique_ptr<storage::GraphDb> db_;
  std::vector<Uid> a_, b_;
};

TEST_F(PlanTest, PrefersSelectiveAnchor) {
  auto plan = Plan("A()->[E()]{1,3}->B()");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->anchors.size(), 1u);
  EXPECT_EQ(plan->anchors[0].anchor.cls->name(), "B");
  // B is the last atom: the whole traversal runs backwards.
  EXPECT_TRUE(plan->anchors[0].suffix.empty());
  EXPECT_FALSE(plan->anchors[0].reversed_prefix.empty());
}

TEST_F(PlanTest, IdConstraintBeatsEverything) {
  auto plan = Plan("A(id=7)->[E()]{1,3}->B()");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->anchors[0].anchor.cls->name(), "A");
  EXPECT_DOUBLE_EQ(plan->anchors[0].anchor_cost, 1.0);
  EXPECT_TRUE(plan->anchors[0].reversed_prefix.empty());
}

TEST_F(PlanTest, MidAnchorSplitsBothWays) {
  auto plan = Plan("A()->B(id=3)->A()");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->anchors[0].anchor.cls->name(), "B");
  EXPECT_FALSE(plan->anchors[0].suffix.empty());
  EXPECT_FALSE(plan->anchors[0].reversed_prefix.empty());
}

TEST_F(PlanTest, AlternationProducesAnchorPerBranch) {
  // The paper's example: (VM(id=55)|Docker(id=66)) inside a path.
  auto plan = Plan("A()->[E()]{1,3}->(A(id=55)|B(id=66))->E()->A()");
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->anchors.size(), 2u);
  EXPECT_EQ(plan->anchors[0].anchor.cls->name(), "A");
  EXPECT_EQ(plan->anchors[1].anchor.cls->name(), "B");
}

TEST_F(PlanTest, RepetitionAnchorsInFirstIteration) {
  auto plan = Plan("[B()]{2,4}");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->anchors[0].anchor.cls->name(), "B");
  // The suffix must cover the remaining {1,3} iterations.
  ASSERT_EQ(plan->anchors[0].suffix.size(), 1u);
  EXPECT_EQ(plan->anchors[0].suffix[0].kind, Step::Kind::kLoop);
  EXPECT_EQ(plan->anchors[0].suffix[0].min_rep, 1);
  EXPECT_EQ(plan->anchors[0].suffix[0].max_rep, 3);
}

TEST_F(PlanTest, RejectsAllOptionalRpe) {
  // The paper's malformed example: [VNF()]{0,4}->[Vertical()]{0,4}.
  auto plan = Plan("[A()]{0,4}->[E()]{0,4}");
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kPlanError);
}

TEST_F(PlanTest, OptionalBlockDoesNotAnchorButNeighborsDo) {
  auto plan = Plan("[E()]{0,4}->B()");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->anchors[0].anchor.cls->name(), "B");
}

TEST_F(PlanTest, AlternationWithUnanchorableBranchIsRejected) {
  auto plan = Plan("([E()]{0,2}|B())->A()->A(id=1)");
  // The Alt cannot anchor (one branch is all-optional), but the trailing
  // A(id=1) can.
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->anchors[0].anchor_cost, 1.0);
}

TEST_F(PlanTest, LengthLimitEnforced) {
  auto rpe = ParseRpe("[E()]{1,100}");
  ASSERT_TRUE(rpe.ok());
  RpeNode node = *rpe;
  Status st = ResolveRpe(*schema_, 32, &node);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kPlanError);
}

TEST_F(PlanTest, ProgramReversalIsInvolutive) {
  RpeNode rpe = Resolved("A()->[E()|F()]{1,3}->(B()|A()->E())");
  Program program = EmitProgram(BuildLogicalPlan(rpe).root);
  Program twice = ReverseProgram(ReverseProgram(program));
  EXPECT_EQ(ProgramToString(program), ProgramToString(twice));
}

TEST_F(PlanTest, RepetitionCompilesByShape) {
  // Every repetition is a Loop. One whose body is one atom or an
  // alternation of atoms is reported as one ExtendBlock, bounded or open;
  // any other is a Loop over its body program. An open body that can
  // match ε loses its empty match, and a body that is one Loop{1,j} is
  // flattened, so [[E()]{0,2}]* is [E()]*.
  auto compiled = [&](const std::string& text) {
    Program program = CompileSeededProgram(
        Resolved(text), db_->backend(), storage::TimeView::Current(), -1);
    EXPECT_EQ(program.size(), 1u) << text;
    return program.empty() ? Step{} : program[0];
  };
  QueryEngine engine(db_.get());
  auto analyzed = [&](const std::string& text) {
    auto result = engine.Run("EXPLAIN ANALYZE Retrieve P From PATHS P Where "
                             "P MATCHES A(id=" +
                             std::to_string(a_[0]) + ")->" + text);
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? result->explain_text : std::string();
  };

  // The queries start at the head of the fixture's E chain a0 -> a1 -> ...,
  // so each returns one row per admissible round count.
  for (const char* text : {"[E()]{1,3}", "[E()|F()]{2,2}"}) {
    EXPECT_EQ(compiled(text).kind, Step::Kind::kLoop) << text;
  }
  std::string explain = analyzed("[E()]{1,3}");
  EXPECT_NE(explain.find("ExtendBlock{1,3} E()"), std::string::npos)
      << explain;
  EXPECT_NE(explain.find("total: 3 row(s)"), std::string::npos) << explain;
  explain = analyzed("[E()|F()]{2,2}");
  EXPECT_NE(explain.find("ExtendBlock{2,2} E()|F()"), std::string::npos)
      << explain;
  EXPECT_NE(explain.find("total: 1 row(s)"), std::string::npos) << explain;

  Step general = compiled("[E()->A()]{1,3}");
  EXPECT_EQ(general.kind, Step::Kind::kLoop);
  EXPECT_EQ(ProgramToString(general.body), "Extend(E()) ; Extend(A())");
  explain = analyzed("[E()->A()]{1,3}");
  EXPECT_NE(explain.find("Loop{1,3}"), std::string::npos) << explain;
  EXPECT_EQ(explain.find("ExtendBlock"), std::string::npos) << explain;
  EXPECT_NE(explain.find("total: 3 row(s)"), std::string::npos) << explain;

  // Open repetitions over the 100-node chain: rounds 0..99 and 2..99.
  for (const char* text : {"[E()]*", "[E()]{2,}"}) {
    const Step step = compiled(text);
    EXPECT_EQ(step.kind, Step::Kind::kLoop) << text;
    EXPECT_EQ(step.max_rep, kUnboundedRep) << text;
  }
  explain = analyzed("[E()]*");
  EXPECT_NE(explain.find("ExtendBlock* E()"), std::string::npos) << explain;
  EXPECT_NE(explain.find("total: 100 row(s)"), std::string::npos) << explain;
  explain = analyzed("[E()]{2,}");
  EXPECT_NE(explain.find("ExtendBlock{2,} E()"), std::string::npos)
      << explain;
  EXPECT_NE(explain.find("total: 98 row(s)"), std::string::npos) << explain;
  EXPECT_EQ(explain.find("2147483647"), std::string::npos) << explain;

  const Step open_general = compiled("[E()->A()]*");
  EXPECT_EQ(open_general.kind, Step::Kind::kLoop);
  EXPECT_EQ(open_general.max_rep, kUnboundedRep);
  EXPECT_EQ(ProgramToString(open_general.body), "Extend(E()) ; Extend(A())");
  explain = analyzed("[E()->A()]*");
  EXPECT_NE(explain.find("Loop*"), std::string::npos) << explain;
  EXPECT_EQ(explain.find("ExtendBlock"), std::string::npos) << explain;
  EXPECT_NE(explain.find("total: 100 row(s)"), std::string::npos) << explain;

  // The shape first: an open Loop over a body that can match ε would never
  // reach an empty round.
  const Step rewritten = compiled("[[E()]{0,2}]*");
  ASSERT_EQ(rewritten.kind, Step::Kind::kLoop);
  ASSERT_EQ(rewritten.min_rep, 0);
  ASSERT_EQ(rewritten.max_rep, kUnboundedRep);
  ASSERT_EQ(ProgramToString(rewritten.body), "Extend(E())");
  explain = analyzed("[[E()]{0,2}]*");
  EXPECT_NE(explain.find("ExtendBlock* E()"), std::string::npos) << explain;
  EXPECT_NE(explain.find("total: 100 row(s)"), std::string::npos) << explain;
}

TEST_F(PlanTest, OpenLoopOverAMixedLengthBodyBuildsEachPathOnce) {
  // [E()|E()->Node()->E()]+ reaches a k-edge path of the chain in every
  // round from k/2 to k. Each path reached again is skipped, so the Loop
  // builds the 99 paths from a0 once each, not the 2,549 its rounds would
  // build without that memo.
  const std::string rpe = "[E()|E()->Node()->E()]+";
  const Step loop = CompileSeededProgram(Resolved(rpe), db_->backend(),
                                         storage::TimeView::Current(), -1)[0];
  ASSERT_EQ(loop.kind, Step::Kind::kLoop);
  ASSERT_EQ(loop.max_rep, kUnboundedRep);
  EngineOptions options;
  options.plan.parallelism = 1;
  QueryEngine engine(db_.get(), options);
  auto result = engine.Run(
      "EXPLAIN ANALYZE Retrieve P From PATHS P Where P MATCHES A(id=" +
      std::to_string(a_[0]) + ")->" + rpe);
  ASSERT_TRUE(result.ok()) << result.status();
  const std::string& text = result->explain_text;
  EXPECT_NE(text.find("total: 99 row(s)"), std::string::npos) << text;
  int loops = 0;
  for (const obs::OperatorStats& op : engine.LastQueryStats().operators) {
    if (op.op != "Loop+") continue;
    ++loops;
    EXPECT_EQ(op.rows_in, 1u) << text;
    EXPECT_EQ(op.built, 99u) << text;
    EXPECT_EQ(op.rows_out, 99u) << text;
  }
  EXPECT_EQ(loops, 1) << text;
}

TEST_F(PlanTest, EstimateUsesStatistics) {
  // The stats subsystem maintains exact per-value counters, so an equality
  // estimate is the true matching-row count rather than the count/10 + 1
  // schema hint the planner used before statistics existed.
  auto spec_for = [&](int val) {
    storage::CompiledAtom a_atom;
    a_atom.cls = schema_->FindClass("A");
    storage::FieldCondition cond;
    cond.field_index = a_atom.cls->FieldIndex("val");
    cond.field_name = "val";
    cond.op = storage::FieldCondition::Op::kEq;
    cond.value = Value(val);
    a_atom.conditions.push_back(cond);
    return a_atom.ToScanSpec();
  };
  // None of the fixture's A rows sets val: the counter proves zero matches.
  EXPECT_DOUBLE_EQ(db_->backend().EstimateScan(spec_for(1)), 0.0);
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(db_->AddNode("A", {{"val", Value(1)}}).ok());
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(db_->AddNode("A", {{"val", Value(2)}}).ok());
  }
  EXPECT_DOUBLE_EQ(db_->backend().EstimateScan(spec_for(1)), 7.0);
  EXPECT_DOUBLE_EQ(db_->backend().EstimateScan(spec_for(2)), 3.0);
  EXPECT_DOUBLE_EQ(db_->backend().EstimateScan(spec_for(99)), 0.0);
}

// Goal depths on the virtualized service graph (paper Table 1 shapes).
class GoalDepthTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    netmodel::VirtualizedParams params;
    params.history_days = 0;
    auto built = netmodel::BuildVirtualizedNetwork(
        params, [](schema::SchemaPtr s) -> std::unique_ptr<
                                             storage::StorageBackend> {
          return std::make_unique<graphstore::GraphStore>(std::move(s));
        });
    ASSERT_TRUE(built.ok()) << built.status();
    net_ = new netmodel::VirtualizedNetwork(std::move(*built));
  }
  static void TearDownTestSuite() {
    delete net_;
    net_ = nullptr;
  }

  static std::string Name(Uid uid) {
    auto v = net_->db->GetCurrent(uid);
    EXPECT_TRUE(v.ok());
    return v.ok() ? v->fields[static_cast<size_t>(
                                  v->cls->FieldIndex("name"))]
                        .AsString()
                  : std::string();
  }

  /// The goal depth of every Loop in the plan's programs, suffix first.
  static std::vector<int> GoalDepths(const std::string& text) {
    auto parsed = ParseRpe(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    RpeNode rpe = *parsed;
    EXPECT_TRUE(ResolveRpe(net_->db->schema(), 32, &rpe).ok());
    auto plan = PlanMatch(rpe, net_->db->backend(), PlanOptions{});
    EXPECT_TRUE(plan.ok()) << plan.status();
    std::vector<int> depths;
    if (!plan.ok()) return depths;
    for (const AnchoredPlan& anchored : plan->anchors) {
      for (const Program* program :
           {&anchored.suffix, &anchored.reversed_prefix}) {
        for (const Step& step : *program) {
          if (step.kind == Step::Kind::kLoop) {
            depths.push_back(step.goal_depth);
          }
        }
      }
    }
    return depths;
  }

  static netmodel::VirtualizedNetwork* net_;
};

netmodel::VirtualizedNetwork* GoalDepthTest::net_ = nullptr;

TEST_F(GoalDepthTest, HostToHostMeetsInTheMiddle) {
  // Both ends are one host: the backward layer from the goal grows like
  // the forward frontier, so they meet halfway.
  auto host_to_host = [](int max_rep) {
    return "Host(name='" + Name(net_->hosts[3]) + "')->[connects()]{1," +
           std::to_string(max_rep) + "}->Host(name='" +
           Name(net_->hosts[400]) + "')";
  };
  EXPECT_EQ(GoalDepths(host_to_host(6)), std::vector<int>{3});
  EXPECT_EQ(GoalDepths(host_to_host(4)), std::vector<int>{2});
}

TEST_F(GoalDepthTest, UnselectiveGoalsStayUnpruned) {
  // Top-down ends at every host and bottom-up at every VNF: labelling
  // them would cost more than the walk, so their plans do not change.
  EXPECT_EQ(GoalDepths("VNF(id=" + std::to_string(net_->vnfs[0]) +
                       ")->[Vertical()]{1,6}->Host()"),
            std::vector<int>{0});
  EXPECT_EQ(GoalDepths("VNF()->[Vertical()]{1,6}->Host(id=" +
                       std::to_string(net_->hosts[7]) + ")"),
            std::vector<int>{0});
}

TEST(GoalPruningTest, KeepsExactlyThePathsThatCanStillReachTheGoal) {
  // a0 -> a1 -> {a2, b}, a2 -> {b, a4}, a4 -> b, a0 -> a3 (a dead end).
  // A(id=a0)->[E()]{1,3}->B(id=b) runs with each goal depth forced: a path
  // is built in round k only if its frontier is labelled within 3 - k hops
  // of b, or is unlabelled while 3 - k exceeds the depth; and only if it
  // ends at b or the next round can extend it. The Loop's `built` per
  // depth pins the budget exactly: from depth 1 on, the dead end a0 -> a3
  // is never built (depth 1 looks ahead from a3 and finds no edge; depth 2
  // prunes it, a3 being unlabelled). From depth 1 on, the Loop hands on
  // only the paths that end at b (its rows_out); the rows never change.
  auto s = schema::ParseSchemaDsl(R"(
    node A : Node {}
    node B : Node {}
    edge E : Edge {}
    allow E (Node -> Node);
  )");
  ASSERT_TRUE(s.ok()) << s.status();
  for (auto make : {+[](schema::SchemaPtr schema) {
                      return std::unique_ptr<storage::StorageBackend>(
                          std::make_unique<graphstore::GraphStore>(schema));
                    },
                    +[](schema::SchemaPtr schema) {
                      return std::unique_ptr<storage::StorageBackend>(
                          std::make_unique<relational::RelationalStore>(
                              schema));
                    }}) {
    storage::GraphDb db(*s, make(*s));
    std::vector<Uid> a;
    for (int i = 0; i < 5; ++i) {
      a.push_back(*db.AddNode("A", {{"name", Value("a" + std::to_string(i))}}));
    }
    const Uid b = *db.AddNode("B", {{"name", Value("b")}});
    for (auto [from, to] : std::vector<std::pair<Uid, Uid>>{
             {a[0], a[1]}, {a[1], a[2]}, {a[1], b}, {a[2], b},
             {a[2], a[4]}, {a[4], b}, {a[0], a[3]}}) {
      ASSERT_TRUE(db.AddEdge("E", from, to, {}).ok());
    }
    auto parsed = ParseRpe("A(id=" + std::to_string(a[0]) +
                           ")->[E()]{1,3}->B(id=" + std::to_string(b) + ")");
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    RpeNode rpe = *parsed;
    ASSERT_TRUE(ResolveRpe(**s, 32, &rpe).ok());
    const Program program = EmitProgram(BuildLogicalPlan(rpe).root);
    ASSERT_EQ(program.size(), 3u);
    LockedExecutor exec(&db, db.backend().CreateExecutor());
    const uint64_t loop_built[] = {6, 4, 4, 4};  // by goal depth
    const uint64_t loop_rows[] = {6, 2, 2, 2};
    for (int depth = 0; depth <= 3; ++depth) {
      MatchPlan plan;
      AnchoredPlan& anchored = plan.anchors.emplace_back();
      anchored.anchor = program[0].atom;
      anchored.suffix = {program[1], program[2]};
      anchored.suffix[0].goal_depth = depth;
      obs::QueryStatsBuilder builder;
      const storage::PathSet rows =
          ExecuteMatch(exec, plan, storage::TimeView::Current(),
                       PlanOptions{1, 1}, builder.AddGroup("var P"));
      EXPECT_EQ(rows.size(), 2u) << "depth " << depth;
      for (const obs::OperatorStats& op : builder.Snapshot().operators) {
        if (op.op.rfind("ExtendBlock", 0) == 0) {
          EXPECT_EQ(op.built, loop_built[depth]) << "depth " << depth;
          EXPECT_EQ(op.rows_out, loop_rows[depth]) << "depth " << depth;
        }
      }
    }
  }
}

TEST(GoalPruningTest, HubsAndDualHomedSpokesBuildOnlyUsablePaths) {
  // A switching core in small: three meshed hubs h0..h2 and six spokes,
  // spoke i dual-homed to hubs i mod 3 and (i + 1) mod 3; every link runs
  // both ways. From spoke s0 to the goal spoke s3, most simple paths are
  // leaves: a path that enters a spoke whose other hub it already holds
  // can go nowhere. A goal-directed Loop builds only the paths it can
  // extend or hand on, so its `built` falls far below the unfiltered
  // Loop's; the rows stay the same (in engine order on the graphstore; the
  // relational index join may reorder them). Pinned for a bounded Loop
  // {1,5} at goal depth 2 and for an open Loop with its goal filter.
  auto s = schema::ParseSchemaDsl(R"(
    node H : Node {}
    node S : Node {}
    edge E : Edge {}
    allow E (Node -> Node);
  )");
  ASSERT_TRUE(s.ok()) << s.status();
  for (auto kind : {testing::BackendKind::kGraphStore,
                    testing::BackendKind::kRelational}) {
    const bool relational = kind == testing::BackendKind::kRelational;
    storage::GraphDb db(*s, testing::MakeBackend(kind, *s));
    std::vector<Uid> hubs, spokes;
    for (int i = 0; i < 3; ++i) {
      hubs.push_back(*db.AddNode("H", {{"name", Value("h" + std::to_string(i))}}));
    }
    for (int i = 0; i < 6; ++i) {
      spokes.push_back(
          *db.AddNode("S", {{"name", Value("s" + std::to_string(i))}}));
    }
    auto link = [&](Uid a, Uid b) {
      ASSERT_TRUE(db.AddEdge("E", a, b, {}).ok());
      ASSERT_TRUE(db.AddEdge("E", b, a, {}).ok());
    };
    link(hubs[0], hubs[1]);
    link(hubs[1], hubs[2]);
    link(hubs[2], hubs[0]);
    for (int i = 0; i < 6; ++i) {
      link(spokes[i], hubs[i % 3]);
      link(spokes[i], hubs[(i + 1) % 3]);
    }
    LockedExecutor exec(&db, db.backend().CreateExecutor());
    struct Case {
      std::string rep;
      int goal_depth;
      bool open_goal;
      uint64_t built;       // with the goal filter
      uint64_t unfiltered;  // the same Loop without it
    };
    for (const Case& c : {Case{"{1,5}", 2, false, 50, 132},
                          Case{"*", 0, true, 88, 160}}) {
      auto parsed = ParseRpe("S(id=" + std::to_string(spokes[0]) + ")->[E()]" +
                             c.rep + "->S(id=" + std::to_string(spokes[3]) +
                             ")");
      ASSERT_TRUE(parsed.ok()) << parsed.status();
      RpeNode rpe = *parsed;
      ASSERT_TRUE(ResolveRpe(**s, 32, &rpe).ok());
      const Program program = EmitProgram(BuildLogicalPlan(rpe).root);
      ASSERT_EQ(program.size(), 3u);
      std::vector<std::string> unfiltered_rows;
      for (bool goal : {false, true}) {
        MatchPlan plan;
        AnchoredPlan& anchored = plan.anchors.emplace_back();
        anchored.anchor = program[0].atom;
        anchored.suffix = {program[1], program[2]};
        anchored.suffix[0].goal_depth = goal ? c.goal_depth : 0;
        anchored.suffix[0].open_goal = goal && c.open_goal;
        obs::QueryStatsBuilder builder;
        const storage::PathSet paths =
            ExecuteMatch(exec, plan, storage::TimeView::Current(),
                         PlanOptions{1, 1}, builder.AddGroup("var P"));
        std::vector<std::string> rows;
        for (const storage::PathState& p : paths) rows.push_back(p.ToString());
        if (relational) std::sort(rows.begin(), rows.end());
        EXPECT_FALSE(rows.empty()) << c.rep;
        if (!goal) {
          unfiltered_rows = rows;
        } else {
          EXPECT_EQ(rows, unfiltered_rows)
              << c.rep << " on " << testing::BackendName(kind);
        }
        bool saw_loop = false;
        for (const obs::OperatorStats& op : builder.Snapshot().operators) {
          if (op.op.rfind("ExtendBlock", 0) == 0) {
            saw_loop = true;
            EXPECT_EQ(op.built, goal ? c.built : c.unfiltered)
                << c.rep << (goal ? " with" : " without") << " its goal on "
                << testing::BackendName(kind);
          }
        }
        EXPECT_TRUE(saw_loop) << c.rep;
      }
    }
  }
}

}  // namespace
}  // namespace nepal::nql
