// Advanced engine behaviour: plan explanation and SQL rendering, join
// ordering and anchor import, subquery nesting, projection edge cases,
// result limits, rows that share a path, Range-view coalescing, and error
// reporting.

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "nepal/engine.h"
#include "nepal/executor.h"
#include "nepal/plan.h"
#include "nepal/view_provider.h"
#include "obs/metrics.h"
#include "storage/pathset.h"
#include "tests/testutil.h"

namespace nepal {
namespace {

using nepal::testing::BackendKind;
using nepal::testing::MakeTinyNetwork;
using nepal::testing::TinyNetwork;

class EngineAdvancedTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    net_ = MakeTinyNetwork(GetParam());
    engine_ = std::make_unique<nql::QueryEngine>(net_.db.get());
  }

  nql::QueryResult Run(const std::string& query) {
    auto result = engine_->Run(query);
    EXPECT_TRUE(result.ok()) << result.status() << "\nquery: " << query;
    return result.ok() ? *result : nql::QueryResult{};
  }

  TinyNetwork net_;
  std::unique_ptr<nql::QueryEngine> engine_;
};

TEST_P(EngineAdvancedTest, RetrieveMultipleVariables) {
  auto result = Run(
      "Retrieve P, Q From PATHS P, PATHS Q "
      "Where P MATCHES VFC()->VM() And Q MATCHES VM()->Host() "
      "And target(P) = source(Q)");
  ASSERT_EQ(result.rows.size(), 3u);
  for (const auto& row : result.rows) {
    ASSERT_EQ(row.paths.size(), 2u);
    EXPECT_EQ(row.paths[0].target_uid(), row.paths[1].source_uid());
  }
  // Projection order follows the Retrieve list, not evaluation order.
  auto flipped = Run(
      "Retrieve Q, P From PATHS P, PATHS Q "
      "Where P MATCHES VFC()->VM() And Q MATCHES VM()->Host() "
      "And target(P) = source(Q)");
  ASSERT_EQ(flipped.path_columns[0], "Q");
  EXPECT_TRUE(flipped.rows[0].paths[0].concepts.back()->name() == "Host");
}

TEST_P(EngineAdvancedTest, CrossVariableFieldJoin) {
  // Join VMs to hosts by *name pattern*: here equality of owner-ish fields
  // is simulated by joining VMs to themselves via names.
  auto result = Run(
      "Select source(P).name From PATHS P, PATHS Q "
      "Where P MATCHES VM() And Q MATCHES VM() "
      "And source(P).name = source(Q).name "
      "And source(P) = source(Q)");
  EXPECT_EQ(result.rows.size(), 3u);
}

TEST_P(EngineAdvancedTest, InequalityComparison) {
  auto result = Run(
      "Retrieve P From PATHS P, PATHS Q "
      "Where P MATCHES VM()->Host() And Q MATCHES VM()->Host() "
      "And source(P) <> source(Q) And target(P) = target(Q)");
  // vm2 and vm3 share host2: two ordered pairs.
  EXPECT_EQ(result.rows.size(), 2u);
}

TEST_P(EngineAdvancedTest, ExistsWithoutNegation) {
  auto result = Run(
      "Retrieve V From PATHS V "
      "Where V MATCHES Host() "
      "And EXISTS( Retrieve P From PATHS P "
      "  Where P MATCHES VM()->Host() And target(P) = target(V))");
  // Both hosts run VMs.
  EXPECT_EQ(result.rows.size(), 2u);
}

TEST_P(EngineAdvancedTest, NestedSubqueries) {
  // Hosts that run a VM whose VFC belongs to vnf1 — phrased with two
  // levels of EXISTS.
  auto result = Run(
      "Retrieve H From PATHS H "
      "Where H MATCHES Host() "
      "And EXISTS( Retrieve P From PATHS P "
      "  Where P MATCHES VM()->Host() And target(P) = target(H) "
      "  And EXISTS( Retrieve Q From PATHS Q "
      "    Where Q MATCHES VNF(id=" +
      std::to_string(net_.vnf1) +
      ")->[Vertical()]{1,4}->VM() "
      "    And target(Q) = source(P)))");
  std::set<Uid> hosts;
  for (const auto& row : result.rows) {
    hosts.insert(row.paths[0].uids[0]);
  }
  EXPECT_EQ(hosts, (std::set<Uid>{net_.host1, net_.host2}));
}

TEST_P(EngineAdvancedTest, CountAndGroupBy) {
  // How many VMs does each host carry?
  auto result = Run(
      "Select target(P).name, count(P) From PATHS P "
      "Where P MATCHES VM()->Host() "
      "Group By target(P).name");
  ASSERT_EQ(result.rows.size(), 2u);
  std::map<std::string, int64_t> by_host;
  for (const auto& row : result.rows) {
    by_host[row.values[0].AsString()] = row.values[1].AsInt();
  }
  EXPECT_EQ(by_host["host1"], 1);
  EXPECT_EQ(by_host["host2"], 2);
}

TEST_P(EngineAdvancedTest, ResultKeysKeepDistinctValuesApart) {
  // Row coalescing, Group By and count(distinct) key rows by typed values.
  // The two doubles print alike under %g, and the two string pairs render
  // to the same quoted concatenation; neither pair may merge.
  auto schema = schema::ParseSchemaDsl(R"(
    node N : Node { x: double; s: string; t: string; }
  )");
  ASSERT_TRUE(schema.ok()) << schema.status();
  storage::GraphDb db(*schema,
                      nepal::testing::MakeBackend(GetParam(), *schema));
  ASSERT_TRUE(db.AddNode("N", {{"name", Value("n1")},
                               {"x", Value(1234567.0)},
                               {"s", Value("a'|'b")},
                               {"t", Value("c")}})
                  .ok());
  ASSERT_TRUE(db.AddNode("N", {{"name", Value("n2")},
                               {"x", Value(1234568.0)},
                               {"s", Value("a")},
                               {"t", Value("b'|'c")}})
                  .ok());
  nql::QueryEngine engine(&db);
  auto run = [&](const std::string& query) {
    auto result = engine.Run(query);
    EXPECT_TRUE(result.ok()) << result.status() << "\nquery: " << query;
    return result.ok() ? *result : nql::QueryResult{};
  };
  const std::string from = " From PATHS P Where P MATCHES N()";
  for (const std::string keys : {"source(P).x", "source(P).s, source(P).t"}) {
    EXPECT_EQ(run("Select " + keys + from).rows.size(), 2u) << keys;
    nql::QueryResult grouped =
        run("Select " + keys + ", count(P)" + from + " Group By " + keys);
    ASSERT_EQ(grouped.rows.size(), 2u) << keys;
    for (const auto& row : grouped.rows) {
      EXPECT_EQ(row.values.back().AsInt(), 1) << keys;
    }
  }
  nql::QueryResult distinct =
      run("Select count(distinct source(P).x)" + from);
  ASSERT_EQ(distinct.rows.size(), 1u);
  EXPECT_EQ(distinct.rows[0].values[0].AsInt(), 2);
}

TEST_P(EngineAdvancedTest, GlobalAggregatesWithoutGroupBy) {
  auto result = Run(
      "Select count(P), count(distinct target(P)), min(source(P).name), "
      "max(source(P).name), sum(length(P)) "
      "From PATHS P Where P MATCHES VM()->Host()");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].values[0], Value(int64_t{3}));  // 3 placements
  EXPECT_EQ(result.rows[0].values[1], Value(int64_t{2}));  // 2 hosts
  EXPECT_EQ(result.rows[0].values[2], Value("vm1"));
  EXPECT_EQ(result.rows[0].values[3], Value("vm3"));
  EXPECT_EQ(result.rows[0].values[4], Value(int64_t{9}));  // 3 paths x 3
}

TEST_P(EngineAdvancedTest, AggregateOverEmptyResultSet) {
  auto result = Run(
      "Select count(P) From PATHS P Where P MATCHES Docker()");
  ASSERT_TRUE(result.rows.empty());  // no rows, no groups
  result = Run(
      "Select count(P), min(source(P).name) From PATHS P "
      "Where P MATCHES VM() Group By length(P)");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].values[0], Value(int64_t{3}));
}

TEST_P(EngineAdvancedTest, AggregateValidationErrors) {
  // Ungrouped plain item alongside an aggregate.
  auto bad = engine_->Run(
      "Select source(P).name, count(P) From PATHS P Where P MATCHES VM()");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  // Aggregates with Retrieve make no sense.
  bad = engine_->Run(
      "Retrieve P From PATHS P Where P MATCHES VM() Group By source(P)");
  EXPECT_FALSE(bad.ok());
  // sum over strings.
  bad = engine_->Run(
      "Select sum(source(P).name) From PATHS P Where P MATCHES VM()");
  EXPECT_FALSE(bad.ok());
}

TEST_P(EngineAdvancedTest, MaxRowsCap) {
  nql::EngineOptions options;
  options.max_rows = 2;
  nql::QueryEngine capped(net_.db.get(), options);
  auto result = capped.Run("Retrieve P From PATHS P Where P MATCHES VM()");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 2u);
}

TEST_P(EngineAdvancedTest, SelectLengthAndBareVariable) {
  auto result = Run(
      "Select length(P), P From PATHS P Where P MATCHES "
      "VFC(name='vfc1')->VM()");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].values[0], Value(int64_t{3}));
  EXPECT_NE(result.rows[0].values[1].AsString().find("VFC#"),
            std::string::npos);
}

TEST_P(EngineAdvancedTest, SelectUnknownFieldFails) {
  auto result = engine_->Run(
      "Select source(P).wobble From PATHS P Where P MATCHES VM()");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_P(EngineAdvancedTest, ErrorsOnStructuralMisuse) {
  // Unknown range variable in Retrieve.
  EXPECT_FALSE(engine_->Run("Retrieve X From PATHS P Where P MATCHES VM()")
                   .ok());
  // Variable without a MATCHES predicate.
  EXPECT_FALSE(engine_->Run("Retrieve P From PATHS P, PATHS Q "
                            "Where P MATCHES VM()")
                   .ok());
  // Duplicate variable declaration.
  EXPECT_FALSE(engine_->Run("Retrieve P From PATHS P, PATHS P "
                            "Where P MATCHES VM()")
                   .ok());
  // Two MATCHES on one variable.
  EXPECT_FALSE(engine_->Run("Retrieve P From PATHS P "
                            "Where P MATCHES VM() And P MATCHES Host()")
                   .ok());
  // Comparison referencing a variable that exists nowhere.
  EXPECT_FALSE(engine_->Run("Retrieve P From PATHS P Where P MATCHES VM() "
                            "And source(Z) = target(P)")
                   .ok());
}

TEST_P(EngineAdvancedTest, ExplainListsEveryVariableAndSeeds) {
  auto plan = engine_->Explain(
      "Retrieve Phys From PATHS D1, PATHS Phys "
      "Where D1 MATCHES VNF(id=" + std::to_string(net_.vnf1) +
      ")->[Vertical()]{1,6}->Host() "
      "And Phys MATCHES [Connects()]{1,8} "
      "And source(Phys) = target(D1)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->find("var D1"), std::string::npos);
  EXPECT_NE(plan->find("anchor imported via join"), std::string::npos)
      << *plan;
}

TEST_P(EngineAdvancedTest, SqlTraceOnRelationalBackend) {
  const bool relational = GetParam() == BackendKind::kRelational;
  const std::string chain =
      "Retrieve P From PATHS P Where P MATCHES "
      "VNF(id=" + std::to_string(net_.vnf1) + ")->composed_of()->VFC()";
  auto plan = engine_->Explain(chain);
  ASSERT_TRUE(plan.ok()) << plan.status();
  if (relational) {
    // The relational executor renders the paper's TEMP-table SQL shape.
    EXPECT_NE(plan->find("create TEMP table"), std::string::npos) << *plan;
    EXPECT_NE(plan->find("uid_list"), std::string::npos);
    EXPECT_NE(plan->find("curr_uid"), std::string::npos);
    EXPECT_NE(plan->find("ANY(T.uid_list)"), std::string::npos);
  } else {
    // The graphstore has no SQL form: VERBOSE adds nothing to EXPLAIN.
    EXPECT_EQ(*plan, Run("EXPLAIN " + chain).explain_text);
  }
  // The EXPLAIN VERBOSE query form routes to the same rendering.
  auto verbose = Run("EXPLAIN VERBOSE " + chain);
  EXPECT_TRUE(verbose.rows.empty());
  EXPECT_EQ(verbose.explain_text, *plan);

  // A historical read goes through the current UNION history views.
  const std::string at_chain =
      "AT '" + FormatTimestamp(net_.db->Now()) + "' " + chain;
  auto at = engine_->Explain(at_chain);
  ASSERT_TRUE(at.ok()) << at.status();
  if (relational) {
    EXPECT_NE(at->find("__historical"), std::string::npos) << *at;
    EXPECT_NE(at->find("sys_period @>"), std::string::npos) << *at;
  }

  // A repetition block renders the SQL of its atom under the block.
  const std::string block =
      "Retrieve P From PATHS P Where P MATCHES "
      "VNF()->[Vertical()]{1,6}->Host()";
  auto blocked = engine_->Explain(block);
  ASSERT_TRUE(blocked.ok()) << blocked.status();
  if (relational) {
    const std::string header = "Loop{1,6}(Extend(Vertical())):\n";
    const size_t at_block = blocked->find(header);
    ASSERT_NE(at_block, std::string::npos) << *blocked;
    const std::string under = blocked->substr(at_block + header.size());
    EXPECT_EQ(under.find("Extend(Vertical()):\n"), under.find_first_not_of(' '))
        << *blocked;
    EXPECT_LT(under.find("create TEMP table"), under.find("Extend(Host())"))
        << *blocked;
    EXPECT_LT(under.find("cast('composed_of' as text)"),
              under.find("Extend(Host())"))
        << *blocked;
  }

  // VERBOSE renders the plan that ran, so it does not depend on how the
  // run was parallelized.
  nql::EngineOptions serial;
  serial.plan.parallelism = 1;
  nql::EngineOptions wide;
  wide.plan.parallelism = 4;
  nql::QueryEngine e1(net_.db.get(), serial);
  nql::QueryEngine e4(net_.db.get(), wide);
  for (const std::string& query : {chain, at_chain, block}) {
    auto v1 = e1.Explain(query);
    auto v4 = e4.Explain(query);
    ASSERT_TRUE(v1.ok()) << v1.status();
    ASSERT_TRUE(v4.ok()) << v4.status();
    EXPECT_EQ(*v1, *v4) << query;
  }
}

TEST_P(EngineAdvancedTest, ExplainVerboseRendersSeededVariableSql) {
  // Phys has no selective atom, so the join seeds it from D1's targets;
  // EXPLAIN VERBOSE renders the SQL of its seeded plan too.
  auto plan = engine_->Explain(
      "Retrieve Phys From PATHS D1, PATHS Phys "
      "Where D1 MATCHES VNF(id=" + std::to_string(net_.vnf1) +
      ")->[Vertical()]{1,6}->Host() "
      "And Phys MATCHES [Connects()]{1,8} "
      "And source(Phys) = target(D1)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  const size_t seeded = plan->find("anchor imported via join");
  ASSERT_NE(seeded, std::string::npos) << *plan;
  const std::string tail = plan->substr(seeded);
  if (GetParam() == BackendKind::kRelational) {
    const size_t header = tail.find("SelectSeeds:");
    ASSERT_NE(header, std::string::npos) << *plan;
    const size_t extend = tail.find("cast('Connects' as text)", header);
    EXPECT_NE(extend, std::string::npos) << *plan;
    // The seeds are the first TEMP table; the first Extend reads it.
    EXPECT_NE(tail.find("tmp_1 T where", header), std::string::npos)
        << *plan;
  } else {
    EXPECT_EQ(tail.find("SelectSeeds:"), std::string::npos) << *plan;
  }
}

TEST_P(EngineAdvancedTest, ExplainAnalyzeReportsPerOperatorStats) {
  const std::string query =
      "Retrieve P From PATHS P Where P MATCHES "
      "VNF()->[Vertical()]{1,6}->Host()";
  auto plain = Run(query);
  ASSERT_FALSE(plain.rows.empty());
  auto analyzed = Run("EXPLAIN ANALYZE " + query);
  EXPECT_TRUE(analyzed.rows.empty());
  const std::string& text = analyzed.explain_text;
  EXPECT_NE(text.find("rows_in"), std::string::npos) << text;
  EXPECT_NE(text.find("ExtendBlock{1,6}"), std::string::npos) << text;
  EXPECT_NE(text.find("total: " + std::to_string(plain.rows.size()) +
                      " row(s)"),
            std::string::npos)
      << text;

  auto stats = engine_->LastQueryStats();
  EXPECT_EQ(stats.result_rows, plain.rows.size());
  EXPECT_GT(stats.wall_ns, 0u);
  ASSERT_FALSE(stats.operators.empty());
  bool saw_select = false;
  uint64_t op_wall = 0;
  for (const auto& op : stats.operators) {
    if (op.op.rfind("Select", 0) == 0) {
      saw_select = true;
      EXPECT_GT(op.rows_out, 0u);
    }
    op_wall += op.wall_ns;
  }
  EXPECT_TRUE(saw_select);
  EXPECT_GT(op_wall, 0u);
}

TEST_P(EngineAdvancedTest, LoopsDedupEveryRoundThatCanRepeatAPath) {
  // Rows alone cannot show a skipped dedup (the Merge dedups too), so each
  // Loop's `built` is pinned: every round it built, after its dedup.
  // A(a)->E()->[Node()]{0,1} hands the next Loop both [a,e1]~>x and
  // [a,e1,x]; its one-atom body E() extends each to the same two paths
  // [a,e1,x,e2|e4], so only round 1's dedup keeps them apart: `built` is
  // round 1 (2) plus round 2 ([..,y,e3]~>z: 1). A body of a class and its
  // subclass, [E()|E1()], builds y's E1 edge twice in round 3, so every
  // round of an alternation keeps its dedup: 1 + 2 + 1.
  auto schema = schema::ParseSchemaDsl(R"(
    node A : Node {}
    edge E : Edge {}
    edge E1 : E {}
    allow E (Node -> Node);
  )");
  ASSERT_TRUE(schema.ok()) << schema.status();
  storage::GraphDb db(*schema, nepal::testing::MakeBackend(GetParam(),
                                                           *schema));
  std::map<std::string, Uid> n;
  for (const char* name : {"a", "x", "y", "z", "w"}) {
    n[name] = *db.AddNode("A", {{"name", Value(name)}});
  }
  for (auto [from, to] : std::vector<std::pair<const char*, const char*>>{
           {"a", "x"}, {"x", "y"}, {"y", "z"}, {"x", "w"}}) {
    const char* cls = std::string(from) == "y" ? "E1" : "E";
    ASSERT_TRUE(db.AddEdge(cls, n[from], n[to], {}).ok());
  }
  nql::EngineOptions options;
  options.plan.parallelism = 1;
  nql::QueryEngine engine(&db, options);
  struct Case {
    std::string rpe, loop;
    uint64_t rows_in, built, rows_out, rows;
  };
  const std::string a = "A(id=" + std::to_string(n["a"]) + ")";
  for (const Case& c : std::vector<Case>{
           {a + "->E()->[Node()]{0,1}->[E()]{1,2}", "ExtendBlock{1,2} E()", 2,
            3, 3, 3},
           {a + "->[E()|E1()]{1,3}", "ExtendBlock{1,3} E()|E1()", 1, 4, 4,
            4}}) {
    auto result = engine.Run(
        "EXPLAIN ANALYZE Retrieve P From PATHS P Where P MATCHES " + c.rpe);
    ASSERT_TRUE(result.ok()) << result.status();
    const std::string& text = result->explain_text;
    EXPECT_NE(text.find("total: " + std::to_string(c.rows) + " row(s)"),
              std::string::npos)
        << text;
    int loops = 0;
    for (const obs::OperatorStats& op : engine.LastQueryStats().operators) {
      if (op.op != c.loop) continue;
      ++loops;
      EXPECT_EQ(op.rows_in, c.rows_in) << text;
      EXPECT_EQ(op.built, c.built) << text;
      EXPECT_EQ(op.rows_out, c.rows_out) << text;
    }
    EXPECT_EQ(loops, 1) << text;
  }
}

TEST_P(EngineAdvancedTest, ExplainAnalyzeStatsInvariantAcrossParallelism) {
  const std::string query =
      "EXPLAIN ANALYZE Retrieve P From PATHS P Where P MATCHES "
      "VNF()->[Vertical()]{1,6}->Host()";
  nql::EngineOptions serial;
  serial.plan.parallelism = 1;
  nql::EngineOptions wide;
  wide.plan.parallelism = 8;
  nql::QueryEngine e1(net_.db.get(), serial);
  nql::QueryEngine e8(net_.db.get(), wide);
  ASSERT_TRUE(e1.Run(query).ok());
  ASSERT_TRUE(e8.Run(query).ok());
  auto s1 = e1.LastQueryStats();
  auto s8 = e8.LastQueryStats();
  EXPECT_EQ(s1.parallelism, 1);
  EXPECT_EQ(s8.parallelism, 8);
  EXPECT_EQ(s1.result_rows, s8.result_rows);
  // rows_in / rows_out are recorded at the logical invocation level and
  // must be partition-invariant (see obs/query_stats.h); wall_ns and
  // shards deliberately reflect the execution strategy and are excluded.
  auto tuples = [](const obs::QueryStats& s) {
    std::vector<std::string> v;
    for (const auto& op : s.operators) {
      v.push_back(op.group + "|" + op.op + "|" + std::to_string(op.rows_in) +
                  "|" + std::to_string(op.rows_out));
    }
    return v;
  };
  EXPECT_EQ(tuples(s1), tuples(s8));
}

TEST_P(EngineAdvancedTest, ExplainModesDoNotForceSerial) {
  nql::EngineOptions wide;
  wide.plan.parallelism = 8;
  nql::QueryEngine engine(net_.db.get(), wide);
  const std::string body =
      "Retrieve P From PATHS P Where P MATCHES "
      "VNF()->[Vertical()]{1,6}->Host()";
  auto plan = engine.Run("EXPLAIN " + body);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan->rows.empty());
  EXPECT_NE(plan->explain_text.find("var P"), std::string::npos)
      << plan->explain_text;
  EXPECT_EQ(engine.LastQueryStats().parallelism, 8);
  ASSERT_TRUE(engine.Run("EXPLAIN ANALYZE " + body).ok());
  EXPECT_EQ(engine.LastQueryStats().parallelism, 8);
}

TEST_P(EngineAdvancedTest, TimeRangeJoinCoalescesRowIntervals) {
  // Build churn: vm1 status flips irrelevant to the join; the joined row's
  // interval must stay maximal.
  Timestamp t0 = net_.db->Now();
  ASSERT_TRUE(net_.db->SetTime(t0 + 1000).ok());
  ASSERT_TRUE(
      net_.db->UpdateElement(net_.vm1, {{"status", Value("Yellow")}}).ok());
  ASSERT_TRUE(net_.db->SetTime(t0 + 2000).ok());
  ASSERT_TRUE(
      net_.db->UpdateElement(net_.vm1, {{"status", Value("Green")}}).ok());
  auto result = Run(
      "AT '" + FormatTimestamp(t0) + "' : '" + FormatTimestamp(t0 + 5000) +
      "' Retrieve P From PATHS P Where P MATCHES VFC()->VM(id=" +
      std::to_string(net_.vm1) + ")");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].valid.end, kTimestampMax);
}

TEST_P(EngineAdvancedTest, PathwayViews) {
  // A view naming the "implementation pathways" of the inventory.
  ASSERT_TRUE(engine_
                  ->DefineView("IMPLEMENTATIONS",
                               "VNF()->[Vertical()]{1,6}->Host()")
                  .ok());
  // A view can stand in for the MATCHES predicate entirely...
  auto all = Run("Retrieve P From IMPLEMENTATIONS P Where length(P) = 7");
  EXPECT_EQ(all.rows.size(), 3u);
  // ...or be narrowed further by one (intersection semantics).
  auto narrowed = Run(
      "Retrieve P From IMPLEMENTATIONS P "
      "Where P MATCHES Node()->[Vertical()]{1,6}->Host(id=" +
      std::to_string(net_.host2) + ")");
  EXPECT_EQ(narrowed.rows.size(), 2u);
  for (const auto& row : narrowed.rows) {
    EXPECT_EQ(row.paths[0].target_uid(), net_.host2);
    EXPECT_TRUE(row.paths[0].concepts[0]->IsSubclassOf(
        net_.db->schema().FindClass("VNF")));
  }
  // Mixing views and PATHS in one query.
  auto mixed = Run(
      "Retrieve P, Q From IMPLEMENTATIONS P, PATHS Q "
      "Where Q MATCHES Host() And target(P) = target(Q) "
      "And length(P) = 7");
  EXPECT_EQ(mixed.rows.size(), 3u);
}

TEST_P(EngineAdvancedTest, PathwayViewsUnderRange) {
  // Under a Range view a pathway comes once per version it has, on both
  // sides of a view intersection. vm2's status turns Red, then Green, so
  // the view holds vnf1 -> vfc2 -> vm2 -> host2 in three versions; a
  // MATCHES that wants vm2 Red holds it in one, and only its overlap with
  // the view's Red version is not empty.
  ASSERT_TRUE(engine_
                  ->DefineView("IMPLEMENTATIONS",
                               "VNF()->[Vertical()]{1,6}->Host()")
                  .ok());
  const Timestamp t0 = net_.db->Now();
  ASSERT_TRUE(net_.db->SetTime(t0 + 1000).ok());
  ASSERT_TRUE(
      net_.db->UpdateElement(net_.vm2, {{"status", Value("Red")}}).ok());
  ASSERT_TRUE(net_.db->SetTime(t0 + 2000).ok());
  ASSERT_TRUE(
      net_.db->UpdateElement(net_.vm2, {{"status", Value("Green")}}).ok());
  const std::string at = "AT '" + FormatTimestamp(t0) + "' : '" +
                         FormatTimestamp(t0 + 5000) + "' Retrieve P From ";
  auto rows = [&](const std::string& query) {
    std::vector<std::string> out;
    for (const auto& row : Run(at + query).rows) {
      out.push_back(row.paths[0].ToString() + " " +
                    row.paths[0].valid.ToString());
    }
    return out;
  };
  const std::string red = " P Where P MATCHES VNF()->VFC()->VM(status='Red')";
  const std::vector<std::string> narrowed = rows("IMPLEMENTATIONS" + red +
                                                 "->Host()");
  ASSERT_EQ(narrowed.size(), 1u);
  EXPECT_EQ(narrowed, rows("PATHS" + red + "->Host()"));
  const auto only = Run(at + "IMPLEMENTATIONS" + red + "->Host()");
  ASSERT_EQ(only.rows.size(), 1u);
  EXPECT_EQ(only.rows[0].paths[0].uids[4], net_.vm2);
  EXPECT_EQ(only.rows[0].paths[0].valid, (Interval{t0 + 1000, t0 + 2000}));
  // Three versions on each side: their overlaps coalesce back to the
  // view's own rows into host2.
  const std::string into_host2 =
      "->[Vertical()]{1,6}->Host(id=" + std::to_string(net_.host2) + ")";
  const std::vector<std::string> all =
      rows("IMPLEMENTATIONS P Where P MATCHES Node()" + into_host2);
  EXPECT_EQ(all.size(), 2u);
  EXPECT_EQ(all, rows("PATHS P Where P MATCHES VNF()" + into_host2));
}

TEST_P(EngineAdvancedTest, ViewErrors) {
  EXPECT_FALSE(engine_->DefineView("PATHS", "VM()").ok());
  EXPECT_FALSE(engine_->DefineView("BAD", "VM(").ok());
  auto unknown = engine_->Run(
      "Retrieve P From GHOSTVIEW P Where P MATCHES VM()");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
}

TEST_P(EngineAdvancedTest, DeterministicResultsAcrossRuns) {
  const std::string query =
      "Retrieve P From PATHS P Where P MATCHES "
      "VNF()->[Vertical()]{1,6}->Host()";
  auto r1 = Run(query);
  auto r2 = Run(query);
  ASSERT_EQ(r1.rows.size(), r2.rows.size());
  std::multiset<std::string> s1, s2;
  for (const auto& row : r1.rows) s1.insert(row.paths[0].ToString());
  for (const auto& row : r2.rows) s2.insert(row.paths[0].ToString());
  EXPECT_EQ(s1, s2);
}

// ---- Rows that share a path ----
// The result stage moves a path into the last row that references it and
// copies it into every earlier one. These tests pin rows in engine order
// against references built from each variable's single-variable result.

/// A row as text: each path column's elements and interval, then each
/// value, then the row's interval.
std::string RowText(const nql::ResultRow& row) {
  std::string out;
  for (const nql::Pathway& p : row.paths) out += p.ToString() + " | ";
  for (const Value& v : row.values) out += v.ToString() + " | ";
  return out + row.valid.ToString();
}

/// The reference row of `paths` under a shared (query-level) view: every
/// path carries the joint interval of them all.
std::string JointRowText(const std::vector<const nql::Pathway*>& paths) {
  nql::ResultRow row;
  for (const nql::Pathway* p : paths) row.valid = row.valid.Intersect(p->valid);
  for (const nql::Pathway* p : paths) {
    row.paths.push_back(*p);
    row.paths.back().valid = row.valid;
  }
  return RowText(row);
}

std::vector<std::string> RowTexts(const nql::QueryResult& result) {
  std::vector<std::string> out;
  for (const nql::ResultRow& row : result.rows) out.push_back(RowText(row));
  return out;
}

class SharedPathRowsTest : public EngineAdvancedTest {
 protected:
  /// The single-variable result of `rpe`, in engine order.
  std::vector<nql::Pathway> PathsOf(const std::string& rpe,
                                    const std::string& source = "") {
    std::vector<nql::Pathway> out;
    for (const nql::ResultRow& row :
         Run("Retrieve P From PATHS P" + source + " Where P MATCHES " + rpe)
             .rows) {
      out.push_back(row.paths[0]);
    }
    EXPECT_FALSE(out.empty()) << rpe;
    return out;
  }

  /// The variable the last query's join started from.
  std::string InitVar() {
    for (const obs::OperatorStats& op : engine_->LastQueryStats().operators) {
      if (op.group == "join" && op.op.rfind("Init ", 0) == 0) {
        return op.op.substr(5);
      }
    }
    ADD_FAILURE() << "no Init operator in the last query's stats";
    return "";
  }

  /// Reference rows of `Retrieve P, Q` joined in engine order: the first
  /// evaluated variable's paths outermost, `match(p, q)` filtering pairs.
  template <typename Match>
  std::vector<std::string> JoinReference(const std::vector<nql::Pathway>& ps,
                                         const std::vector<nql::Pathway>& qs,
                                         const Match& match) {
    std::vector<std::string> out;
    const bool p_first = InitVar() == "P";
    const auto& outer = p_first ? ps : qs;
    const auto& inner = p_first ? qs : ps;
    for (const nql::Pathway& a : outer) {
      for (const nql::Pathway& b : inner) {
        const nql::Pathway& p = p_first ? a : b;
        const nql::Pathway& q = p_first ? b : a;
        if (match(p, q)) out.push_back(JointRowText({&p, &q}));
      }
    }
    return out;
  }
};

TEST_P(SharedPathRowsTest, ProductJoinRowsShareEveryPath) {
  // Three paths each: every path of either variable is in three rows.
  const std::vector<nql::Pathway> ps = PathsOf("VM()->Host()");
  const std::vector<nql::Pathway> qs = PathsOf("VFC()->VM()");
  ASSERT_EQ(ps.size(), 3u);
  ASSERT_EQ(qs.size(), 3u);
  const std::string from =
      " From PATHS P, PATHS Q Where P MATCHES VM()->Host() "
      "And Q MATCHES VFC()->VM()";
  const nql::QueryResult pq = Run("Retrieve P, Q" + from);
  const std::vector<std::string> want =
      JoinReference(ps, qs, [](const auto&, const auto&) { return true; });
  ASSERT_EQ(want.size(), 9u);
  EXPECT_EQ(RowTexts(pq), want);
  // A variable named twice is referenced twice per row.
  const nql::QueryResult pqp = Run("Retrieve P, Q, P" + from);
  ASSERT_EQ(pqp.rows.size(), want.size());
  for (size_t r = 0; r < pqp.rows.size(); ++r) {
    ASSERT_EQ(pqp.rows[r].paths.size(), 3u);
    nql::ResultRow two = pqp.rows[r];
    EXPECT_EQ(two.paths[2].uids, two.paths[0].uids);
    EXPECT_EQ(two.paths[2].concepts, two.paths[0].concepts);
    EXPECT_EQ(two.paths[2].valid, two.paths[0].valid);
    two.paths.pop_back();
    EXPECT_EQ(RowText(two), want[r]);
  }
}

TEST_P(SharedPathRowsTest, EndpointHashJoinRowsShareAPath) {
  // The same network again as a second source: a join across sources is
  // never seeded, so each side keeps its single-variable order, and the
  // two copies agree on uids. host2's path is in two rows, one per VM on
  // it.
  TinyNetwork twin = MakeTinyNetwork(GetParam());
  ASSERT_EQ(twin.host2, net_.host2);
  nql::SourceDescriptor desc;
  desc.db = twin.db.get();
  ASSERT_TRUE(engine_->catalog().Register("twin", desc).ok());
  const std::vector<nql::Pathway> ps = PathsOf("Host()");
  const std::vector<nql::Pathway> qs =
      PathsOf("VFC()->VM()->Host()", " In 'twin'");
  const nql::QueryResult result = Run(
      "Retrieve P, Q From PATHS P, PATHS Q In 'twin' "
      "Where P MATCHES Host() And Q MATCHES VFC()->VM()->Host() "
      "And source(P) = target(Q)");
  bool hashed = false;
  for (const obs::OperatorStats& op : engine_->LastQueryStats().operators) {
    if (op.op.find("(hash)") != std::string::npos) hashed = true;
  }
  EXPECT_TRUE(hashed);
  const std::vector<std::string> want =
      JoinReference(ps, qs, [](const nql::Pathway& p, const nql::Pathway& q) {
        return p.source_uid() == q.target_uid();
      });
  ASSERT_EQ(want.size(), 3u);
  EXPECT_EQ(RowTexts(result), want);
}

TEST_P(SharedPathRowsTest, RetrieveOneVariableTwice) {
  const std::string rpe = "VNF()->[Vertical()]{1,6}->Host()";
  const std::vector<nql::Pathway> ps = PathsOf(rpe);
  const nql::QueryResult result =
      Run("Retrieve P, P From PATHS P Where P MATCHES " + rpe);
  std::vector<std::string> want;
  for (const nql::Pathway& p : ps) want.push_back(JointRowText({&p, &p}));
  EXPECT_EQ(RowTexts(result), want);
}

/// Serves one fixed snapshot under one view name.
class FixedViewProvider : public nql::PathwayViewProvider {
 public:
  explicit FixedViewProvider(nql::ServedView view) : view_(std::move(view)) {}
  std::optional<nql::ServedView> Match(
      const storage::GraphDb*, const std::string&,
      const std::optional<Timestamp>&) const override {
    return std::nullopt;
  }
  std::optional<nql::ServedView> Serve(const std::string& name) const override {
    if (name != view_.name) return std::nullopt;
    return view_;
  }

 private:
  nql::ServedView view_;
};

TEST_P(SharedPathRowsTest, ServedViewCorrelatedWithAColdVariable) {
  // A served variable is read in place from the cache's snapshot, so its
  // paths are copied into rows, never moved. Serving answers
  // single-variable queries; here a cold variable is joined to it through
  // a correlated subquery, and the served variable is retrieved twice.
  auto rpe = nql::ParseRpe("VM()->Host()");
  ASSERT_TRUE(rpe.ok());
  nql::RpeNode resolved = *rpe;
  ASSERT_TRUE(nql::ResolveRpe(net_.db->schema(), 32, &resolved).ok());
  auto plan = nql::PlanMatch(resolved, net_.db->backend(), nql::PlanOptions{});
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto exec = net_.db->backend().CreateExecutor();
  storage::PathSet cached = nql::ExecuteMatch(
      *exec, *plan, storage::TimeView::Current(), nql::PlanOptions{});
  storage::CanonicalizePaths(&cached);
  ASSERT_EQ(cached.size(), 3u);
  nql::ServedView view;
  view.name = "HOT";
  view.db = net_.db.get();
  view.epoch = net_.db->commit_epoch();
  view.paths = std::make_shared<const storage::PathSet>(cached);
  FixedViewProvider provider(view);
  engine_->set_view_provider(&provider);

  const std::vector<nql::Pathway> qs = PathsOf("VFC(name='vfc3')->VM()");
  std::vector<std::string> want;
  for (const storage::PathState& s : cached) {
    bool exists = false;
    for (const nql::Pathway& q : qs) exists |= q.target_uid() == s.uids[0];
    if (exists) continue;  // NOT EXISTS
    nql::Pathway p;
    p.uids = s.uids;
    p.concepts = s.concepts;
    p.valid = s.valid;
    want.push_back(JointRowText({&p, &p}));
  }
  ASSERT_EQ(want.size(), 2u);
  const std::string query =
      "Retrieve P, P From HOT P Where NOT EXISTS( Retrieve Q From PATHS Q "
      "Where Q MATCHES VFC(name='vfc3')->VM() And target(Q) = source(P) )";
  const uint64_t served_before =
      obs::MetricsRegistry::Global().GetCounter("nepal.views.served")->Value();
  for (int run = 0; run < 2; ++run) {
    EXPECT_EQ(RowTexts(Run(query)), want) << "run " << run;
  }
  EXPECT_EQ(
      obs::MetricsRegistry::Global().GetCounter("nepal.views.served")->Value(),
      served_before + 2);
  // The snapshot is untouched.
  ASSERT_EQ(view.paths->size(), cached.size());
  for (size_t i = 0; i < cached.size(); ++i) {
    EXPECT_TRUE((*view.paths)[i].SameIdentity(cached[i]));
    EXPECT_EQ((*view.paths)[i].concepts, cached[i].concepts);
  }
  engine_->set_view_provider(nullptr);
}

TEST_P(SharedPathRowsTest, GroupByAndCountDistinctWithRepeatedKeys) {
  // Every path between two of host1, sw1, sw2, rt1, host2: sources and
  // targets repeat, within and across groups.
  const std::string rpe = "Node()->[Connects()]{1,4}->Node()";
  const std::vector<nql::Pathway> ps = PathsOf(rpe);
  struct Group {
    Uid source;
    int64_t count = 0;
    std::vector<Uid> targets;  // distinct
  };
  std::vector<Group> groups;  // first-seen order
  for (const nql::Pathway& p : ps) {
    auto g = std::find_if(groups.begin(), groups.end(), [&](const Group& x) {
      return x.source == p.source_uid();
    });
    if (g == groups.end()) {
      g = groups.insert(groups.end(), Group{p.source_uid(), 0, {}});
    }
    ++g->count;
    if (std::find(g->targets.begin(), g->targets.end(), p.target_uid()) ==
        g->targets.end()) {
      g->targets.push_back(p.target_uid());
    }
  }
  ASSERT_LT(groups.size(), ps.size());
  std::vector<std::string> want;
  for (const Group& g : groups) {
    nql::ResultRow row;
    row.values = {Value(static_cast<int64_t>(g.source)), Value(g.count),
                  Value(static_cast<int64_t>(g.targets.size()))};
    want.push_back(RowText(row));
  }
  const nql::QueryResult result =
      Run("Select source(P), count(P), count(distinct target(P)) "
          "From PATHS P Where P MATCHES " + rpe + " Group By source(P)");
  EXPECT_EQ(RowTexts(result), want);
}

TEST_P(EngineAdvancedTest, RangeViewCoalescesVersionsInFirstOccurrenceOrder) {
  // Under a Range view vm1 and vm3 have three versions each, with adjacent
  // intervals, and vm2 two: each VFC -> VM path comes once per version and
  // coalesces back into one row, rows in the order the paths first occur.
  // The Red versions of vm1 and vm3 overlap; joined to one VFC path, their
  // joint intervals merge into one row per maximal interval.
  const Timestamp t0 = net_.db->Now();
  auto update = [&](Timestamp t, Uid vm, const char* status) {
    ASSERT_TRUE(net_.db->SetTime(t).ok());
    ASSERT_TRUE(net_.db->UpdateElement(vm, {{"status", Value(status)}}).ok());
  };
  update(t0 + 1000, net_.vm1, "Red");
  update(t0 + 1500, net_.vm3, "Red");
  update(t0 + 2000, net_.vm1, "Green");
  update(t0 + 2500, net_.vm3, "Green");
  update(t0 + 3000, net_.vm2, "Red");
  const std::string at = "AT '" + FormatTimestamp(t0) + "' : '" +
                         FormatTimestamp(t0 + 5000) + "' ";
  auto rows = [&](const std::string& query) {
    std::vector<std::pair<std::vector<Uid>, Interval>> out;
    for (const nql::ResultRow& row : Run(at + query).rows) {
      out.emplace_back(row.paths[0].uids, row.paths[0].valid);
      EXPECT_EQ(row.valid, row.paths[0].valid);
    }
    return out;
  };
  auto path_from = [&](Uid vfc) {
    const nql::QueryResult current =
        Run("Retrieve P From PATHS P Where P MATCHES VFC(id=" +
            std::to_string(vfc) + ")->VM()");
    EXPECT_EQ(current.rows.size(), 1u);
    return current.rows.empty() ? std::vector<Uid>{}
                                : current.rows[0].paths[0].uids;
  };
  const std::vector<Uid> vfc_vm1 = path_from(net_.vfc1);
  const std::vector<Uid> vfc_vm2 = path_from(net_.vfc2);
  const std::vector<Uid> vfc_vm3 = path_from(net_.vfc3);
  const Interval always{t0, kTimestampMax};
  using Rows = std::vector<std::pair<std::vector<Uid>, Interval>>;
  EXPECT_EQ(rows("Retrieve P From PATHS P Where P MATCHES VFC()->VM()"),
            (Rows{{vfc_vm1, always}, {vfc_vm2, always}, {vfc_vm3, always}}));
  EXPECT_EQ(rows("Retrieve P From PATHS P, PATHS Q "
                 "Where P MATCHES VFC(id=" + std::to_string(net_.vfc1) +
                 ")->VM() And Q MATCHES VM(status='Red')"),
            (Rows{{vfc_vm1, Interval{t0 + 1000, t0 + 2500}},
                  {vfc_vm1, Interval{t0 + 3000, kTimestampMax}}}));
}

INSTANTIATE_TEST_SUITE_P(
    Backends, SharedPathRowsTest,
    ::testing::Values(BackendKind::kGraphStore, BackendKind::kRelational),
    [](const ::testing::TestParamInfo<BackendKind>& info) {
      return nepal::testing::BackendName(info.param);
    });

INSTANTIATE_TEST_SUITE_P(
    Backends, EngineAdvancedTest,
    ::testing::Values(BackendKind::kGraphStore, BackendKind::kRelational),
    [](const ::testing::TestParamInfo<BackendKind>& info) {
      return nepal::testing::BackendName(info.param);
    });

}  // namespace
}  // namespace nepal
