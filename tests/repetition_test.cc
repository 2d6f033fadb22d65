// Tests for repetitions: saturating atom counts, the unbounded-repetition
// sentinel and the length limit, and open repetitions on a cyclic graph —
// Kleene-star Loops, including bodies the planner rewrites (nullable,
// nested, mixed-length) — on both backends, at parallelism 1 and N,
// checked against bounded forms of the same RPE.

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "nepal/engine.h"
#include "nepal/parser.h"
#include "nepal/rpe.h"
#include "tests/testutil.h"

namespace nepal::nql {
namespace {

using nepal::testing::BackendKind;
using nepal::testing::Figure3Schema;
using nepal::testing::MakeTinyNetwork;
using nepal::testing::TinyNetwork;

RpeNode MustParseRpe(const std::string& text) {
  auto r = ParseRpe(text);
  EXPECT_TRUE(r.ok()) << r.status() << "\nrpe: " << text;
  return r.ok() ? *r : RpeNode{};
}

// ---- MinAtoms / MaxAtoms saturation (regression: these used to overflow
// int on nested large repetitions, which is signed-overflow UB) ----

TEST(RpeAtomCountsTest, NestedLargeRepetitionsSaturate) {
  // 32^8 atoms is far beyond INT_MAX; the counts must clamp, not wrap.
  RpeNode rpe = RpeNode::Atom("A");
  for (int i = 0; i < 8; ++i) rpe = RpeNode::Rep(std::move(rpe), 32, 32);
  EXPECT_EQ(MaxAtoms(rpe), kUnboundedRep);
  EXPECT_EQ(MinAtoms(rpe), kUnboundedRep);

  // A sequence of saturated branches stays saturated.
  RpeNode seq = RpeNode::Seq({rpe, RpeNode::Atom("B")});
  EXPECT_EQ(MaxAtoms(seq), kUnboundedRep);
  EXPECT_EQ(MinAtoms(seq), kUnboundedRep);
}

TEST(RpeAtomCountsTest, LargeButBoundedCountsAreExact) {
  RpeNode rpe = RpeNode::Rep(RpeNode::Atom("A"), 1000, 20000);
  EXPECT_EQ(MinAtoms(rpe), 1000);
  EXPECT_EQ(MaxAtoms(rpe), 20000);
}

TEST(RpeAtomCountsTest, UnboundedRepUsesSentinel) {
  RpeNode star = RpeNode::Rep(RpeNode::Atom("A"), 0, kUnboundedRep);
  EXPECT_EQ(MinAtoms(star), 0);
  EXPECT_EQ(MaxAtoms(star), kUnboundedRep);

  RpeNode plus = RpeNode::Rep(RpeNode::Atom("A"), 1, kUnboundedRep);
  EXPECT_EQ(MinAtoms(plus), 1);
  EXPECT_EQ(MaxAtoms(plus), kUnboundedRep);
}

// ---- Unbounded repetitions and the length limit ----

TEST(UnboundedRepTest, ExemptFromLengthLimit) {
  // {1,6} trips a max_repetition of 4; an open maximum does not (an open
  // Loop ends at its first empty round), but a minimum above the limit
  // does.
  schema::SchemaPtr schema = Figure3Schema();
  for (const char* text : {"[Connects()]{1,6}", "[Connects()]{5,}"}) {
    RpeNode rpe = Normalize(MustParseRpe(text));
    Status st = ResolveRpe(*schema, 4, &rpe);
    EXPECT_EQ(st.code(), StatusCode::kPlanError) << st << "\nrpe: " << text;
  }

  for (const char* text : {"[Connects()]*", "[Connects()]+",
                           "[Connects()]{2,}", "[Connects()]{4,}"}) {
    RpeNode open = Normalize(MustParseRpe(text));
    Status st = ResolveRpe(*schema, 4, &open);
    EXPECT_TRUE(st.ok()) << st << "\nrpe: " << text;
  }
}

// ---- Open repetitions on a cyclic graph ----

// TinyNetwork's Connects edges run both ways (host1 <-> sw1 <-> sw2 <->
// host2, sw1 <-> rt1), so the underlay is cyclic; only the simple-path
// rule (no repeated elements) makes Kleene-star traversal finite.
class KleeneStarTest
    : public ::testing::TestWithParam<std::tuple<BackendKind, int>> {
 protected:
  void SetUp() override {
    net_ = MakeTinyNetwork(std::get<0>(GetParam()));
    nql::EngineOptions options;
    options.plan.parallelism = std::get<1>(GetParam());
    engine_ = std::make_unique<nql::QueryEngine>(net_.db.get(), options);
  }

  std::multiset<std::string> Paths(const std::string& rpe) {
    auto result = engine_->Run(
        "Retrieve P From PATHS P Where P MATCHES " + rpe);
    EXPECT_TRUE(result.ok()) << result.status() << "\nrpe: " << rpe;
    std::multiset<std::string> out;
    if (!result.ok()) return out;
    for (const auto& row : result->rows) {
      out.insert(row.paths[0].ToString());
    }
    return out;
  }

  TinyNetwork net_;
  std::unique_ptr<nql::QueryEngine> engine_;
};

TEST_P(KleeneStarTest, StarTerminatesAndMatchesBoundedOracle) {
  // The five simple Connects-paths out of host1: itself, sw1, sw1-sw2,
  // sw1-rt1, sw1-sw2-host2.
  auto star = Paths("Host(name='host1')->[Connects()->Node()]*");
  EXPECT_EQ(star.size(), 5u);
  // {0,6} covers every simple path in this graph, so the bounded Loop is
  // an exact oracle for the open one.
  auto bounded = Paths("Host(name='host1')->[Connects()->Node()]{0,6}");
  EXPECT_EQ(star, bounded);
}

TEST_P(KleeneStarTest, PlusDropsTheEmptyIteration) {
  auto plus = Paths("Host(name='host1')->[Connects()->Node()]+");
  EXPECT_EQ(plus.size(), 4u);
  auto bounded = Paths("Host(name='host1')->[Connects()->Node()]{1,6}");
  EXPECT_EQ(plus, bounded);
}

TEST_P(KleeneStarTest, OpenLowerBoundForm) {
  auto two_plus = Paths("Host(name='host1')->[Connects()->Node()]{2,}");
  auto bounded = Paths("Host(name='host1')->[Connects()->Node()]{2,6}");
  EXPECT_EQ(two_plus, bounded);
  EXPECT_EQ(two_plus.size(), 3u);  // sw1-sw2, sw1-rt1, sw1-sw2-host2
}

TEST_P(KleeneStarTest, BareEdgeStarMaterializesImplicitNodes) {
  // Edge-after-edge concatenation materializes the implicit node between
  // iterations, so [Connects()]* must reach exactly the same endpoints
  // (an open Loop over one atom, the other one over a general body).
  auto explicit_nodes = Paths("Host(name='host1')->[Connects()->Node()]*");
  auto implicit_nodes = Paths("Host(name='host1')->[Connects()]*");
  EXPECT_EQ(explicit_nodes, implicit_nodes);
}

TEST_P(KleeneStarTest, StarOverVerticalLayers) {
  // Reachability down the hosting chain: vnf1 composed_of vfc{1,2}
  // hosted_on vm{1,2} OnServer host{1,2} — plus the bare vnf1 itself.
  auto down = Paths("VNF(name='vnf1')->[Vertical()->Node()]*");
  EXPECT_EQ(down.size(), 7u);
  auto bounded = Paths("VNF(name='vnf1')->[Vertical()->Node()]{0,4}");
  EXPECT_EQ(down, bounded);
}

TEST_P(KleeneStarTest, RewrittenOpenBodiesMatchTheirAtomForms) {
  // [[r]{0,2}]* is [r]* once the planner drops the body's empty match and
  // flattens it; every path [r|r->Node()->r]+ matches is a chain of r's.
  EXPECT_EQ(Paths("Host(name='host1')->[[Connects()]{0,2}]*"),
            Paths("Host(name='host1')->[Connects()]*"));
  auto plus = Paths("Host(name='host1')->[Connects()]+");
  EXPECT_EQ(plus.size(), 4u);
  EXPECT_EQ(
      Paths("Host(name='host1')->[Connects()|Connects()->Node()->Connects()]+"),
      plus);
}

TEST_P(KleeneStarTest, ExplainPrintsTheOpenLoop) {
  auto result = engine_->Run(
      "EXPLAIN Retrieve P From PATHS P Where P MATCHES "
      "Host(name='host1')->[Connects()->Node()]*");
  ASSERT_TRUE(result.ok()) << result.status();
  const std::string& text = result->explain_text;
  EXPECT_NE(text.find("Loop*("), std::string::npos) << text;
  EXPECT_EQ(text.find("Automaton"), std::string::npos) << text;
  EXPECT_EQ(text.find("state 0"), std::string::npos) << text;
}

INSTANTIATE_TEST_SUITE_P(
    Backends, KleeneStarTest,
    ::testing::Combine(::testing::Values(BackendKind::kGraphStore,
                                         BackendKind::kRelational),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<KleeneStarTest::ParamType>& info) {
      return nepal::testing::BackendName(std::get<0>(info.param)) + "_p" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace nepal::nql
