// Tests for the regular-path automaton: saturating atom counts, the
// unbounded-repetition sentinel, NFA construction shapes, and Kleene-star
// product traversal on a cyclic graph — on both backends, at parallelism
// 1 and N, checked against the bounded legacy-loop oracle.

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "nepal/engine.h"
#include "nepal/nfa.h"
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

RpeNode MustResolve(const std::string& text, int max_repetition = 32) {
  // Static: resolved atoms hold ClassDef pointers into this schema.
  static const schema::SchemaPtr schema = Figure3Schema();
  RpeNode rpe = Normalize(MustParseRpe(text));
  Status st = ResolveRpe(*schema, max_repetition, &rpe);
  EXPECT_TRUE(st.ok()) << st << "\nrpe: " << text;
  return rpe;
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
  // {1,6} trips a max_repetition of 4; an open maximum does not (the
  // automaton bounds it dynamically), but a minimum above the limit does.
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

// ---- NFA construction ----

TEST(NfaBuildTest, SingleAtom) {
  Nfa nfa = BuildNfa(MustResolve("Connects()"));
  EXPECT_EQ(nfa.num_states(), 2u);
  EXPECT_EQ(nfa.num_transitions(), 1u);
  EXPECT_FALSE(nfa.accepts_empty());
  EXPECT_TRUE(nfa.accept[1]);
}

TEST(NfaBuildTest, KleeneStarIsASelfLoop) {
  Nfa nfa = BuildNfa(MustResolve("[Connects()]*"));
  // start (accepting: zero iterations) plus one looping state.
  ASSERT_EQ(nfa.num_states(), 2u);
  EXPECT_TRUE(nfa.accepts_empty());
  EXPECT_TRUE(nfa.accept[1]);
  ASSERT_EQ(nfa.states[1].size(), 1u);
  EXPECT_EQ(nfa.states[1][0].target, 1);  // the Kleene cycle
}

TEST(NfaBuildTest, PlusRequiresOneIteration) {
  Nfa nfa = BuildNfa(MustResolve("[Connects()]+"));
  EXPECT_FALSE(nfa.accepts_empty());
  ASSERT_EQ(nfa.num_states(), 3u);
  EXPECT_FALSE(nfa.accept[0]);
  EXPECT_TRUE(nfa.accept[1]);
  EXPECT_TRUE(nfa.accept[2]);
}

TEST(NfaBuildTest, BoundedRepIsADag) {
  // {2,4}: two mandatory copies then two optional ones; each copy's end is
  // a distinct state, so iteration count is encoded in the state id.
  Nfa nfa = BuildNfa(MustResolve("[Connects()]{2,4}"));
  ASSERT_EQ(nfa.num_states(), 5u);
  EXPECT_FALSE(nfa.accepts_empty());
  EXPECT_FALSE(nfa.accept[1]);
  EXPECT_TRUE(nfa.accept[2]);
  EXPECT_TRUE(nfa.accept[3]);
  EXPECT_TRUE(nfa.accept[4]);
  // A DAG: no state reaches itself.
  for (size_t s = 0; s < nfa.num_states(); ++s) {
    for (const NfaTransition& tr : nfa.states[s]) {
      EXPECT_NE(tr.target, static_cast<int>(s));
    }
  }
}

TEST(NfaBuildTest, AlternationBody) {
  Nfa nfa = BuildNfa(MustResolve("[Connects()|VirtualConnects()]*"));
  EXPECT_TRUE(nfa.accepts_empty());
  // Start plus one state per alternative's landing point; every state can
  // take either branch again (2 transitions each).
  EXPECT_EQ(nfa.num_states(), 3u);
  EXPECT_EQ(nfa.num_transitions(), 6u);
}

TEST(NfaBuildTest, ReverseKeepsLanguageShape) {
  // Reversed star still recognizes Connects* (the construction does not
  // minimize, so only language-level shape is asserted).
  Nfa star = ReverseNfa(BuildNfa(MustResolve("[Connects()]*")));
  EXPECT_TRUE(star.accepts_empty());
  for (const auto& out : star.states) {
    for (const NfaTransition& tr : out) {
      EXPECT_EQ(tr.atom.cls->name(), "Connects");
    }
  }

  // Reversing an asymmetric sequence flips which atom leaves the start.
  Nfa seq = BuildNfa(MustResolve("Host()->Switch()"));
  Nfa rev = ReverseNfa(seq);
  EXPECT_EQ(rev.num_states(), seq.num_states());
  EXPECT_EQ(rev.num_transitions(), seq.num_transitions());
  ASSERT_FALSE(seq.states[0].empty());
  ASSERT_FALSE(rev.states[0].empty());
  EXPECT_EQ(seq.states[0][0].atom.cls->name(), "Host");
  EXPECT_EQ(rev.states[0][0].atom.cls->name(), "Switch");
}

// ---- Product traversal on a cyclic graph ----

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
  // {0,6} covers every simple path in this graph, so the legacy loop
  // (default strategy) is an exact oracle for the automaton.
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
  // (it runs as an open Loop, the general body on the automaton).
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

TEST_P(KleeneStarTest, ExplainPrintsTheAutomaton) {
  auto result = engine_->Run(
      "EXPLAIN Retrieve P From PATHS P Where P MATCHES "
      "Host(name='host1')->[Connects()->Node()]*");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NE(result->explain_text.find("Automaton*"), std::string::npos)
      << result->explain_text;
  EXPECT_NE(result->explain_text.find("state 0 [start]"), std::string::npos)
      << result->explain_text;
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
