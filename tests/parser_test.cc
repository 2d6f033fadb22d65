// Unit tests for the NQL parser, including every query from the paper
// (Sections 3.4, 4) verbatim or near-verbatim.

#include <gtest/gtest.h>

#include "nepal/parser.h"

namespace nepal::nql {
namespace {

Query MustParse(const std::string& text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status() << "\nquery: " << text;
  return q.ok() ? *q : Query{};
}

RpeNode MustParseRpe(const std::string& text) {
  auto r = ParseRpe(text);
  EXPECT_TRUE(r.ok()) << r.status() << "\nrpe: " << text;
  return r.ok() ? *r : RpeNode{};
}

// ---- RPE grammar ----

TEST(RpeParserTest, AtomForms) {
  RpeNode atom = MustParseRpe("VM()");
  EXPECT_EQ(atom.kind, RpeNode::Kind::kAtom);
  EXPECT_EQ(atom.class_name, "VM");
  EXPECT_TRUE(atom.raw_conditions.empty());

  atom = MustParseRpe("VM(status='Green', id=55, weight>=2.5)");
  ASSERT_EQ(atom.raw_conditions.size(), 3u);
  EXPECT_EQ(atom.raw_conditions[0].field, "status");
  EXPECT_EQ(atom.raw_conditions[0].value, Value("Green"));
  EXPECT_EQ(atom.raw_conditions[1].field, "id");
  EXPECT_EQ(atom.raw_conditions[2].op, storage::FieldCondition::Op::kGe);
}

TEST(RpeParserTest, QualifiedClassNames) {
  RpeNode atom = MustParseRpe("Vertical:HostedOn:OnVM()");
  EXPECT_EQ(atom.class_name, "Vertical:HostedOn:OnVM");
}

TEST(RpeParserTest, ConcatenationAndPrecedence) {
  // a->b|c->d parses as Alt(Seq(a,b), Seq(c,d)).
  RpeNode rpe = MustParseRpe("A()->B()|C()->D()");
  ASSERT_EQ(rpe.kind, RpeNode::Kind::kAlt);
  ASSERT_EQ(rpe.children.size(), 2u);
  EXPECT_EQ(rpe.children[0].kind, RpeNode::Kind::kSeq);
}

TEST(RpeParserTest, RepetitionSuffixForms) {
  // Brackets with the bound outside...
  RpeNode rpe = MustParseRpe("[HostedOn()]{1,6}");
  ASSERT_EQ(rpe.kind, RpeNode::Kind::kRep);
  EXPECT_EQ(rpe.min_rep, 1);
  EXPECT_EQ(rpe.max_rep, 6);
  // ... with the bound inside (as in the paper's subquery example) ...
  rpe = MustParseRpe("[HostedOn(){1,5}]");
  ASSERT_EQ(rpe.kind, RpeNode::Kind::kRep);
  EXPECT_EQ(rpe.max_rep, 5);
  // ... directly on an atom ...
  rpe = MustParseRpe("Vertical(){1,6}");
  ASSERT_EQ(rpe.kind, RpeNode::Kind::kRep);
  // ... on a parenthesized alternation ...
  rpe = MustParseRpe("(VM(id=55)|Docker(id=66)){1,2}");
  ASSERT_EQ(rpe.kind, RpeNode::Kind::kRep);
  EXPECT_EQ(rpe.children[0].kind, RpeNode::Kind::kAlt);
  // ... and the paper's occasional dash form {1-3}.
  rpe = MustParseRpe("[HostedOn()]{1-3}");
  ASSERT_EQ(rpe.kind, RpeNode::Kind::kRep);
  EXPECT_EQ(rpe.max_rep, 3);
}

TEST(RpeParserTest, NormalizationFlattens) {
  RpeNode rpe = MustParseRpe("A()->(B()->C())->D()");
  ASSERT_EQ(rpe.kind, RpeNode::Kind::kSeq);
  EXPECT_EQ(rpe.children.size(), 4u);
  // {1,1} collapses.
  rpe = MustParseRpe("[A()]{1,1}");
  EXPECT_EQ(rpe.kind, RpeNode::Kind::kAtom);
}

TEST(RpeParserTest, MinMaxAtoms) {
  RpeNode rpe = MustParseRpe("A()->[B()]{0,3}->(C()|D()->E())");
  EXPECT_EQ(MinAtoms(rpe), 2);  // A + C
  EXPECT_EQ(MaxAtoms(rpe), 6);  // A + 3B + D + E
}

TEST(RpeParserTest, Errors) {
  EXPECT_FALSE(ParseRpe("").ok());
  EXPECT_FALSE(ParseRpe("VM(").ok());
  EXPECT_FALSE(ParseRpe("VM()->").ok());
  EXPECT_FALSE(ParseRpe("[VM()]{2}").ok());
  EXPECT_FALSE(ParseRpe("VM(status=)").ok());
  EXPECT_FALSE(ParseRpe("VM() extra").ok());
}

// ---- Unbounded repetition syntax (*, +, {i,}) ----

TEST(RpeParserTest, UnboundedRepetitionForms) {
  RpeNode rpe = MustParseRpe("[Connects()]*");
  ASSERT_EQ(rpe.kind, RpeNode::Kind::kRep);
  EXPECT_EQ(rpe.min_rep, 0);
  EXPECT_EQ(rpe.max_rep, kUnboundedRep);

  rpe = MustParseRpe("[Connects()]+");
  ASSERT_EQ(rpe.kind, RpeNode::Kind::kRep);
  EXPECT_EQ(rpe.min_rep, 1);
  EXPECT_EQ(rpe.max_rep, kUnboundedRep);

  rpe = MustParseRpe("[Connects()]{3,}");
  ASSERT_EQ(rpe.kind, RpeNode::Kind::kRep);
  EXPECT_EQ(rpe.min_rep, 3);
  EXPECT_EQ(rpe.max_rep, kUnboundedRep);

  // Postfix operators bind to atoms and groups too.
  rpe = MustParseRpe("Connects()*");
  ASSERT_EQ(rpe.kind, RpeNode::Kind::kRep);
  EXPECT_EQ(rpe.min_rep, 0);
  rpe = MustParseRpe("(Connects()|VirtualConnects())+");
  ASSERT_EQ(rpe.kind, RpeNode::Kind::kRep);
  EXPECT_EQ(rpe.children[0].kind, RpeNode::Kind::kAlt);
}

TEST(RpeParserTest, UnboundedRepetitionRoundTrips) {
  // parse -> ToString -> parse is a fixpoint for the canonical forms.
  for (const char* text :
       {"[Connects()]*", "[Connects()]+", "[Connects()]{3,}",
        "Host()->[Connects()]*->Switch()",
        "A()->[B()->C()]+->(D()|E())",
        "[HostedOn()]{1,6}"}) {
    RpeNode first = Normalize(MustParseRpe(text));
    std::string rendered = first.ToString();
    RpeNode second = Normalize(MustParseRpe(rendered));
    EXPECT_EQ(rendered, second.ToString()) << "input: " << text;
  }
  // The canonical renderings themselves.
  EXPECT_EQ(MustParseRpe("[Connects()]*").ToString(), "[Connects()]*");
  EXPECT_EQ(MustParseRpe("[Connects()]+").ToString(), "[Connects()]+");
  EXPECT_EQ(MustParseRpe("[Connects()]{2,}").ToString(), "[Connects()]{2,}");
  EXPECT_EQ(MustParseRpe("[Connects()]{2,5}").ToString(),
            "[Connects()]{2,5}");
}

TEST(RpeParserTest, RepetitionBoundErrors) {
  // min > max is rejected at parse time now, not at resolution.
  EXPECT_FALSE(ParseRpe("[VM()]{3,1}").ok());
  // {,} and {,5} have no minimum.
  EXPECT_FALSE(ParseRpe("[VM()]{,}").ok());
  EXPECT_FALSE(ParseRpe("[VM()]{,5}").ok());
  // Dangling or doubled postfix operators.
  EXPECT_FALSE(ParseRpe("*").ok());
  EXPECT_FALSE(ParseRpe("VM()**").ok());
  EXPECT_FALSE(ParseRpe("[VM()]{3,}*").ok());
  // Bounds must fit an int below the open-bound sentinel; they are never
  // truncated.
  for (const char* text :
       {"[VM()]{5000000000,6000000000}", "[VM()]{1,5000000000}",
        "[VM()]{5000000000,}", "[VM()]{1,2147483647}",
        "[VM()]{99999999999999999999,}"}) {
    auto rpe = ParseRpe(text);
    ASSERT_FALSE(rpe.ok()) << text;
    EXPECT_EQ(rpe.status().code(), StatusCode::kParseError) << text;
  }
}

// ---- Full queries from the paper ----

TEST(QueryParserTest, PaperRetrieveExample) {
  Query q = MustParse(
      "Retrieve P From PATHS P "
      "WHERE P MATCHES VNF()->VFC()->VM()->Host(id=23245)");
  EXPECT_FALSE(q.is_select);
  ASSERT_EQ(q.retrieve_vars.size(), 1u);
  EXPECT_EQ(q.retrieve_vars[0], "P");
  ASSERT_EQ(q.range_vars.size(), 1u);
  ASSERT_EQ(q.where.size(), 1u);
  EXPECT_EQ(q.where[0].kind, Predicate::Kind::kMatches);
}

TEST(QueryParserTest, PaperJoinExample) {
  Query q = MustParse(
      "Retrieve Phys From PATHS D1, PATHS D2, PATHS Phys "
      "Where D1 MATCHES VNF(id=123)->Vertical(){1,6}->Host() "
      "And D2 MATCHES VNF(id=234)->Vertical(){1,6}->Host() "
      "And Phys MATCHES ConnectsTo(){1,8} "
      "And source(Phys)=target(D1) "
      "And target(Phys)=target(D2)");
  EXPECT_EQ(q.range_vars.size(), 3u);
  EXPECT_EQ(q.where.size(), 5u);
  EXPECT_EQ(q.where[3].kind, Predicate::Kind::kCompare);
  EXPECT_EQ(q.where[3].lhs.kind, PathExpr::Kind::kSource);
  EXPECT_EQ(q.where[3].lhs.var, "Phys");
  EXPECT_EQ(q.where[3].rhs.kind, PathExpr::Kind::kTarget);
}

TEST(QueryParserTest, PaperSubqueryExample) {
  Query q = MustParse(
      "Retrieve V From PATHS V "
      "Where V MATCHES VM() "
      "And NOT EXISTS( "
      "Retrieve P from PATHS P "
      "Where P MATCHES (VNF()|VFC())->[HostedOn(){1,5}]->VM() "
      "And target(V) = target(P))");
  ASSERT_EQ(q.where.size(), 2u);
  EXPECT_EQ(q.where[1].kind, Predicate::Kind::kExists);
  EXPECT_TRUE(q.where[1].negate_exists);
  ASSERT_NE(q.where[1].subquery, nullptr);
  EXPECT_EQ(q.where[1].subquery->where.size(), 2u);
}

TEST(QueryParserTest, PaperSelectExample) {
  Query q = MustParse(
      "Select source(V).name, source(V).id From PATHS V "
      "Where V MATCHES VM()");
  EXPECT_TRUE(q.is_select);
  ASSERT_EQ(q.select_items.size(), 2u);
  EXPECT_EQ(q.select_items[0].expr.kind, PathExpr::Kind::kSource);
  EXPECT_EQ(*q.select_items[0].expr.field, "name");
  EXPECT_EQ(*q.select_items[1].expr.field, "id");
}

TEST(QueryParserTest, PaperTimesliceExample) {
  Query q = MustParse(
      "AT '2017-02-15 10:00:00' "
      "Select source(P) From PATHS P "
      "Where P MATCHES VNF()->[HostedOn()]{1,6}->Host(id=23245)");
  ASSERT_TRUE(q.at.has_value());
  EXPECT_FALSE(q.at->is_range());
  EXPECT_EQ(FormatTimestamp(q.at->start), "2017-02-15 10:00:00");
}

TEST(QueryParserTest, PaperPerVariableTimesExample) {
  Query q = MustParse(
      "Select source(P) From PATHS P(@'2017-02-15 10:00'), "
      "Q(@'2017-02-15 11:00') "
      "Where P MATCHES VNF()->[HostedOn()]{1,6}->Host(id=23245) "
      "And Q MATCHES VNF()->[HostedOn()]{1,6}->Host(id=34356) "
      "And source(P) = source(Q)");
  // The paper's figure elides the second PATHS keyword; both forms parse.
  ASSERT_EQ(q.range_vars.size(), 2u);
  EXPECT_EQ(q.range_vars[1].name, "Q");
  ASSERT_TRUE(q.range_vars[1].at.has_value());
}

TEST(QueryParserTest, PerVariableTimesCanonicalForm) {
  Query q = MustParse(
      "Select source(P) From PATHS P(@'2017-02-15 10:00'), "
      "PATHS Q(@'2017-02-15 11:00' : '2017-02-15 12:00') "
      "Where P MATCHES VNF() And Q MATCHES VNF()");
  ASSERT_EQ(q.range_vars.size(), 2u);
  ASSERT_TRUE(q.range_vars[0].at.has_value());
  EXPECT_FALSE(q.range_vars[0].at->is_range());
  ASSERT_TRUE(q.range_vars[1].at.has_value());
  EXPECT_TRUE(q.range_vars[1].at->is_range());
}

TEST(QueryParserTest, TimeRangeAndAggregations) {
  Query q = MustParse(
      "AT '2017-02-15 9:00' : '2017-02-15 11:00' "
      "When Exists Retrieve P From PATHS P Where P MATCHES VM()");
  EXPECT_TRUE(q.at->is_range());
  EXPECT_EQ(q.agg, TemporalAgg::kWhenExists);

  q = MustParse(
      "First Time When Exists Retrieve P From PATHS P Where P MATCHES VM()");
  EXPECT_EQ(q.agg, TemporalAgg::kFirstTime);
  q = MustParse(
      "Last Time When Exists Retrieve P From PATHS P Where P MATCHES VM()");
  EXPECT_EQ(q.agg, TemporalAgg::kLastTime);
}

TEST(QueryParserTest, AggregatesAndGroupBy) {
  Query q = MustParse(
      "Select source(P).name, count(P), count(distinct target(P)), "
      "min(target(P).id), sum(length(P)) "
      "From PATHS P Where P MATCHES VM()->Host() "
      "Group By source(P).name");
  ASSERT_EQ(q.select_items.size(), 5u);
  EXPECT_EQ(q.select_items[0].agg, SelectItem::Agg::kNone);
  EXPECT_EQ(q.select_items[1].agg, SelectItem::Agg::kCount);
  EXPECT_EQ(q.select_items[2].agg, SelectItem::Agg::kCountDistinct);
  EXPECT_EQ(q.select_items[3].agg, SelectItem::Agg::kMin);
  EXPECT_EQ(q.select_items[4].agg, SelectItem::Agg::kSum);
  ASSERT_EQ(q.group_by.size(), 1u);
  EXPECT_EQ(q.group_by[0].ToString(), "source(P).name");
}

TEST(QueryParserTest, AggregateErrors) {
  EXPECT_FALSE(ParseQuery("Select count(P From PATHS P "
                          "Where P MATCHES VM()")
                   .ok());
  EXPECT_FALSE(ParseQuery("Select count(P) From PATHS P "
                          "Where P MATCHES VM() Group By")
                   .ok());
}

TEST(QueryParserTest, FederationBinding) {
  Query q = MustParse(
      "Retrieve P From PATHS P In 'siteA', PATHS Q In 'siteB' "
      "Where P MATCHES VM() And Q MATCHES VM() "
      "And source(P).name = source(Q).name");
  ASSERT_EQ(q.range_vars.size(), 2u);
  EXPECT_EQ(*q.range_vars[0].source, "siteA");
  EXPECT_EQ(*q.range_vars[1].source, "siteB");
}

TEST(QueryParserTest, KeywordsAreCaseInsensitive) {
  MustParse("retrieve P from paths P where P matches VM()");
  MustParse("RETRIEVE P FROM PATHS P WHERE P MATCHES VM()");
}

TEST(QueryParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("Retrieve From PATHS P Where P MATCHES VM()").ok());
  EXPECT_FALSE(ParseQuery("Retrieve P Where P MATCHES VM()").ok());
  EXPECT_FALSE(ParseQuery("Retrieve P From PATHS P").ok());
  EXPECT_FALSE(
      ParseQuery("Retrieve P From PATHS P Where P MATCHES VM() trailing")
          .ok());
  EXPECT_FALSE(ParseQuery("AT 'garbage' Retrieve P From PATHS P "
                          "Where P MATCHES VM()")
                   .ok());
  EXPECT_FALSE(ParseQuery("Retrieve P From PATHS P Where source(P) < 3").ok());
  // Literals outside the int64 / double range are parse errors.
  for (const std::string& literal :
       {std::string("99999999999999999999"), std::string(400, '9') + ".5"}) {
    auto q = ParseQuery("Retrieve P From PATHS P Where P MATCHES VM(id=" +
                        literal + ")");
    ASSERT_FALSE(q.ok()) << literal;
    EXPECT_EQ(q.status().code(), StatusCode::kParseError) << literal;
  }
}

}  // namespace
}  // namespace nepal::nql
