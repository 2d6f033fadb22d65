#include "nepal/parser.h"

#include <cctype>
#include <charconv>
#include <system_error>

namespace nepal::nql {

namespace {

struct Token {
  enum Kind { kIdent, kString, kInt, kDouble, kPunct, kEnd } kind;
  std::string text;
  int64_t int_value = 0;
  double double_value = 0;
  size_t pos = 0;
};

std::string Upper(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::toupper(c));
  return out;
}

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  Result<Token> Next() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ >= text_.size()) return Token{Token::kEnd, "", 0, 0, pos_};
    size_t start = pos_;
    char c = text_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_')) {
        ++pos_;
      }
      return Token{Token::kIdent, text_.substr(start, pos_ - start), 0, 0,
                   start};
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      bool is_double = false;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '.')) {
        if (text_[pos_] == '.') {
          // `1.` followed by a non-digit is a field access, not a double.
          if (pos_ + 1 >= text_.size() ||
              !std::isdigit(static_cast<unsigned char>(text_[pos_ + 1]))) {
            break;
          }
          is_double = true;
        }
        ++pos_;
      }
      std::string num = text_.substr(start, pos_ - start);
      Token t{is_double ? Token::kDouble : Token::kInt, num, 0, 0, start};
      const char* first = num.data();
      const char* last = first + num.size();
      const std::from_chars_result parsed =
          is_double ? std::from_chars(first, last, t.double_value)
                    : std::from_chars(first, last, t.int_value);
      if (parsed.ec != std::errc() || parsed.ptr != last) {
        return Status::ParseError("numeric literal " + num + " at offset " +
                                  std::to_string(start) +
                                  " is malformed or out of range");
      }
      return t;
    }
    if (c == '\'') {
      ++pos_;
      std::string value;
      while (pos_ < text_.size() && text_[pos_] != '\'') {
        value += text_[pos_++];
      }
      if (pos_ >= text_.size()) {
        return Status::ParseError("unterminated string literal at offset " +
                                  std::to_string(start));
      }
      ++pos_;  // closing quote
      return Token{Token::kString, value, 0, 0, start};
    }
    // Multi-character punctuation.
    auto two = [&](const char* p) {
      return pos_ + 1 < text_.size() && text_[pos_] == p[0] &&
             text_[pos_ + 1] == p[1];
    };
    for (const char* p : {"->", "<>", "<=", ">="}) {
      if (two(p)) {
        pos_ += 2;
        return Token{Token::kPunct, p, 0, 0, start};
      }
    }
    if (std::string("()[]{},.|=<>@:;-*+").find(c) != std::string::npos) {
      ++pos_;
      return Token{Token::kPunct, std::string(1, c), 0, 0, start};
    }
    return Status::ParseError("unexpected character '" + std::string(1, c) +
                              "' at offset " + std::to_string(start));
  }

 private:
  const std::string& text_;
  size_t pos_ = 0;
};

class Parser {
 public:
  explicit Parser(const std::string& text) : lexer_(text) {}

  Result<Query> ParseFullQuery() {
    NEPAL_RETURN_NOT_OK(Advance());
    ExplainMode explain = ExplainMode::kNone;
    if (IsKeyword("EXPLAIN")) {
      NEPAL_RETURN_NOT_OK(Advance());
      if (IsKeyword("ANALYZE")) {
        explain = ExplainMode::kAnalyze;
        NEPAL_RETURN_NOT_OK(Advance());
      } else if (IsKeyword("VERBOSE")) {
        explain = ExplainMode::kVerbose;
        NEPAL_RETURN_NOT_OK(Advance());
      } else {
        explain = ExplainMode::kPlan;
      }
    }
    NEPAL_ASSIGN_OR_RETURN(Query q, ParseQueryBody());
    q.explain = explain;
    if (cur_.kind != Token::kEnd) {
      return Status::ParseError("trailing input after query: '" + cur_.text +
                                "'");
    }
    return q;
  }

  Result<RpeNode> ParseBareRpe() {
    NEPAL_RETURN_NOT_OK(Advance());
    NEPAL_ASSIGN_OR_RETURN(RpeNode rpe, ParseRpeAlt());
    if (cur_.kind != Token::kEnd) {
      return Status::ParseError("trailing input after RPE: '" + cur_.text +
                                "'");
    }
    return Normalize(std::move(rpe));
  }

  Result<std::optional<ViewDdl>> ParseViewDdlStatement() {
    NEPAL_RETURN_NOT_OK(Advance());
    ViewDdl ddl;
    if (IsKeyword("CREATE")) {
      ddl.kind = ViewDdl::Kind::kCreate;
    } else if (IsKeyword("DROP")) {
      ddl.kind = ViewDdl::Kind::kDrop;
    } else if (IsKeyword("SERVE")) {
      ddl.kind = ViewDdl::Kind::kServe;
    } else {
      return std::optional<ViewDdl>{};  // not a DDL statement
    }
    NEPAL_RETURN_NOT_OK(Advance());
    NEPAL_RETURN_NOT_OK(ExpectKeyword("VIEW"));
    NEPAL_ASSIGN_OR_RETURN(ddl.name, ExpectIdent("a view name"));
    if (ddl.kind == ViewDdl::Kind::kCreate) {
      if (IsKeyword("AT")) {
        NEPAL_RETURN_NOT_OK(Advance());
        NEPAL_ASSIGN_OR_RETURN(Timestamp ts, ExpectTimestampLiteral());
        ddl.as_of = ts;
      }
      NEPAL_RETURN_NOT_OK(ExpectKeyword("AS"));
      NEPAL_ASSIGN_OR_RETURN(RpeNode rpe, ParseRpeAlt());
      ddl.rpe = Normalize(std::move(rpe));
      ddl.rpe_text = ddl.rpe.ToString();
    }
    if (IsPunct(";")) NEPAL_RETURN_NOT_OK(Advance());
    if (cur_.kind != Token::kEnd) {
      return Err("trailing input after view statement");
    }
    return std::optional<ViewDdl>(std::move(ddl));
  }

 private:
  Status Advance() {
    NEPAL_ASSIGN_OR_RETURN(cur_, lexer_.Next());
    return Status::OK();
  }

  bool IsKeyword(const char* kw) const {
    return cur_.kind == Token::kIdent && Upper(cur_.text) == kw;
  }
  bool IsPunct(const char* p) const {
    return cur_.kind == Token::kPunct && cur_.text == p;
  }

  Status Err(const std::string& msg) {
    return Status::ParseError(msg + " (at offset " + std::to_string(cur_.pos) +
                              ", near '" + cur_.text + "')");
  }

  Status ExpectKeyword(const char* kw) {
    if (!IsKeyword(kw)) return Err(std::string("expected ") + kw);
    return Advance();
  }
  Status ExpectPunct(const char* p) {
    if (!IsPunct(p)) return Err(std::string("expected '") + p + "'");
    return Advance();
  }

  Result<std::string> ExpectIdent(const char* what) {
    if (cur_.kind != Token::kIdent) {
      return Status::ParseError(std::string("expected ") + what +
                                " (at offset " + std::to_string(cur_.pos) +
                                ")");
    }
    std::string name = cur_.text;
    NEPAL_RETURN_NOT_OK(Advance());
    return name;
  }

  Result<Timestamp> ExpectTimestampLiteral() {
    if (cur_.kind != Token::kString) {
      return Status::ParseError("expected a quoted timestamp literal");
    }
    NEPAL_ASSIGN_OR_RETURN(Timestamp ts, ParseTimestamp(cur_.text));
    NEPAL_RETURN_NOT_OK(Advance());
    return ts;
  }

  // [AT 't' [: 't']]
  Result<std::optional<TimeSpec>> ParseOptionalAt() {
    if (!IsKeyword("AT")) return std::optional<TimeSpec>{};
    NEPAL_RETURN_NOT_OK(Advance());
    TimeSpec spec;
    NEPAL_ASSIGN_OR_RETURN(spec.start, ExpectTimestampLiteral());
    if (IsPunct(":")) {
      NEPAL_RETURN_NOT_OK(Advance());
      NEPAL_ASSIGN_OR_RETURN(Timestamp end, ExpectTimestampLiteral());
      spec.end = end;
    }
    return std::optional<TimeSpec>(spec);
  }

  Result<Query> ParseQueryBody() {
    Query q;
    NEPAL_ASSIGN_OR_RETURN(q.at, ParseOptionalAt());

    // Temporal aggregation prefixes.
    if (IsKeyword("FIRST") || IsKeyword("LAST")) {
      bool first = IsKeyword("FIRST");
      NEPAL_RETURN_NOT_OK(Advance());
      NEPAL_RETURN_NOT_OK(ExpectKeyword("TIME"));
      NEPAL_RETURN_NOT_OK(ExpectKeyword("WHEN"));
      NEPAL_RETURN_NOT_OK(ExpectKeyword("EXISTS"));
      q.agg = first ? TemporalAgg::kFirstTime : TemporalAgg::kLastTime;
    } else if (IsKeyword("WHEN")) {
      NEPAL_RETURN_NOT_OK(Advance());
      NEPAL_RETURN_NOT_OK(ExpectKeyword("EXISTS"));
      q.agg = TemporalAgg::kWhenExists;
    }

    if (IsKeyword("RETRIEVE")) {
      NEPAL_RETURN_NOT_OK(Advance());
      q.is_select = false;
      while (true) {
        NEPAL_ASSIGN_OR_RETURN(std::string var,
                               ExpectIdent("a range variable name"));
        q.retrieve_vars.push_back(std::move(var));
        if (!IsPunct(",")) break;
        NEPAL_RETURN_NOT_OK(Advance());
      }
    } else if (IsKeyword("SELECT")) {
      NEPAL_RETURN_NOT_OK(Advance());
      q.is_select = true;
      while (true) {
        NEPAL_ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem());
        q.select_items.push_back(std::move(item));
        if (!IsPunct(",")) break;
        NEPAL_RETURN_NOT_OK(Advance());
      }
    } else {
      return Err("expected Retrieve or Select");
    }

    NEPAL_RETURN_NOT_OK(ExpectKeyword("FROM"));
    bool first_range_var = true;
    std::string last_view = "PATHS";
    while (true) {
      // Each entry is `<view> <var>` where <view> is PATHS or a registered
      // pathway view. The view may be elided after the first variable, as
      // in the paper's "From PATHS P(@...), Q(@...)" example — the
      // previous entry's view carries over.
      RangeVarDecl decl;
      NEPAL_ASSIGN_OR_RETURN(std::string head,
                             ExpectIdent(first_range_var
                                             ? "a pathway view (e.g. PATHS)"
                                             : "a view or variable name"));
      if (cur_.kind == Token::kIdent && !IsKeyword("IN")) {
        decl.view = head;
        last_view = head;
        NEPAL_ASSIGN_OR_RETURN(decl.name,
                               ExpectIdent("a range variable name"));
      } else if (first_range_var) {
        return Err("the first range variable needs a pathway view, e.g. "
                   "'From PATHS " + head + "'");
      } else {
        decl.view = last_view;
        decl.name = std::move(head);
      }
      first_range_var = false;
      if (IsPunct("(")) {
        NEPAL_RETURN_NOT_OK(Advance());
        NEPAL_RETURN_NOT_OK(ExpectPunct("@"));
        TimeSpec spec;
        NEPAL_ASSIGN_OR_RETURN(spec.start, ExpectTimestampLiteral());
        if (IsPunct(":")) {
          NEPAL_RETURN_NOT_OK(Advance());
          NEPAL_ASSIGN_OR_RETURN(Timestamp end, ExpectTimestampLiteral());
          spec.end = end;
        }
        decl.at = spec;
        NEPAL_RETURN_NOT_OK(ExpectPunct(")"));
      }
      if (IsKeyword("IN")) {
        NEPAL_RETURN_NOT_OK(Advance());
        if (cur_.kind != Token::kString) {
          return Err("expected a quoted data source name after In");
        }
        decl.source = cur_.text;
        NEPAL_RETURN_NOT_OK(Advance());
      }
      q.range_vars.push_back(std::move(decl));
      if (!IsPunct(",")) break;
      NEPAL_RETURN_NOT_OK(Advance());
    }

    // The Where clause is optional only when every range variable can get
    // its RPE elsewhere — i.e. it ranges over a named pathway view
    // ("Retrieve P From HOTPATHS P"). A variable over PATHS has no other
    // source of pathway structure, so a Where-less PATHS query is malformed
    // at parse time already.
    if (!IsKeyword("WHERE")) {
      for (const RangeVarDecl& decl : q.range_vars) {
        std::string upper = decl.view;
        for (char& c : upper) c = static_cast<char>(std::toupper(c));
        if (upper == "PATHS") {
          return Err("range variable '" + decl.name +
                     "' ranges over PATHS and needs a Where ... MATCHES "
                     "predicate");
        }
      }
    }
    if (IsKeyword("WHERE")) {
      NEPAL_RETURN_NOT_OK(Advance());
      while (true) {
        NEPAL_ASSIGN_OR_RETURN(Predicate pred, ParsePredicate());
        q.where.push_back(std::move(pred));
        if (!IsKeyword("AND")) break;
        NEPAL_RETURN_NOT_OK(Advance());
      }
    }
    if (IsKeyword("GROUP")) {
      NEPAL_RETURN_NOT_OK(Advance());
      NEPAL_RETURN_NOT_OK(ExpectKeyword("BY"));
      while (true) {
        NEPAL_ASSIGN_OR_RETURN(PathExpr expr, ParsePathExpr());
        q.group_by.push_back(std::move(expr));
        if (!IsPunct(",")) break;
        NEPAL_RETURN_NOT_OK(Advance());
      }
    }
    return q;
  }

  // select_item := agg '(' ['DISTINCT'] path_expr ')' | path_expr
  // where agg is COUNT | MIN | MAX | SUM.
  Result<SelectItem> ParseSelectItem() {
    SelectItem item;
    using Agg = SelectItem::Agg;
    Agg agg = Agg::kNone;
    if (IsKeyword("COUNT")) {
      agg = Agg::kCount;
    } else if (IsKeyword("MIN")) {
      agg = Agg::kMin;
    } else if (IsKeyword("MAX")) {
      agg = Agg::kMax;
    } else if (IsKeyword("SUM")) {
      agg = Agg::kSum;
    }
    if (agg == Agg::kNone) {
      NEPAL_ASSIGN_OR_RETURN(item.expr, ParsePathExpr());
      return item;
    }
    NEPAL_RETURN_NOT_OK(Advance());
    NEPAL_RETURN_NOT_OK(ExpectPunct("("));
    if (agg == Agg::kCount && IsKeyword("DISTINCT")) {
      agg = Agg::kCountDistinct;
      NEPAL_RETURN_NOT_OK(Advance());
    }
    item.agg = agg;
    NEPAL_ASSIGN_OR_RETURN(item.expr, ParsePathExpr());
    NEPAL_RETURN_NOT_OK(ExpectPunct(")"));
    // count(P).field etc. is meaningless; field access belongs inside.
    return item;
  }

  Result<Predicate> ParsePredicate() {
    Predicate pred;
    if (IsKeyword("NOT") || IsKeyword("EXISTS")) {
      pred.kind = Predicate::Kind::kExists;
      if (IsKeyword("NOT")) {
        pred.negate_exists = true;
        NEPAL_RETURN_NOT_OK(Advance());
      }
      NEPAL_RETURN_NOT_OK(ExpectKeyword("EXISTS"));
      NEPAL_RETURN_NOT_OK(ExpectPunct("("));
      NEPAL_ASSIGN_OR_RETURN(Query sub, ParseQueryBody());
      pred.subquery = std::make_shared<Query>(std::move(sub));
      NEPAL_RETURN_NOT_OK(ExpectPunct(")"));
      return pred;
    }
    // Either `Var MATCHES rpe` or a comparison of path expressions.
    if (cur_.kind == Token::kIdent && !IsKeyword("SOURCE") &&
        !IsKeyword("TARGET") && !IsKeyword("LENGTH")) {
      std::string name = cur_.text;
      NEPAL_RETURN_NOT_OK(Advance());
      if (IsKeyword("MATCHES")) {
        NEPAL_RETURN_NOT_OK(Advance());
        pred.kind = Predicate::Kind::kMatches;
        pred.var = std::move(name);
        NEPAL_ASSIGN_OR_RETURN(RpeNode rpe, ParseRpeAlt());
        pred.rpe = Normalize(std::move(rpe));
        return pred;
      }
      // A bare variable in a comparison.
      pred.lhs.kind = PathExpr::Kind::kVar;
      pred.lhs.var = std::move(name);
    } else {
      NEPAL_ASSIGN_OR_RETURN(pred.lhs, ParsePathExpr());
    }
    pred.kind = Predicate::Kind::kCompare;
    if (IsPunct("=")) {
      pred.negate_compare = false;
    } else if (IsPunct("<>")) {
      pred.negate_compare = true;
    } else {
      return Err("expected '=' or '<>' in comparison");
    }
    NEPAL_RETURN_NOT_OK(Advance());
    NEPAL_ASSIGN_OR_RETURN(pred.rhs, ParsePathExpr());
    return pred;
  }

  Result<PathExpr> ParsePathExpr() {
    PathExpr expr;
    if (cur_.kind == Token::kString) {
      expr.kind = PathExpr::Kind::kLiteral;
      expr.literal = Value(cur_.text);
      NEPAL_RETURN_NOT_OK(Advance());
      return expr;
    }
    if (cur_.kind == Token::kInt) {
      expr.kind = PathExpr::Kind::kLiteral;
      expr.literal = Value(cur_.int_value);
      NEPAL_RETURN_NOT_OK(Advance());
      return expr;
    }
    if (cur_.kind == Token::kDouble) {
      expr.kind = PathExpr::Kind::kLiteral;
      expr.literal = Value(cur_.double_value);
      NEPAL_RETURN_NOT_OK(Advance());
      return expr;
    }
    if (IsKeyword("TRUE") || IsKeyword("FALSE")) {
      expr.kind = PathExpr::Kind::kLiteral;
      expr.literal = Value(IsKeyword("TRUE"));
      NEPAL_RETURN_NOT_OK(Advance());
      return expr;
    }
    if (IsKeyword("SOURCE") || IsKeyword("TARGET") || IsKeyword("LENGTH")) {
      expr.kind = IsKeyword("SOURCE")   ? PathExpr::Kind::kSource
                  : IsKeyword("TARGET") ? PathExpr::Kind::kTarget
                                        : PathExpr::Kind::kLength;
      NEPAL_RETURN_NOT_OK(Advance());
      NEPAL_RETURN_NOT_OK(ExpectPunct("("));
      NEPAL_ASSIGN_OR_RETURN(expr.var, ExpectIdent("a range variable name"));
      NEPAL_RETURN_NOT_OK(ExpectPunct(")"));
      if (IsPunct(".")) {
        NEPAL_RETURN_NOT_OK(Advance());
        NEPAL_ASSIGN_OR_RETURN(std::string field,
                               ExpectIdent("a field name"));
        expr.field = std::move(field);
      }
      return expr;
    }
    if (cur_.kind == Token::kIdent) {
      expr.kind = PathExpr::Kind::kVar;
      expr.var = cur_.text;
      NEPAL_RETURN_NOT_OK(Advance());
      return expr;
    }
    return Err("expected a path expression");
  }

  // ---- RPE grammar ----

  Result<RpeNode> ParseRpeAlt() {
    NEPAL_ASSIGN_OR_RETURN(RpeNode first, ParseRpeSeq());
    if (!IsPunct("|")) return first;
    std::vector<RpeNode> branches;
    branches.push_back(std::move(first));
    while (IsPunct("|")) {
      NEPAL_RETURN_NOT_OK(Advance());
      NEPAL_ASSIGN_OR_RETURN(RpeNode next, ParseRpeSeq());
      branches.push_back(std::move(next));
    }
    return RpeNode::Alt(std::move(branches));
  }

  Result<RpeNode> ParseRpeSeq() {
    NEPAL_ASSIGN_OR_RETURN(RpeNode first, ParseRpeUnit());
    if (!IsPunct("->")) return first;
    std::vector<RpeNode> parts;
    parts.push_back(std::move(first));
    while (IsPunct("->")) {
      NEPAL_RETURN_NOT_OK(Advance());
      NEPAL_ASSIGN_OR_RETURN(RpeNode next, ParseRpeUnit());
      parts.push_back(std::move(next));
    }
    return RpeNode::Seq(std::move(parts));
  }

  // unit := (atom | '('alt')' | '['alt']') ['{' i (','|'-') [j] '}' | '*' | '+']
  Result<RpeNode> ParseRpeUnit() {
    RpeNode unit;
    if (IsPunct("(")) {
      NEPAL_RETURN_NOT_OK(Advance());
      NEPAL_ASSIGN_OR_RETURN(unit, ParseRpeAlt());
      NEPAL_RETURN_NOT_OK(ExpectPunct(")"));
    } else if (IsPunct("[")) {
      NEPAL_RETURN_NOT_OK(Advance());
      NEPAL_ASSIGN_OR_RETURN(unit, ParseRpeAlt());
      NEPAL_RETURN_NOT_OK(ExpectPunct("]"));
    } else {
      NEPAL_ASSIGN_OR_RETURN(unit, ParseRpeAtom());
    }
    if (IsPunct("*")) {
      NEPAL_RETURN_NOT_OK(Advance());
      return RpeNode::Rep(std::move(unit), 0, kUnboundedRep);
    }
    if (IsPunct("+")) {
      NEPAL_RETURN_NOT_OK(Advance());
      return RpeNode::Rep(std::move(unit), 1, kUnboundedRep);
    }
    if (IsPunct("{")) {
      NEPAL_RETURN_NOT_OK(Advance());
      if (cur_.kind != Token::kInt) return Err("expected repetition minimum");
      NEPAL_ASSIGN_OR_RETURN(int min_rep, RepetitionBound());
      NEPAL_RETURN_NOT_OK(Advance());
      // Accept both {i,j} and the paper's occasional {i-j}; an omitted
      // maximum ({i,}) means unbounded.
      if (IsPunct(",")) {
        NEPAL_RETURN_NOT_OK(Advance());
      } else if (cur_.kind == Token::kPunct && cur_.text == "-") {
        NEPAL_RETURN_NOT_OK(Advance());
      } else {
        return Err("expected ',' or '-' in repetition bounds");
      }
      if (IsPunct("}")) {
        NEPAL_RETURN_NOT_OK(Advance());
        return RpeNode::Rep(std::move(unit), min_rep, kUnboundedRep);
      }
      if (cur_.kind != Token::kInt) return Err("expected repetition maximum");
      NEPAL_ASSIGN_OR_RETURN(int max_rep, RepetitionBound());
      if (max_rep < min_rep) {
        return Err("repetition bounds {" + std::to_string(min_rep) + "," +
                   std::to_string(max_rep) + "} are malformed (min > max)");
      }
      NEPAL_RETURN_NOT_OK(Advance());
      NEPAL_RETURN_NOT_OK(ExpectPunct("}"));
      return RpeNode::Rep(std::move(unit), min_rep, max_rep);
    }
    return unit;
  }

  /// The current integer token as a repetition bound. kUnboundedRep is
  /// the open-bound sentinel, so a finite bound must stay below it.
  Result<int> RepetitionBound() {
    if (cur_.int_value >= kUnboundedRep) {
      return Err("repetition bound " + cur_.text + " is too large");
    }
    return static_cast<int>(cur_.int_value);
  }

  Result<RpeNode> ParseRpeAtom() {
    NEPAL_ASSIGN_OR_RETURN(std::string cls, ExpectIdent("a class name"));
    while (IsPunct(":")) {
      NEPAL_RETURN_NOT_OK(Advance());
      NEPAL_ASSIGN_OR_RETURN(std::string part, ExpectIdent("a class name"));
      cls += ":" + part;
    }
    NEPAL_RETURN_NOT_OK(ExpectPunct("("));
    std::vector<RawCondition> conds;
    while (!IsPunct(")")) {
      RawCondition cond;
      NEPAL_ASSIGN_OR_RETURN(cond.field, ExpectIdent("a field name"));
      while (IsPunct(".")) {
        NEPAL_RETURN_NOT_OK(Advance());
        NEPAL_ASSIGN_OR_RETURN(std::string key,
                               ExpectIdent("a member or map key"));
        cond.subpath.push_back(std::move(key));
      }
      using Op = storage::FieldCondition::Op;
      if (IsPunct("=")) {
        cond.op = Op::kEq;
      } else if (IsPunct("<>")) {
        cond.op = Op::kNe;
      } else if (IsPunct("<")) {
        cond.op = Op::kLt;
      } else if (IsPunct("<=")) {
        cond.op = Op::kLe;
      } else if (IsPunct(">")) {
        cond.op = Op::kGt;
      } else if (IsPunct(">=")) {
        cond.op = Op::kGe;
      } else {
        return Err("expected a comparison operator in atom condition");
      }
      NEPAL_RETURN_NOT_OK(Advance());
      if (cur_.kind == Token::kString) {
        cond.value = Value(cur_.text);
      } else if (cur_.kind == Token::kInt) {
        cond.value = Value(cur_.int_value);
      } else if (cur_.kind == Token::kDouble) {
        cond.value = Value(cur_.double_value);
      } else if (IsKeyword("TRUE") || IsKeyword("FALSE")) {
        cond.value = Value(IsKeyword("TRUE"));
      } else {
        return Err("expected a literal in atom condition");
      }
      NEPAL_RETURN_NOT_OK(Advance());
      conds.push_back(std::move(cond));
      if (IsPunct(",")) NEPAL_RETURN_NOT_OK(Advance());
    }
    NEPAL_RETURN_NOT_OK(Advance());  // ')'
    return RpeNode::Atom(std::move(cls), std::move(conds));
  }

  Lexer lexer_;
  Token cur_{Token::kEnd, "", 0, 0, 0};
};

}  // namespace

Result<Query> ParseQuery(const std::string& text) {
  Parser parser(text);
  return parser.ParseFullQuery();
}

Result<RpeNode> ParseRpe(const std::string& text) {
  Parser parser(text);
  return parser.ParseBareRpe();
}

Result<std::optional<ViewDdl>> ParseViewDdl(const std::string& text) {
  Parser parser(text);
  return parser.ParseViewDdlStatement();
}

std::string SelectItem::ToString() const {
  switch (agg) {
    case Agg::kNone:
      return expr.ToString();
    case Agg::kCount:
      return "count(" + expr.ToString() + ")";
    case Agg::kCountDistinct:
      return "count(distinct " + expr.ToString() + ")";
    case Agg::kMin:
      return "min(" + expr.ToString() + ")";
    case Agg::kMax:
      return "max(" + expr.ToString() + ")";
    case Agg::kSum:
      return "sum(" + expr.ToString() + ")";
  }
  return "?";
}

std::string PathExpr::ToString() const {
  switch (kind) {
    case Kind::kSource:
      return "source(" + var + ")" + (field ? "." + *field : "");
    case Kind::kTarget:
      return "target(" + var + ")" + (field ? "." + *field : "");
    case Kind::kLength:
      return "length(" + var + ")";
    case Kind::kVar:
      return var;
    case Kind::kLiteral:
      return literal.ToString();
  }
  return "?";
}

}  // namespace nepal::nql
