// Abstract syntax of NQL (the Nepal query language).
//
//   [AT '<ts>' [: '<ts>']]
//   [First Time When Exists | Last Time When Exists | When Exists]
//   (Retrieve <var>[, ...] | Select <expr>[, ...])
//   From PATHS <var> [(@'<ts>'[:'<ts>'])] [In '<source>'] , ...
//   Where <var> MATCHES <rpe>
//     And source(P) = target(Q)
//     And source(P).status = 'Green'
//     And [Not] Exists ( <query> )
//     ...
//
// `In '<source>'` is the federation extension: it binds a range variable to
// a named data source of the engine, letting one query join pathways from
// different databases (the paper's retargetable / data-integration story).

#ifndef NEPAL_NEPAL_AST_H_
#define NEPAL_NEPAL_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/time.h"
#include "nepal/rpe.h"

namespace nepal::nql {

/// AT 't' or AT 't1' : 't2' — on the query or on a range variable.
struct TimeSpec {
  Timestamp start = 0;
  std::optional<Timestamp> end;  // set => time-range

  bool is_range() const { return end.has_value(); }
};

struct RangeVarDecl {
  /// The pathway view the variable ranges over. "PATHS" — the built-in
  /// view of all pathways — or a view registered on the engine.
  std::string view = "PATHS";
  std::string name;
  std::optional<TimeSpec> at;    // P(@'...') — variable-level time binding
  std::optional<std::string> source;  // In 'name' — federation binding
};

/// source(P) / target(P) optionally followed by a field access, or a bare
/// variable reference (the pathway itself), or a literal.
struct PathExpr {
  enum class Kind { kSource, kTarget, kVar, kLiteral, kLength };
  Kind kind = Kind::kLiteral;
  std::string var;
  std::optional<std::string> field;  // .name / .id
  Value literal;

  std::string ToString() const;
};

/// One Select output: a plain expression or an aggregate over the result
/// set (the result-processing layer of Section 3.4). Non-aggregated items
/// must appear in Group By when any aggregate is present.
struct SelectItem {
  enum class Agg { kNone, kCount, kCountDistinct, kMin, kMax, kSum };
  Agg agg = Agg::kNone;
  PathExpr expr;

  std::string ToString() const;
};

struct Query;

struct Predicate {
  enum class Kind { kMatches, kCompare, kExists };
  Kind kind = Kind::kMatches;

  // kMatches.
  std::string var;
  RpeNode rpe;

  // kCompare: lhs op rhs where op is = or <>.
  PathExpr lhs;
  bool negate_compare = false;  // <> instead of =
  PathExpr rhs;

  // kExists.
  bool negate_exists = false;  // NOT EXISTS
  std::shared_ptr<Query> subquery;
};

enum class TemporalAgg { kNone, kFirstTime, kLastTime, kWhenExists };

/// EXPLAIN prefix of a top-level query.
///  - kPlan    (`EXPLAIN`): anchor choices, programs and result counts;
///    runs at full PlanOptions::parallelism.
///  - kAnalyze (`EXPLAIN ANALYZE`): per-operator execution stats
///    (obs::QueryStats); runs at full parallelism.
///  - kVerbose (`EXPLAIN VERBOSE`): kPlan plus the backend SQL of every
///    plan operator (PathOperatorExecutor::ToSql), rendered from the plan
///    that ran; runs at full parallelism and never serves a view.
enum class ExplainMode { kNone, kPlan, kAnalyze, kVerbose };

struct Query {
  ExplainMode explain = ExplainMode::kNone;
  std::optional<TimeSpec> at;  // query-level AT
  TemporalAgg agg = TemporalAgg::kNone;
  bool is_select = false;  // Select (post-processing) vs Retrieve (pathways)
  std::vector<std::string> retrieve_vars;  // Retrieve
  std::vector<SelectItem> select_items;    // Select
  std::vector<PathExpr> group_by;          // Group By (with aggregates)
  std::vector<RangeVarDecl> range_vars;
  std::vector<Predicate> where;
};

}  // namespace nepal::nql

#endif  // NEPAL_NEPAL_AST_H_
