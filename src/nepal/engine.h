// QueryEngine: the public query API of Nepal.
//
//   storage::GraphDb db(schema, std::make_unique<graphstore::GraphStore>(...));
//   nql::QueryEngine engine(&db);
//   auto result = engine.Run(
//       "Retrieve P From PATHS P "
//       "Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id=23245)");
//
// The engine parses NQL, resolves every range variable's RPE against its
// data source's schema, plans anchors, evaluates through the source
// backend's operator executor, joins pathway sets, applies subqueries, and
// post-processes Select expressions. Additional data sources can be bound
// by name for federated queries (From PATHS P In 'siteA', ...).

#ifndef NEPAL_NEPAL_ENGINE_H_
#define NEPAL_NEPAL_ENGINE_H_

#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "nepal/ast.h"
#include "nepal/executor.h"
#include "nepal/parser.h"
#include "nepal/source_catalog.h"
#include "obs/query_stats.h"
#include "storage/graphdb.h"

namespace nepal::nql {

class PathwayViewProvider;

/// A completed pathway: alternating node/edge uids with their classes and
/// the maximal validity interval over which the pathway existed.
struct Pathway {
  std::vector<Uid> uids;
  std::vector<const schema::ClassDef*> concepts;
  Interval valid = Interval::All();

  Uid source_uid() const { return uids.front(); }
  Uid target_uid() const { return uids.back(); }
  size_t length() const { return uids.size(); }

  /// "VNF#12 -> HostedOn#55 -> VM#13" style rendering.
  std::string ToString() const;
};

struct ResultRow {
  std::vector<Pathway> paths;  // one per path column
  std::vector<Value> values;   // one per value column (Select)
  /// Joint validity: for query-level AT queries, the maximal interval over
  /// which all the row's pathways coexisted.
  Interval valid = Interval::All();
};

struct QueryResult {
  std::vector<std::string> path_columns;   // Retrieve: variable names
  std::vector<std::string> value_columns;  // Select: expression renderings
  std::vector<ResultRow> rows;

  /// Non-empty for EXPLAIN / EXPLAIN ANALYZE / EXPLAIN VERBOSE queries:
  /// the rendered plan or per-operator stats. ToString() returns it
  /// directly and `rows` stays empty.
  std::string explain_text;

  TemporalAgg agg = TemporalAgg::kNone;
  /// When Exists: union of validity intervals of all results.
  IntervalSet when_exists;
  /// First/Last Time When Exists (unset when no satisfying pathway).
  std::optional<Timestamp> agg_time;

  std::string ToString(size_t max_rows = 20) const;
};

struct EngineOptions {
  PlanOptions plan;
  /// Hard cap on result rows after join (0 = unlimited).
  size_t max_rows = 0;
  /// Top-level queries slower than this land in the slow-query log
  /// (SlowQueries()); 0 disables the log.
  double slow_query_ms = 250.0;
  /// Read routing across the replication fleet (see SourceCatalog). Under
  /// a non-default policy, each top-level non-EXPLAIN read consults the
  /// catalog's attached replicas and may evaluate on one instead of the
  /// primary, pinned to the replica's commit epoch at the routing
  /// decision — bounded staleness, exact snapshot. Writes never
  /// route; queries that can be served from the materialized-view
  /// provider stay on the primary (the cache is primary-bound).
  RoutingOptions routing;
};

/// One slow-query log entry (see EngineOptions::slow_query_ms).
struct SlowQuery {
  std::string query;  // NQL text ("<ast>" for RunQuery callers)
  uint64_t wall_ns = 0;
  size_t rows = 0;
};

class QueryEngine {
 public:
  /// `db` is the default data source; it must outlive the engine.
  explicit QueryEngine(storage::GraphDb* db, EngineOptions options = {});

  /// The named data sources `In '<name>'` clauses route to. Register
  /// primaries with `catalog().Register(name, {.db = &db})`; attach live
  /// replicas with `catalog().AttachReplica(name, &replica)` so reads
  /// work (and can be routed) but writes are rejected with kReadOnly.
  SourceCatalog& catalog() { return catalog_; }
  const SourceCatalog& catalog() const { return catalog_; }

  /// Registers a pathway view: a named, unmaterialized subset of PATHS
  /// defined by an RPE (Section 3.4: "Additional views can be defined").
  /// `From <name> P` ranges P over pathways matching the view; a MATCHES
  /// predicate on P further constrains it (intersection).
  Status DefineView(const std::string& name, const std::string& rpe_text);

  /// Attaches a materialized-view provider (views::ViewCatalog). A
  /// single-variable query whose pathway definition (canonical RPE +
  /// temporal mode) matches a registered view — or that ranges over a
  /// registered view name, including the `SERVE VIEW <name>` shorthand —
  /// is answered from the provider's cache, pinned to the cache's
  /// freshness epoch; results are byte-identical to cold evaluation at
  /// that epoch. nullptr detaches. The provider must outlive the engine.
  void set_view_provider(const PathwayViewProvider* provider) {
    view_provider_ = provider;
  }

  EngineOptions& options() { return options_; }

  /// Parses and runs an NQL query. An `EXPLAIN [ANALYZE|VERBOSE]` prefix
  /// returns the plan / per-operator stats / plan plus backend SQL as
  /// QueryResult::explain_text (see ExplainMode in ast.h).
  Result<QueryResult> Run(const std::string& nql) const;

  /// Runs a pre-built AST (programmatic clients, subqueries).
  Result<QueryResult> RunQuery(const Query& query) const;

  /// Run("EXPLAIN VERBOSE " + nql): the anchor choices and programs of the
  /// plans that ran, plus (relational backend) each plan operator's SQL,
  /// rendered from those plans at any parallelism.
  Result<std::string> Explain(const std::string& nql) const;

  /// Per-operator stats of the most recent successful top-level query run
  /// on this engine (thread-safe; concurrent runs race benignly on "most
  /// recent").
  obs::QueryStats LastQueryStats() const;

  /// The most recent slow queries (newest last, bounded ring).
  std::vector<SlowQuery> SlowQueries() const;

  /// Where the most recent top-level query (on any thread) was routed —
  /// primary or which replica, at what staleness/epoch. Meaningful under
  /// a non-default EngineOptions::routing policy; tests and the shell's
  /// `\replication` use it.
  RouteDecision LastRoute() const;

 private:
  struct OuterBinding {
    const Pathway* path;
    storage::GraphDb* db;
  };
  using OuterEnv = std::map<std::string, OuterBinding>;

  /// Plan-line capture for EXPLAIN modes. `lines` collects the per-variable
  /// plan text; `verbose` (EXPLAIN VERBOSE) adds the backend SQL of every
  /// plan operator and keeps the query off the materialized-view cache.
  struct ExplainCapture {
    std::vector<std::string>* lines = nullptr;
    bool verbose = false;
  };

  /// Top-level entry shared by Run/RunQuery/Explain: routes the explain
  /// mode, collects per-operator stats, updates engine metrics and the
  /// slow-query log.
  Result<QueryResult> RunParsed(const Query& query,
                                const std::string& text) const;

  /// Evaluates one query against every source pinned to a commit epoch.
  /// A top-level call captures each reachable source's epoch up front;
  /// recursive (subquery) calls, and a top-level call the read router sent
  /// to a replica, receive that per-source map via `outer_epochs`, so one
  /// query is one snapshot. No source lock is held across the evaluation:
  /// planning holds a source's mutex shared briefly, and every operator
  /// call and field lookup takes its own brief shared lock (see
  /// LockedExecutor). `run_db` is the database unnamed range variables
  /// evaluate against: the engine's primary by default, a routed replica
  /// when the read router picked one.
  Result<QueryResult> RunInternal(
      const Query& query, const OuterEnv& outer,
      const ExplainCapture& capture, obs::QueryStatsBuilder* stats,
      const std::map<storage::GraphDb*, uint64_t>* outer_epochs = nullptr,
      storage::GraphDb* run_db = nullptr) const;

  Result<storage::GraphDb*> SourceFor(const RangeVarDecl& decl,
                                      storage::GraphDb* run_db) const;

  storage::GraphDb* default_db_;
  SourceCatalog catalog_;
  std::map<std::string, RpeNode> views_;
  const PathwayViewProvider* view_provider_ = nullptr;
  EngineOptions options_;

  static constexpr size_t kSlowLogCapacity = 32;
  mutable std::mutex stats_mu_;
  mutable obs::QueryStats last_stats_;
  mutable std::deque<SlowQuery> slow_log_;
  mutable RouteDecision last_route_;
};

}  // namespace nepal::nql

#endif  // NEPAL_NEPAL_ENGINE_H_
