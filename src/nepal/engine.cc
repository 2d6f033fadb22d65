#include "nepal/engine.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <functional>
#include <optional>
#include <shared_mutex>
#include <span>
#include <thread>
#include <unordered_set>

#include "common/thread_pool.h"
#include "nepal/snapshot.h"
#include "nepal/view_provider.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace nepal::nql {

using storage::PathSet;
using storage::PathState;
using storage::TimeView;

namespace {

std::string RenderInterval(const Interval& iv) {
  if (iv == Interval::All()) return "";
  return " @" + iv.ToString();
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Converts a completed PathState into a result Pathway.
Pathway ToPathway(const PathState& state) {
  Pathway p;
  p.uids = state.uids;
  p.concepts = state.concepts;
  p.valid = state.valid;
  return p;
}

uint64_t HashMix(uint64_t h, uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

/// Spreads a mixed hash over its low bits, which PathIndex probes by
/// (splitmix64 finalizer).
uint64_t HashFinish(uint64_t h) {
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

/// A path's key: its uid sequence.
uint64_t HashUids(const std::vector<Uid>& uids) {
  uint64_t h = uids.size();
  for (Uid u : uids) h = HashMix(h, u);
  return HashFinish(h);
}

uint64_t HashValues(std::span<const Value> values) {
  uint64_t h = values.size();
  for (const Value& v : values) h = HashMix(h, v.Hash());
  return HashFinish(h);
}

/// The one grouping of the result stage (Coalesce, Group By,
/// count(distinct), the hash join's buckets, the named-view intersection
/// and Range-view coalescing). Keys 0..n-1 get dense group ids through a
/// storage::PathIndex, numbered in first-seen order; `hash(i)` is key i's
/// hash and `same(i, j)` its equality. Result keys are typed — values
/// compare by Value::Compare (so 1 and 1.0 are one key, as in a
/// comparison, and distinct values never merge however they render), path
/// columns by uid sequence. Grouping allocates a fixed number of flat
/// arrays, whatever the number of groups; the member lists, when a caller
/// needs them, are one more pair (BuildMembers).
class KeyGroups {
 public:
  template <typename Hash, typename Same>
  KeyGroups(size_t n, const Hash& hash, const Same& same) : index_(n) {
    group_.reserve(n);
    first_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const auto [id, fresh] = index_.Insert(
          hash(i), [&](uint32_t g) { return same(first_[g], i); });
      if (fresh) first_.push_back(static_cast<uint32_t>(i));
      group_.push_back(id);
    }
  }

  /// The number of groups.
  size_t size() const { return first_.size(); }

  /// The group whose keys `same(first key)` accepts, if any.
  template <typename Same>
  std::optional<uint32_t> Find(uint64_t hash, const Same& same) const {
    return index_.Find(hash, [&](uint32_t g) { return same(first_[g]); });
  }

  /// Lays out every group's keys, in input order, as offsets into one
  /// array (CSR); Members reads them.
  void BuildMembers() {
    // Count each group at its end, turn the counts into group starts, fill
    // each group through its start (which moves it to the group's end),
    // then shift the ends back into starts.
    offsets_.assign(first_.size() + 1, 0);
    for (uint32_t g : group_) ++offsets_[g + 1];
    for (size_t g = 0; g < first_.size(); ++g) offsets_[g + 1] += offsets_[g];
    members_.resize(group_.size());
    for (size_t i = 0; i < group_.size(); ++i) {
      members_[offsets_[group_[i]]++] = static_cast<uint32_t>(i);
    }
    for (size_t g = first_.size(); g > 0; --g) offsets_[g] = offsets_[g - 1];
    offsets_[0] = 0;
  }
  std::span<const uint32_t> Members(uint32_t g) const {
    return {members_.data() + offsets_[g], offsets_[g + 1] - offsets_[g]};
  }

 private:
  storage::PathIndex index_;
  std::vector<uint32_t> group_;  // key -> group
  std::vector<uint32_t> first_;  // group -> first key
  std::vector<uint32_t> offsets_, members_;
};

/// Coalesces `items` by key (KeyGroups' `hash` and `same`), keys in
/// first-occurrence order. A key held once keeps its item. A repeated key
/// keeps its first item; with `merge`, that item comes once per maximal
/// interval of the union of the key's `valid` intervals, each copy given
/// its interval by `set_valid`. Leaves `items` as they are when no key
/// repeats.
template <typename T, typename Hash, typename Same, typename SetValid>
void CoalesceByKey(std::vector<T>* items, const Hash& hash, const Same& same,
                   bool merge, const SetValid& set_valid) {
  KeyGroups groups(items->size(), hash, same);
  if (groups.size() == items->size()) return;
  groups.BuildMembers();
  std::vector<T> out;
  out.reserve(groups.size());
  for (uint32_t g = 0; g < groups.size(); ++g) {
    const std::span<const uint32_t> members = groups.Members(g);
    if (members.size() == 1 || !merge) {
      out.push_back(std::move((*items)[members[0]]));
      continue;
    }
    IntervalSet merged;
    for (uint32_t i : members) merged.Add((*items)[i].valid);
    for (const Interval& iv : merged.intervals()) {
      T item = (*items)[members[0]];
      set_valid(item, iv);
      out.push_back(std::move(item));
    }
  }
  *items = std::move(out);
}

/// Groups states with identical uid sequences and re-emits them with
/// maximal validity intervals (coalescing adjacent version intervals).
void CoalescePathSet(PathSet* paths) {
  CoalesceByKey(
      paths, [&](size_t i) { return HashUids((*paths)[i].uids); },
      [&](size_t a, size_t b) { return (*paths)[a].uids == (*paths)[b].uids; },
      /*merge=*/true, [](PathState& s, const Interval& iv) { s.valid = iv; });
}

/// A result row's key: each path column's uid sequence, then its values.
uint64_t HashRow(const ResultRow& row) {
  uint64_t h = row.paths.size();
  for (const Pathway& p : row.paths) {
    h = HashMix(h, p.uids.size());
    for (Uid u : p.uids) h = HashMix(h, u);
  }
  for (const Value& v : row.values) h = HashMix(h, v.Hash());
  return HashFinish(h);
}

bool SameRowKey(const ResultRow& a, const ResultRow& b) {
  if (a.paths.size() != b.paths.size() || a.values != b.values) return false;
  for (size_t i = 0; i < a.paths.size(); ++i) {
    if (a.paths[i].uids != b.paths[i].uids) return false;
  }
  return true;
}

TimeView ViewFor(const std::optional<TimeSpec>& var_at,
                 const std::optional<TimeSpec>& query_at) {
  const std::optional<TimeSpec>& spec = var_at.has_value() ? var_at : query_at;
  if (!spec.has_value()) return TimeView::Current();
  if (spec->is_range()) return TimeView::Range(spec->start, *spec->end);
  return TimeView::AsOf(spec->start);
}

/// Version of an element consistent with a pathway's validity interval,
/// read at commit `epoch` under a brief shared lock.
Result<storage::ElementVersion> FetchVersion(storage::GraphDb* db, Uid uid,
                                             const Interval& valid,
                                             uint64_t epoch) {
  const TimeView view = (valid.end == kTimestampMax
                             ? TimeView::Current()
                             : TimeView::AsOf(valid.start))
                            .WithEpoch(epoch);
  storage::ElementVersion out;
  bool found = false;
  {
    std::shared_lock<std::shared_mutex> lock(db->mutex());
    db->backend().Get(uid, db->ReadViewLocked(view),
                      [&](const storage::ElementVersion& v) {
                        if (!found) {
                          out = v;
                          found = true;
                        }
                      });
  }
  if (!found) {
    return Status::Internal("pathway element uid " + std::to_string(uid) +
                            " not found while post-processing");
  }
  return out;
}

}  // namespace

std::string Pathway::ToString() const {
  std::string out;
  for (size_t i = 0; i < uids.size(); ++i) {
    if (i > 0) out += "->";
    out += concepts[i]->name() + "#" + std::to_string(uids[i]);
  }
  out += RenderInterval(valid);
  return out;
}

std::string QueryResult::ToString(size_t max_rows) const {
  if (!explain_text.empty()) return explain_text;
  std::string out;
  if (agg != TemporalAgg::kNone) {
    switch (agg) {
      case TemporalAgg::kFirstTime:
        out += "First Time When Exists: " +
               (agg_time ? FormatTimestamp(*agg_time) : "<never>") + "\n";
        break;
      case TemporalAgg::kLastTime:
        out += "Last Time When Exists: " +
               (agg_time
                    ? (*agg_time == kTimestampMax ? "<still exists>"
                                                  : FormatTimestamp(*agg_time))
                    : "<never>") +
               "\n";
        break;
      case TemporalAgg::kWhenExists:
        out += "When Exists: " + when_exists.ToString() + "\n";
        break;
      default:
        break;
    }
  }
  out += std::to_string(rows.size()) + " row(s)\n";
  size_t shown = 0;
  for (const ResultRow& row : rows) {
    if (max_rows != 0 && shown++ >= max_rows) {
      out += "...\n";
      break;
    }
    std::string line;
    for (size_t i = 0; i < row.paths.size(); ++i) {
      if (!line.empty()) line += " | ";
      line += path_columns[i] + ": " + row.paths[i].ToString();
    }
    for (size_t i = 0; i < row.values.size(); ++i) {
      if (!line.empty()) line += " | ";
      line += value_columns[i] + "=" + row.values[i].ToString();
    }
    // Pathway columns already render their own validity interval.
    if (row.paths.empty()) line += RenderInterval(row.valid);
    out += line + "\n";
  }
  return out;
}

QueryEngine::QueryEngine(storage::GraphDb* db, EngineOptions options)
    : default_db_(db), options_(options) {}

Status QueryEngine::DefineView(const std::string& name,
                               const std::string& rpe_text) {
  if (name == "PATHS" || name == "paths") {
    return Status::InvalidArgument("PATHS is the built-in view of all "
                                   "pathways and cannot be redefined");
  }
  NEPAL_ASSIGN_OR_RETURN(RpeNode rpe, ParseRpe(rpe_text));
  views_[name] = std::move(rpe);
  return Status::OK();
}

Result<storage::GraphDb*> QueryEngine::SourceFor(
    const RangeVarDecl& decl, storage::GraphDb* run_db) const {
  if (!decl.source.has_value()) return run_db;
  // Queries only read, so any catalog entry — replica included — routes.
  return catalog_.Readable(*decl.source);
}

Result<QueryResult> QueryEngine::Run(const std::string& nql) const {
  // `SERVE VIEW <name>` desugars to `Retrieve P From <name> P`, answered
  // from the attached provider's cache. CREATE / DROP VIEW act on the view
  // catalog itself, which the engine has no mutable handle on — the shell
  // routes them to views::ViewCatalog.
  NEPAL_ASSIGN_OR_RETURN(std::optional<ViewDdl> ddl, ParseViewDdl(nql));
  if (ddl.has_value()) {
    if (ddl->kind != ViewDdl::Kind::kServe) {
      return Status::Unsupported(
          "CREATE VIEW / DROP VIEW manage the materialized-view catalog; "
          "run them through the shell (or views::ViewCatalog directly), "
          "not the query engine");
    }
    Query query;
    query.retrieve_vars.push_back("P");
    RangeVarDecl decl;
    decl.view = ddl->name;
    decl.name = "P";
    query.range_vars.push_back(std::move(decl));
    obs::ScopedTrace serve_trace(obs::Tracer::Global().StartTrace("query"));
    return RunParsed(query, nql);
  }
  obs::ScopedTrace trace(obs::Tracer::Global().StartTrace("query"));
  const uint64_t t_parse = trace.active() ? obs::TraceNowNs() : 0;
  NEPAL_ASSIGN_OR_RETURN(Query query, ParseQuery(nql));
  if (trace.active()) {
    trace.trace()->AddSpan(trace.trace()->root_span(), "parse",
                           obs::TraceNowNs() - t_parse);
  }
  return RunParsed(query, nql);
}

Result<QueryResult> QueryEngine::RunQuery(const Query& query) const {
  obs::ScopedTrace trace(obs::Tracer::Global().StartTrace("query"));
  return RunParsed(query, "<ast>");
}

Result<std::string> QueryEngine::Explain(const std::string& nql) const {
  // `SERVE VIEW <name>` has no cold plan to render — the one-line served
  // plan is the whole story, so it explains under kPlan (which may serve)
  // rather than kVerbose (which never does).
  NEPAL_ASSIGN_OR_RETURN(std::optional<ViewDdl> ddl, ParseViewDdl(nql));
  if (ddl.has_value()) {
    if (ddl->kind != ViewDdl::Kind::kServe) {
      return Status::Unsupported(
          "CREATE VIEW / DROP VIEW manage the materialized-view catalog; "
          "run them through the shell (or views::ViewCatalog directly), "
          "not the query engine");
    }
    Query query;
    query.retrieve_vars.push_back("P");
    RangeVarDecl decl;
    decl.view = ddl->name;
    decl.name = "P";
    query.range_vars.push_back(std::move(decl));
    query.explain = ExplainMode::kPlan;
    NEPAL_ASSIGN_OR_RETURN(QueryResult result, RunParsed(query, nql));
    return result.explain_text;
  }
  NEPAL_ASSIGN_OR_RETURN(Query query, ParseQuery(nql));
  query.explain = ExplainMode::kVerbose;
  NEPAL_ASSIGN_OR_RETURN(QueryResult result, RunParsed(query, nql));
  return result.explain_text;
}

obs::QueryStats QueryEngine::LastQueryStats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return last_stats_;
}

std::vector<SlowQuery> QueryEngine::SlowQueries() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return std::vector<SlowQuery>(slow_log_.begin(), slow_log_.end());
}

RouteDecision QueryEngine::LastRoute() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return last_route_;
}

Result<QueryResult> QueryEngine::RunParsed(const Query& query,
                                           const std::string& text) const {
  const std::string& backend_name = default_db_->backend().name();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();

  ExplainCapture capture;
  std::vector<std::string> lines;
  if (query.explain == ExplainMode::kPlan ||
      query.explain == ExplainMode::kVerbose) {
    capture.lines = &lines;
    capture.verbose = query.explain == ExplainMode::kVerbose;
  }

  // ---- Read routing ----
  // Under a non-default policy, the whole query may evaluate on a replica:
  // the router pins the replica's commit epoch at decision time and the
  // query reads that snapshot there — it never observes state older than
  // the staleness bound, and never straddles replica apply batches. EXPLAIN
  // stays on the primary (its plan capture is the point), as do
  // queries the materialized-view provider might serve: the view cache is
  // primary-bound, and a provider-registered view *name* only resolves
  // through it.
  RouteDecision route;
  route.db = default_db_;
  std::map<storage::GraphDb*, uint64_t> routed_epochs;
  const std::map<storage::GraphDb*, uint64_t>* outer_epochs = nullptr;
  if (options_.routing.policy != ReadPolicy::kPrimaryOnly &&
      query.explain == ExplainMode::kNone) {
    bool routable = true;
    if (view_provider_ != nullptr) {
      for (const RangeVarDecl& decl : query.range_vars) {
        std::string view_name = decl.view;
        for (char& c : view_name) c = static_cast<char>(std::toupper(c));
        if (view_name != "PATHS" && views_.find(decl.view) == views_.end()) {
          routable = false;  // provider-served view: primary only
          break;
        }
      }
    }
    if (routable) {
      route = catalog_.RouteRead(default_db_, options_.routing);
      if (route.replica) {
        routed_epochs.emplace(route.db, route.epoch);
        routed_epochs.emplace(default_db_, default_db_->commit_epoch());
        catalog_.ForEach([&routed_epochs](const std::string&,
                                          const SourceDescriptor& desc) {
          storage::GraphDb* db = desc.database();
          routed_epochs.emplace(db, db->commit_epoch());
        });
        outer_epochs = &routed_epochs;
      }
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    last_route_ = route;
  }

  obs::QueryStatsBuilder builder;
  // Read-path execute span. Per-operator children are synthesized below
  // from the partition-invariant QueryStats totals rather than recorded
  // live: pool threads have no ambient context, and the associative
  // totals give the tree an identical shape at parallelism 1 and N.
  obs::TraceContext tctx = obs::Tracer::CurrentContext();
  uint32_t exec_span = 0;
  if (tctx) exec_span = tctx.trace->OpenSpan(tctx.span_id, "execute");
  const uint64_t start = NowNs();
  Result<QueryResult> result =
      RunInternal(query, OuterEnv{}, capture, &builder, outer_epochs,
                  route.db);
  const uint64_t wall_ns = NowNs() - start;
  if (exec_span != 0) tctx.trace->CloseSpan(exec_span);

  if (!result.ok()) {
    registry.GetCounter("nepal.query_errors." + backend_name)->Add(1);
    return result;
  }
  registry.GetCounter("nepal.queries." + backend_name)->Add(1);
  registry.GetHistogram("nepal.query_wall_ns." + backend_name)
      ->Observe(wall_ns);

  obs::QueryStats stats = builder.Snapshot();
  stats.backend = backend_name;
  stats.query = text;
  stats.wall_ns = wall_ns;
  stats.result_rows = result->rows.size();
  stats.parallelism =
      static_cast<int>(EffectiveParallelism(options_.plan));
  if (exec_span != 0) {
    for (const obs::OperatorStats& op : stats.operators) {
      tctx.trace->AddSpan(exec_span, op.group + "/" + op.op, op.wall_ns,
                          op.invocations);
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    last_stats_ = stats;
    if (options_.slow_query_ms > 0 &&
        static_cast<double>(wall_ns) / 1e6 >= options_.slow_query_ms) {
      slow_log_.push_back(SlowQuery{text, wall_ns, result->rows.size()});
      if (slow_log_.size() > kSlowLogCapacity) slow_log_.pop_front();
    }
  }
  if (options_.slow_query_ms > 0 &&
      static_cast<double>(wall_ns) / 1e6 >= options_.slow_query_ms) {
    registry.GetCounter("nepal.slow_queries." + backend_name)->Add(1);
    // A query slow by the engine's own threshold is always worth a
    // captured trace, even when the sampling coin said no.
    if (tctx) tctx.trace->ForceKeep();
  }

  switch (query.explain) {
    case ExplainMode::kNone:
      return result;
    case ExplainMode::kAnalyze: {
      QueryResult out;
      out.explain_text = stats.ToString();
      return out;
    }
    case ExplainMode::kPlan:
    case ExplainMode::kVerbose: {
      QueryResult out;
      for (const std::string& line : lines) {
        out.explain_text += line;
        out.explain_text += "\n";
      }
      return out;
    }
  }
  return result;
}

namespace {

struct VarState {
  const RangeVarDecl* decl = nullptr;
  storage::GraphDb* db = nullptr;
  /// The source backend's executor behind a LockedExecutor.
  std::unique_ptr<storage::PathOperatorExecutor> exec;
  TimeView view = TimeView::Current();
  RpeNode rpe;
  bool has_rpe = false;
  /// Extra constraint from a named pathway view (resolved), if any.
  std::optional<RpeNode> view_rpe;
  /// The plan of `rpe`, built once: it costs the anchor, EXPLAIN prints
  /// it and ExecuteMatch runs it. Unset without a structural anchor.
  std::optional<MatchPlan> plan;
  bool evaluated = false;
  /// The variable's paths once evaluated: `owned`, unless the view cache
  /// served them. A served set is the cache's immutable snapshot, read in
  /// place: Materialize copies from it and moves only from `owned`.
  PathSet owned;
  std::shared_ptr<const PathSet> served;
  const PathSet& paths() const { return served != nullptr ? *served : owned; }
  /// Operator-stats group for this variable (null when not collected).
  /// Pre-created in declaration order so snapshots are deterministic even
  /// when variables evaluate as a parallel batch.
  obs::QueryStatsGroup* stats = nullptr;

  /// Estimated anchor scan rows; < 0 when there is no structural anchor.
  double structural_cost() const { return plan ? plan->total_cost : -1; }
};

/// EXPLAIN VERBOSE's SQL section for one plan: each operator's backend SQL
/// under its plan step, in execution order — the anchor Select (or the
/// seeds of a join-seeded variable), the forwards (suffix) steps, then the
/// backwards (reversed prefix) steps, descending into Union branches and
/// repetition bodies. TEMP tables are
/// numbered in rendering order; every alternative of a step reads the
/// step's input table. Renders nothing when the backend has no SQL form.
class PlanSql {
 public:
  PlanSql(const storage::PathOperatorExecutor& exec, const TimeView& view)
      : exec_(exec), view_(view) {}

  std::vector<std::string> Render(const MatchPlan& plan) {
    for (const AnchoredPlan& anchored : plan.anchors) {
      lines_.push_back("Select " + anchored.anchor.ToString() + ":");
      int table = Atom(anchored.anchor, storage::Direction::kOut, 0, "  ");
      table = Steps(anchored.suffix, storage::Direction::kOut, table, "",
                    "forwards ");
      Steps(anchored.reversed_prefix, storage::Direction::kIn, table, "",
            "backwards ");
    }
    return Finish();
  }

  /// A seeded plan: the seed nodes fill the first TEMP table (the join
  /// imports them, so no operator creates it), which the program's steps
  /// extend in the seeded direction.
  std::vector<std::string> Render(const SeededPlan& plan) {
    lines_.push_back("SelectSeeds:");
    const bool source = plan.side == SeedSide::kSource;
    Steps(plan.program,
          source ? storage::Direction::kOut : storage::Direction::kIn,
          ++temps_, "", source ? "forwards " : "backwards ");
    return Finish();
  }

 private:
  /// One operator reading TEMP table `input` (0: the anchor Select);
  /// returns the TEMP table it creates.
  int Atom(const storage::CompiledAtom& atom, storage::Direction dir,
           int input, const std::string& indent) {
    const int output = ++temps_;
    for (const std::string& sql :
         exec_.ToSql(atom, dir, view_, input, output)) {
      any_sql_ = true;
      lines_.push_back(indent + sql);
    }
    return output;
  }

  /// Each step's header with its operators beneath; returns the TEMP
  /// table the program's last operator creates.
  int Steps(const Program& program, storage::Direction dir, int input,
            const std::string& indent, const std::string& label) {
    for (const Step& step : program) {
      lines_.push_back(indent + label + step.ToString() + ":");
      const std::string inner = indent + "  ";
      const int step_input = input;
      switch (step.kind) {
        case Step::Kind::kAtom:
          input = Atom(step.atom, dir, step_input, inner);
          break;
        case Step::Kind::kUnion:
          for (const Program& branch : step.branches) {
            input = Steps(branch, dir, step_input, inner, "");
          }
          break;
        case Step::Kind::kLoop:
          input = Steps(step.body, dir, step_input, inner, "");
          break;
      }
    }
    return input;
  }

  std::vector<std::string> Finish() {
    if (!any_sql_) lines_.clear();
    return std::move(lines_);
  }

  const storage::PathOperatorExecutor& exec_;
  const TimeView& view_;
  std::vector<std::string> lines_;
  int temps_ = 0;
  bool any_sql_ = false;
};

/// True when the expression is a bare source()/target() endpoint reference
/// (no field access) of `var`.
bool IsEndpointRef(const PathExpr& e, const std::string& var) {
  return (e.kind == PathExpr::Kind::kSource ||
          e.kind == PathExpr::Kind::kTarget) &&
         !e.field.has_value() && e.var == var;
}

Uid EndpointOf(const Pathway& path, PathExpr::Kind kind) {
  return kind == PathExpr::Kind::kSource ? path.source_uid()
                                         : path.target_uid();
}

Uid EndpointOf(const PathState& state, PathExpr::Kind kind) {
  return kind == PathExpr::Kind::kSource ? state.uids.front()
                                         : state.uids.back();
}

/// Pinned epoch for `db`, falling back to its live commit epoch when the
/// map predates the source (a replica re-bootstrapped mid-query, or a
/// source registered between capture and use). The fallback is still a
/// consistent read — it just isn't pinned to the query's snapshot.
uint64_t EpochFor(const std::map<storage::GraphDb*, uint64_t>& epochs,
                  storage::GraphDb* db) {
  auto it = epochs.find(db);
  return it != epochs.end() ? it->second : db->commit_epoch();
}

/// Joined rows, row-major: row r binds the first `width` variables of the
/// evaluation order, each to the index of one of its paths, in
/// slots[r * width, (r + 1) * width). A join appends a column into a new
/// array; a filter compacts the rows in place.
struct JoinedRows {
  size_t width = 0;
  std::vector<uint32_t> slots;

  size_t size() const { return width == 0 ? 0 : slots.size() / width; }
  std::span<const uint32_t> operator[](size_t r) const {
    return {slots.data() + r * width, width};
  }
  /// Appends `row` (one column narrower) joined with path `p`.
  void Append(std::span<const uint32_t> row, size_t p) {
    slots.insert(slots.end(), row.begin(), row.end());
    slots.push_back(static_cast<uint32_t>(p));
  }
  /// Moves row r to row `kept` <= r, the step of an in-place filter.
  void Keep(size_t r, size_t kept) {
    if (r != kept) {
      std::copy_n(slots.begin() + static_cast<ptrdiff_t>(r * width), width,
                  slots.begin() + static_cast<ptrdiff_t>(kept * width));
    }
  }
  void Truncate(size_t n) { slots.resize(n * width); }
};

}  // namespace

Result<QueryResult> QueryEngine::RunInternal(
    const Query& query, const OuterEnv& outer, const ExplainCapture& capture,
    obs::QueryStatsBuilder* stats,
    const std::map<storage::GraphDb*, uint64_t>* outer_epochs,
    storage::GraphDb* run_db) const {
  if (run_db == nullptr) run_db = default_db_;
  std::vector<std::string>* explain = capture.lines;
  // ---- Validate structure and set up variable states ----
  if (query.range_vars.empty()) {
    return Status::InvalidArgument("a query needs at least one range variable");
  }

  // ---- Materialized-view routing ----
  // A single-variable top-level query is offered to the attached view
  // provider before anything is planned: `From <name> P` over a name the
  // engine's own (unmaterialized) views don't define is served by name,
  // and a plain MATCHES query whose canonical RPE and temporal mode equal
  // a registered view's definition is served by definition. Serving pins
  // the variable's source to the cache's freshness epoch, so every other
  // clause (compare predicates, EXISTS subqueries, Select expressions)
  // evaluates at exactly the epoch the cached rows are exact at — the
  // result is byte-identical to cold evaluation there. EXPLAIN VERBOSE
  // always runs cold (the SQL of its plan operators is the point);
  // EXPLAIN / EXPLAIN ANALYZE may serve and report a one-line ServeView
  // plan.
  std::optional<ServedView> served;
  if (view_provider_ != nullptr && outer_epochs == nullptr &&
      !capture.verbose && query.range_vars.size() == 1) {
    const RangeVarDecl& decl = query.range_vars[0];
    Result<storage::GraphDb*> src = SourceFor(decl, run_db);
    const std::optional<TimeSpec>& spec =
        decl.at.has_value() ? decl.at : query.at;
    const Predicate* matches = nullptr;
    bool single_matches = true;
    for (const Predicate& pred : query.where) {
      if (pred.kind != Predicate::Kind::kMatches) continue;
      if (pred.var != decl.name || matches != nullptr) {
        single_matches = false;
        break;
      }
      matches = &pred;
    }
    if (src.ok() && (!spec.has_value() || !spec->is_range())) {
      std::optional<Timestamp> as_of;
      if (spec.has_value()) as_of = spec->start;
      std::string view_name = decl.view;
      for (char& c : view_name) c = static_cast<char>(std::toupper(c));
      if (view_name != "PATHS") {
        // A MATCHES predicate on top of a named view means intersection —
        // the cache alone cannot answer that. The engine's own view names
        // shadow the provider's.
        if (matches == nullptr && single_matches &&
            views_.find(decl.view) == views_.end()) {
          served = view_provider_->Serve(decl.view);
        }
      } else if (single_matches && matches != nullptr) {
        const std::string canonical = Normalize(matches->rpe).ToString();
        served = view_provider_->Match(*src, canonical, as_of);
      }
      if (served.has_value() &&
          (served->db != *src || served->as_of != as_of ||
           served->paths == nullptr || served->epoch == 0)) {
        served.reset();  // different source or temporal mode: run cold
      }
    }
  }

  // ---- Epoch pinning ----
  // A subquery inherits its parent's pinned epochs. A top-level call
  // captures every reachable source's commit epoch up front — lock-free
  // (commit_epoch() is an atomic published under the writer lock) — so
  // subqueries over any catalog source read the same snapshot.
  std::map<storage::GraphDb*, uint64_t> epoch_map;
  if (outer_epochs == nullptr) {
    epoch_map.emplace(run_db, run_db->commit_epoch());
    catalog_.ForEach(
        [&epoch_map](const std::string&, const SourceDescriptor& desc) {
          storage::GraphDb* db = desc.database();
          epoch_map.emplace(db, db->commit_epoch());
        });
    // A served variable pins its source to the cache's freshness epoch
    // (never ahead of the commit epoch), keeping the whole query
    // consistent with the cached rows.
    if (served.has_value()) epoch_map[served->db] = served->epoch;
  }
  const std::map<storage::GraphDb*, uint64_t>& epochs =
      outer_epochs != nullptr ? *outer_epochs : epoch_map;

  std::map<std::string, size_t> var_index;
  std::vector<VarState> vars(query.range_vars.size());
  for (size_t i = 0; i < query.range_vars.size(); ++i) {
    const RangeVarDecl& decl = query.range_vars[i];
    if (!var_index.emplace(decl.name, i).second) {
      return Status::InvalidArgument("duplicate range variable '" + decl.name +
                                     "'");
    }
    vars[i].decl = &decl;
    NEPAL_ASSIGN_OR_RETURN(vars[i].db, SourceFor(decl, run_db));
    vars[i].exec = std::make_unique<LockedExecutor>(
        vars[i].db, vars[i].db->backend().CreateExecutor());
    if (stats != nullptr) {
      vars[i].stats = stats->AddGroup("var " + decl.name);
    }
    vars[i].view = ViewFor(decl.at, query.at)
                       .WithEpoch(EpochFor(epochs, vars[i].db));
    std::string view_name = decl.view;
    for (char& c : view_name) c = static_cast<char>(std::toupper(c));
    if (view_name != "PATHS" && !served.has_value()) {
      auto view_it = views_.find(decl.view);
      if (view_it == views_.end()) {
        return Status::NotFound("no pathway view named '" + decl.view +
                                "' is defined on this engine");
      }
      RpeNode resolved = view_it->second;
      NEPAL_RETURN_NOT_OK(ResolveRpe(vars[i].db->schema(),
                                     options_.plan.max_repetition,
                                     &resolved));
      vars[i].view_rpe = std::move(resolved);
    }
  }

  // Each range variable needs exactly one MATCHES predicate.
  std::vector<const Predicate*> compare_preds;
  std::vector<const Predicate*> exists_preds;
  std::vector<bool> has_matches(vars.size(), false);
  for (const Predicate& pred : query.where) {
    switch (pred.kind) {
      case Predicate::Kind::kMatches: {
        auto it = var_index.find(pred.var);
        if (it == var_index.end()) {
          return Status::InvalidArgument("MATCHES references unknown range "
                                         "variable '" + pred.var + "'");
        }
        VarState& vs = vars[it->second];
        if (has_matches[it->second]) {
          return Status::InvalidArgument("range variable '" + pred.var +
                                         "' has multiple MATCHES predicates");
        }
        has_matches[it->second] = true;
        vs.has_rpe = true;
        vs.rpe = pred.rpe;
        NEPAL_RETURN_NOT_OK(ResolveRpe(vs.db->schema(),
                                       options_.plan.max_repetition, &vs.rpe));
        break;
      }
      case Predicate::Kind::kCompare:
        compare_preds.push_back(&pred);
        break;
      case Predicate::Kind::kExists:
        exists_preds.push_back(&pred);
        break;
    }
  }
  for (size_t i = 0; i < vars.size(); ++i) {
    if (has_matches[i]) continue;
    // A served variable's rows come from the provider, not an RPE.
    if (served.has_value()) continue;
    // A named view can stand in for the MATCHES predicate.
    if (vars[i].view_rpe.has_value()) {
      vars[i].rpe = *vars[i].view_rpe;
      vars[i].has_rpe = true;
      vars[i].view_rpe.reset();
      continue;
    }
    return Status::InvalidArgument("range variable '" + vars[i].decl->name +
                                   "' has no MATCHES predicate (and ranges "
                                   "over PATHS, not a view)");
  }

  // ---- Install served rows ----
  // The cached snapshot is already deduplicated and in canonical order;
  // the variable is pre-evaluated and skips planning entirely.
  if (served.has_value()) {
    VarState& vs = vars[0];
    vs.served = served->paths;
    vs.evaluated = true;
    vs.view_rpe.reset();
    if (explain != nullptr) {
      explain->push_back("var " + vs.decl->name + ": ServeView(" +
                         served->name + ", epoch=" +
                         std::to_string(served->epoch) + ")");
    }
    if (vs.stats != nullptr) {
      vs.stats->Record(
          vs.stats->AddOp("ServeView(" + served->name + ")",
                          static_cast<double>(vs.paths().size())),
          obs::OpSample::Invocation(0, vs.paths().size()));
    }
    obs::MetricsRegistry::Global().GetCounter("nepal.views.served")->Add(1);
  }

  // ---- Structural anchor plans ----
  // Each variable's RPE is planned exactly once per query, against its
  // source's live statistics under a brief shared lock: the plan costs
  // the structural anchor here, and is the one EXPLAIN prints and
  // ExecuteMatch runs.
  for (VarState& vs : vars) {
    if (vs.evaluated) continue;
    Result<MatchPlan> plan =
        PlanMatchLocked(vs.db, vs.rpe, options_.plan, vs.view);
    if (plan.ok()) vs.plan = std::move(*plan);
  }

  // Looks for an equality predicate that can seed `vi`'s anchor from an
  // already-evaluated variable (or an outer binding) in the same database.
  // Returns the seed uids and which endpoint of vi they pin.
  auto find_seed = [&](size_t vi, std::vector<Uid>* seeds,
                       SeedSide* side) -> bool {
    const std::string& name = vars[vi].decl->name;
    for (const Predicate* pred : compare_preds) {
      if (pred->negate_compare) continue;
      for (int flip = 0; flip < 2; ++flip) {
        const PathExpr& mine = flip == 0 ? pred->lhs : pred->rhs;
        const PathExpr& other = flip == 0 ? pred->rhs : pred->lhs;
        if (!IsEndpointRef(mine, name)) continue;
        std::unordered_set<Uid> uids;
        if (other.kind == PathExpr::Kind::kSource ||
            other.kind == PathExpr::Kind::kTarget) {
          if (other.field.has_value()) continue;
          auto it = var_index.find(other.var);
          if (it != var_index.end()) {
            const VarState& ovs = vars[it->second];
            if (!ovs.evaluated || ovs.db != vars[vi].db) continue;
            for (const PathState& s : ovs.paths()) {
              uids.insert(EndpointOf(s, other.kind));
            }
          } else {
            auto oit = outer.find(other.var);
            if (oit == outer.end() || oit->second.db != vars[vi].db) continue;
            uids.insert(EndpointOf(*oit->second.path, other.kind));
          }
        } else {
          continue;
        }
        seeds->assign(uids.begin(), uids.end());
        std::sort(seeds->begin(), seeds->end());
        *side = mine.kind == PathExpr::Kind::kSource ? SeedSide::kSource
                                                     : SeedSide::kTarget;
        return true;
      }
    }
    return false;
  };

  // Post-evaluation per-variable steps shared by the serial and parallel
  // paths: named-view intersection and Range-view coalescing.
  auto finish_var = [&](VarState& vs) -> Status {
    if (vs.view_rpe.has_value()) {
      // Intersect with the named view: a pathway qualifies when the view
      // RPE also matches it, over the overlap of their validity.
      NEPAL_ASSIGN_OR_RETURN(
          MatchPlan view_plan,
          PlanMatchLocked(vs.db, *vs.view_rpe, options_.plan, vs.view));
      const PathSet view_paths = ExecuteMatch(*vs.exec, view_plan, vs.view,
                                              options_.plan, vs.stats);
      // The view's paths grouped by uid sequence, each group in view order.
      KeyGroups groups(
          view_paths.size(),
          [&](size_t i) { return HashUids(view_paths[i].uids); },
          [&](size_t a, size_t b) {
            return view_paths[a].uids == view_paths[b].uids;
          });
      groups.BuildMembers();
      PathSet intersected;
      for (PathState& state : vs.owned) {
        const std::optional<uint32_t> id =
            groups.Find(HashUids(state.uids), [&](size_t first) {
              return view_paths[first].uids == state.uids;
            });
        if (!id) continue;
        for (uint32_t i : groups.Members(*id)) {
          Interval overlap = state.valid.Intersect(view_paths[i].valid);
          if (overlap.empty()) continue;
          PathState keep = state;
          keep.valid = overlap;
          intersected.push_back(std::move(keep));
        }
      }
      storage::DedupPaths(&intersected);
      vs.owned = std::move(intersected);
    }
    if (vs.view.kind() == TimeView::Kind::kRange) {
      CoalescePathSet(&vs.owned);
    }
    return Status::OK();
  };

  const size_t effective_parallelism = EffectiveParallelism(options_.plan);

  // ---- Evaluate range variables, cheapest anchor first ----
  std::vector<size_t> eval_order;
  size_t remaining = 0;
  for (size_t i = 0; i < vars.size(); ++i) {
    if (vars[i].evaluated) {
      eval_order.push_back(i);  // pre-evaluated (served from a view cache)
    } else {
      ++remaining;
    }
  }
  while (remaining > 0) {
    // Independent structurally-anchored variables (typically federated
    // sub-matches over different sources) have no evaluation-order
    // dependency: run them as one concurrent batch. Variables that a join
    // could seed stay serial so the cheapest-first seeding still applies.
    if (effective_parallelism > 1 && explain == nullptr) {
      std::vector<size_t> batch;
      for (size_t i = 0; i < vars.size(); ++i) {
        if (vars[i].evaluated || !vars[i].plan) continue;
        std::vector<Uid> seeds;
        SeedSide side;
        if (find_seed(i, &seeds, &side)) continue;
        batch.push_back(i);
      }
      if (batch.size() >= 2) {
        // Deterministic evaluation order: cheapest first, index breaking
        // ties — the same order the serial loop would have produced.
        std::sort(batch.begin(), batch.end(), [&](size_t a, size_t b) {
          if (vars[a].structural_cost() != vars[b].structural_cost()) {
            return vars[a].structural_cost() < vars[b].structural_cost();
          }
          return a < b;
        });
        std::vector<Status> statuses(batch.size(), Status::OK());
        std::vector<std::function<void()>> tasks;
        tasks.reserve(batch.size());
        for (size_t k = 0; k < batch.size(); ++k) {
          VarState& vs = vars[batch[k]];
          Status& status = statuses[k];
          tasks.push_back([this, &vs, &status, &finish_var] {
            vs.owned = ExecuteMatch(*vs.exec, *vs.plan, vs.view,
                                    options_.plan, vs.stats);
            status = finish_var(vs);
          });
        }
        common::ThreadPool::Shared().RunBatch(std::move(tasks));
        for (const Status& status : statuses) NEPAL_RETURN_NOT_OK(status);
        for (size_t vi : batch) {
          vars[vi].evaluated = true;
          eval_order.push_back(vi);
          if (stats != nullptr) {
            stats->AddPlanCost(vars[vi].structural_cost());
          }
        }
        remaining -= batch.size();
        continue;
      }
    }
    double best_cost = -1;
    size_t best_var = vars.size();
    bool best_seeded = false;
    std::vector<Uid> best_seeds;
    SeedSide best_side = SeedSide::kSource;
    for (size_t i = 0; i < vars.size(); ++i) {
      if (vars[i].evaluated) continue;
      std::vector<Uid> seeds;
      SeedSide side;
      bool seedable = find_seed(i, &seeds, &side);
      double cost = -1;
      bool seeded = false;
      if (vars[i].plan) cost = vars[i].structural_cost();
      if (seedable &&
          (cost < 0 || static_cast<double>(seeds.size()) < cost)) {
        cost = static_cast<double>(seeds.size());
        seeded = true;
      }
      if (cost < 0) continue;
      if (best_var == vars.size() || cost < best_cost) {
        best_cost = cost;
        best_var = i;
        best_seeded = seeded;
        best_seeds = std::move(seeds);
        best_side = side;
      }
    }
    if (best_var == vars.size()) {
      std::string pending;
      for (const VarState& vs : vars) {
        if (!vs.evaluated) pending += " " + vs.decl->name;
      }
      return Status::PlanError(
          "no anchor for range variable(s):" + pending +
          " — every atom is unselective/optional and no join provides one");
    }
    VarState& vs = vars[best_var];
    std::optional<SeededPlan> seeded;
    if (best_seeded) {
      if (explain != nullptr) {
        explain->push_back("var " + vs.decl->name + ": anchor imported via "
                           "join (" + std::to_string(best_seeds.size()) +
                           " seed nodes)");
      }
      {
        std::shared_lock<std::shared_mutex> lock(vs.db->mutex());
        seeded = PlanMatchSeeded(vs.rpe, vs.db->backend(), best_seeds.size(),
                                 best_side, vs.view);
      }
      vs.owned = ExecuteMatchSeeded(*vs.exec, *seeded, best_seeds, vs.view,
                                    options_.plan, vs.stats);
    } else {
      if (explain != nullptr) {
        explain->push_back("var " + vs.decl->name + ":\n" +
                           vs.plan->ToString());
      }
      vs.owned = ExecuteMatch(*vs.exec, *vs.plan, vs.view, options_.plan,
                              vs.stats);
      if (stats != nullptr) stats->AddPlanCost(vs.structural_cost());
    }
    NEPAL_RETURN_NOT_OK(finish_var(vs));
    vs.evaluated = true;
    eval_order.push_back(best_var);
    --remaining;
    if (explain != nullptr) {
      explain->push_back("var " + vs.decl->name + ": " +
                         std::to_string(vs.owned.size()) + " pathway(s)");
      if (capture.verbose) {
        PlanSql sql(*vs.exec, vs.view);
        for (const std::string& line :
             seeded ? sql.Render(*seeded) : sql.Render(*vs.plan)) {
          explain->push_back("  " + line);
        }
      }
    }
  }

  // ---- Expression evaluation over a joined row ----
  // A row binds the first row.size() variables of eval_order, each to the
  // index of one of its paths (JoinedRows); `slot_of[vi]` is variable vi's
  // position there. Outer bindings resolve by name.
  std::vector<size_t> slot_of(vars.size());
  for (size_t k = 0; k < eval_order.size(); ++k) slot_of[eval_order[k]] = k;
  using Row = std::span<const uint32_t>;
  auto pathway_for = [&](Row row, const std::string& name,
                         storage::GraphDb** db_out) -> const PathState* {
    auto it = var_index.find(name);
    if (it == var_index.end()) return nullptr;
    const size_t k = slot_of[it->second];
    if (k >= row.size()) return nullptr;
    *db_out = vars[it->second].db;
    return &vars[it->second].paths()[row[k]];
  };

  std::function<Result<Value>(const PathExpr&, Row)> eval_expr =
      [&](const PathExpr& e, Row row) -> Result<Value> {
    switch (e.kind) {
      case PathExpr::Kind::kLiteral:
        return e.literal;
      case PathExpr::Kind::kVar: {
        storage::GraphDb* db = nullptr;
        const PathState* state = pathway_for(row, e.var, &db);
        if (state == nullptr) {
          return Status::InvalidArgument("unknown variable '" + e.var +
                                         "' in expression");
        }
        return Value(ToPathway(*state).ToString());
      }
      case PathExpr::Kind::kLength: {
        storage::GraphDb* db = nullptr;
        const PathState* state = pathway_for(row, e.var, &db);
        if (state == nullptr) {
          return Status::InvalidArgument("unknown variable '" + e.var +
                                         "' in length()");
        }
        return Value(static_cast<int64_t>(state->uids.size()));
      }
      case PathExpr::Kind::kSource:
      case PathExpr::Kind::kTarget: {
        storage::GraphDb* db = nullptr;
        Uid uid = kInvalidUid;
        Interval valid = Interval::All();
        if (const PathState* state = pathway_for(row, e.var, &db)) {
          uid = EndpointOf(*state, e.kind);
          valid = state->valid;
        } else {
          auto oit = outer.find(e.var);
          if (oit == outer.end()) {
            return Status::InvalidArgument("unknown variable '" + e.var +
                                           "' in expression");
          }
          db = oit->second.db;
          uid = EndpointOf(*oit->second.path, e.kind);
          valid = oit->second.path->valid;
        }
        if (!e.field.has_value()) {
          return Value(static_cast<int64_t>(uid));
        }
        if (*e.field == "id") return Value(static_cast<int64_t>(uid));
        NEPAL_ASSIGN_OR_RETURN(
            storage::ElementVersion v,
            FetchVersion(db, uid, valid, EpochFor(epochs, db)));
        int idx = v.cls->FieldIndex(*e.field);
        if (idx < 0) {
          return Status::InvalidArgument("class " + v.cls->name() +
                                         " has no field '" + *e.field + "'");
        }
        return v.fields[static_cast<size_t>(idx)];
      }
    }
    return Status::Internal("unhandled expression kind");
  };

  // A compare predicate is evaluable once all its variables are bound.
  auto pred_vars_bound = [&](const Predicate& pred,
                             const std::unordered_set<size_t>& bound) -> bool {
    for (const PathExpr* e : {&pred.lhs, &pred.rhs}) {
      if (e->kind == PathExpr::Kind::kLiteral) continue;
      auto it = var_index.find(e->var);
      if (it != var_index.end()) {
        if (!bound.count(it->second)) return false;
      } else if (!outer.count(e->var)) {
        return false;  // resolves nowhere; reported at evaluation
      }
    }
    return true;
  };

  auto eval_compare = [&](const Predicate& pred, Row row) -> Result<bool> {
    NEPAL_ASSIGN_OR_RETURN(Value lhs, eval_expr(pred.lhs, row));
    NEPAL_ASSIGN_OR_RETURN(Value rhs, eval_expr(pred.rhs, row));
    bool eq = lhs == rhs;
    return pred.negate_compare ? !eq : eq;
  };

  // ---- Join phase ----
  // Variables join in evaluation order, one column each: `Init` makes one
  // row per path of the first, and each later variable either joins by a
  // hash of the equated endpoint (its paths grouped by that endpoint) or
  // forms the product. Predicates filter as soon as their variables are
  // bound, compacting the rows in place. The join runs after every
  // variable has finished evaluating, so op registration and recording are
  // strictly sequential here.
  obs::QueryStatsGroup* join_stats =
      stats != nullptr ? stats->AddGroup("join") : nullptr;
  JoinedRows rows;
  {
    std::unordered_set<size_t> bound;
    std::unordered_set<const Predicate*> applied;
    for (size_t k = 0; k < eval_order.size(); ++k) {
      size_t vi = eval_order[k];
      bound.insert(vi);
      const PathSet& paths = vars[vi].paths();
      const uint64_t join_start = join_stats != nullptr ? NowNs() : 0;
      const size_t join_rows_in = k == 0 ? paths.size() : rows.size();
      std::vector<const Predicate*> now_evaluable;
      for (const Predicate* pred : compare_preds) {
        if (applied.count(pred)) continue;
        if (pred_vars_bound(*pred, bound)) {
          now_evaluable.push_back(pred);
          applied.insert(pred);
        }
      }
      // Prefer a hash join: an equality between a bare endpoint of the new
      // variable and a bare endpoint of an already-bound variable lets us
      // bucket the new variable's pathways instead of forming the product.
      const Predicate* hash_pred = nullptr;
      PathExpr::Kind vi_side = PathExpr::Kind::kSource;
      const PathExpr* other_side = nullptr;
      const std::string& vi_name = vars[vi].decl->name;
      for (const Predicate* pred : now_evaluable) {
        if (pred->negate_compare) continue;
        for (int flip = 0; flip < 2 && hash_pred == nullptr; ++flip) {
          const PathExpr& mine = flip == 0 ? pred->lhs : pred->rhs;
          const PathExpr& other = flip == 0 ? pred->rhs : pred->lhs;
          if (!IsEndpointRef(mine, vi_name)) continue;
          if (other.kind != PathExpr::Kind::kSource &&
              other.kind != PathExpr::Kind::kTarget) {
            continue;
          }
          if (other.field.has_value() || other.var == vi_name) continue;
          hash_pred = pred;
          vi_side = mine.kind;
          other_side = &other;
        }
        if (hash_pred != nullptr) break;
      }

      JoinedRows next;
      next.width = k + 1;
      if (k == 0) {
        next.slots.resize(paths.size());
        for (size_t p = 0; p < paths.size(); ++p) {
          next.slots[p] = static_cast<uint32_t>(p);
        }
      } else if (hash_pred != nullptr) {
        auto endpoint = [&](size_t p) { return EndpointOf(paths[p], vi_side); };
        KeyGroups buckets(
            paths.size(), [&](size_t p) { return HashFinish(endpoint(p)); },
            [&](size_t a, size_t b) { return endpoint(a) == endpoint(b); });
        buckets.BuildMembers();
        for (size_t r = 0; r < rows.size(); ++r) {
          Uid key = kInvalidUid;
          storage::GraphDb* other_db = nullptr;
          if (const PathState* state =
                  pathway_for(rows[r], other_side->var, &other_db)) {
            key = EndpointOf(*state, other_side->kind);
          } else {
            auto oit = outer.find(other_side->var);
            if (oit == outer.end()) continue;
            key = EndpointOf(*oit->second.path, other_side->kind);
          }
          const std::optional<uint32_t> bucket = buckets.Find(
              HashFinish(key), [&](size_t p) { return endpoint(p) == key; });
          if (!bucket) continue;
          for (uint32_t p : buckets.Members(*bucket)) next.Append(rows[r], p);
        }
      } else {
        next.slots.reserve(rows.size() * paths.size() * next.width);
        for (size_t r = 0; r < rows.size(); ++r) {
          for (size_t p = 0; p < paths.size(); ++p) next.Append(rows[r], p);
        }
      }
      if (!now_evaluable.empty()) {
        size_t kept = 0;
        for (size_t r = 0; r < next.size(); ++r) {
          bool keep = true;
          for (const Predicate* pred : now_evaluable) {
            NEPAL_ASSIGN_OR_RETURN(bool pass, eval_compare(*pred, next[r]));
            if (!pass) {
              keep = false;
              break;
            }
          }
          if (keep) next.Keep(r, kept++);
        }
        next.Truncate(kept);
      }
      rows = std::move(next);
      if (join_stats != nullptr) {
        std::string label =
            k == 0 ? "Init " + vars[vi].decl->name
                   : "Join " + vars[vi].decl->name +
                         (hash_pred != nullptr ? " (hash)" : " (product)");
        if (!now_evaluable.empty()) {
          label += " +" + std::to_string(now_evaluable.size()) + " filter(s)";
        }
        join_stats->Record(join_stats->AddOp(std::move(label)),
                           obs::OpSample::Invocation(join_rows_in, rows.size(),
                                                     NowNs() - join_start));
      }
      if (rows.size() == 0) break;
    }
    // Any compare predicate never applied references unknown variables.
    for (const Predicate* pred : compare_preds) {
      if (!applied.count(pred)) {
        return Status::InvalidArgument(
            "comparison '" + pred->lhs.ToString() +
            (pred->negate_compare ? " <> " : " = ") + pred->rhs.ToString() +
            "' references an unknown range variable");
      }
    }
  }

  // ---- Subqueries ----
  for (const Predicate* pred : exists_preds) {
    const uint64_t exists_start = join_stats != nullptr ? NowNs() : 0;
    const size_t exists_rows_in = rows.size();
    // The row's pathways, bound for correlation; they outlive each
    // recursive call.
    std::vector<Pathway> bindings(rows.width);
    size_t kept = 0;
    for (size_t r = 0; r < rows.size(); ++r) {
      OuterEnv env = outer;
      for (size_t k = 0; k < rows.width; ++k) {
        const VarState& vs = vars[eval_order[k]];
        bindings[k] = ToPathway(vs.paths()[rows[r][k]]);
        env[vs.decl->name] = OuterBinding{&bindings[k], vs.db};
      }
      // Subqueries are not instrumented: their per-row operator stats
      // would swamp the outer query's table.
      NEPAL_ASSIGN_OR_RETURN(
          QueryResult sub,
          RunInternal(*pred->subquery, env, ExplainCapture{}, nullptr,
                      &epochs, run_db));
      bool exists = !sub.rows.empty();
      if (exists != pred->negate_exists) rows.Keep(r, kept++);
    }
    rows.Truncate(kept);
    if (join_stats != nullptr) {
      join_stats->Record(
          join_stats->AddOp(std::string(pred->negate_exists ? "Not " : "") +
                            "Exists subquery"),
          obs::OpSample::Invocation(exists_rows_in, rows.size(),
                                    NowNs() - exists_start));
    }
  }

  // ---- Joint temporal semantics ----
  // Under a query-level AT, all pathways of a row must coexist; the row's
  // validity is the maximal interval where they do. Per-variable @ bindings
  // leave the variables temporally unrelated.
  bool shared_view = true;
  for (const VarState& vs : vars) {
    if (vs.decl->at.has_value()) shared_view = false;
  }

  // ---- Materialize result rows ----
  QueryResult result;
  result.agg = query.agg;
  // Each Retrieve column's slot in the joined rows.
  std::vector<size_t> column_slots;
  if (!query.is_select) {
    for (const std::string& name : query.retrieve_vars) {
      auto it = var_index.find(name);
      if (it == var_index.end()) {
        return Status::InvalidArgument("Retrieve references unknown range "
                                       "variable '" + name + "'");
      }
      result.path_columns.push_back(name);
      column_slots.push_back(slot_of[it->second]);
    }
  } else {
    for (const SelectItem& item : query.select_items) {
      result.value_columns.push_back(item.ToString());
    }
  }

  // ---- Aggregation (the result-processing layer) ----
  bool aggregated = !query.group_by.empty();
  for (const SelectItem& item : query.select_items) {
    if (item.agg != SelectItem::Agg::kNone) aggregated = true;
  }
  if (aggregated) {
    if (!query.is_select) {
      return Status::InvalidArgument(
          "aggregates and Group By require a Select clause");
    }
    if (query.agg != TemporalAgg::kNone) {
      return Status::Unsupported(
          "temporal aggregation cannot be combined with Group By "
          "aggregates");
    }
    // Every non-aggregated output must be a grouping expression.
    for (const SelectItem& item : query.select_items) {
      if (item.agg != SelectItem::Agg::kNone) continue;
      bool grouped = false;
      for (const PathExpr& g : query.group_by) {
        if (g.ToString() == item.expr.ToString()) grouped = true;
      }
      if (!grouped) {
        return Status::InvalidArgument(
            "Select item '" + item.expr.ToString() +
            "' must appear in Group By when aggregates are used");
      }
    }
    // Each row's grouping values, row-major.
    const size_t width = query.group_by.size();
    std::vector<Value> keys;
    keys.reserve(rows.size() * width);
    for (size_t r = 0; r < rows.size(); ++r) {
      for (const PathExpr& g : query.group_by) {
        NEPAL_ASSIGN_OR_RETURN(Value v, eval_expr(g, rows[r]));
        keys.push_back(std::move(v));
      }
    }
    auto key = [&](size_t r) {
      return std::span<const Value>(keys.data() + r * width, width);
    };
    KeyGroups groups(
        rows.size(), [&](size_t i) { return HashValues(key(i)); },
        [&](size_t a, size_t b) {
          return std::equal(key(a).begin(), key(a).end(), key(b).begin());
        });
    groups.BuildMembers();
    std::vector<Value> seen;  // count(distinct)'s values, one group's
    for (uint32_t g = 0; g < groups.size(); ++g) {
      const std::span<const uint32_t> members = groups.Members(g);
      ResultRow out_row;
      for (const SelectItem& item : query.select_items) {
        switch (item.agg) {
          case SelectItem::Agg::kNone: {
            NEPAL_ASSIGN_OR_RETURN(
                Value v, eval_expr(item.expr, rows[members.front()]));
            out_row.values.push_back(std::move(v));
            break;
          }
          case SelectItem::Agg::kCount:
            out_row.values.push_back(
                Value(static_cast<int64_t>(members.size())));
            break;
          case SelectItem::Agg::kCountDistinct: {
            seen.clear();
            for (uint32_t m : members) {
              NEPAL_ASSIGN_OR_RETURN(Value v, eval_expr(item.expr, rows[m]));
              seen.push_back(std::move(v));
            }
            const size_t distinct =
                KeyGroups(
                    seen.size(),
                    [&](size_t i) { return HashFinish(seen[i].Hash()); },
                    [&](size_t a, size_t b) { return seen[a] == seen[b]; })
                    .size();
            out_row.values.push_back(Value(static_cast<int64_t>(distinct)));
            break;
          }
          case SelectItem::Agg::kMin:
          case SelectItem::Agg::kMax: {
            std::optional<Value> best;
            for (uint32_t m : members) {
              NEPAL_ASSIGN_OR_RETURN(Value v, eval_expr(item.expr, rows[m]));
              if (v.is_null()) continue;
              if (!best ||
                  (item.agg == SelectItem::Agg::kMin ? v < *best
                                                     : *best < v)) {
                best = std::move(v);
              }
            }
            out_row.values.push_back(best.value_or(Value::Null()));
            break;
          }
          case SelectItem::Agg::kSum: {
            int64_t int_sum = 0;
            double dbl_sum = 0;
            bool any_double = false, any = false;
            for (uint32_t m : members) {
              NEPAL_ASSIGN_OR_RETURN(Value v, eval_expr(item.expr, rows[m]));
              if (v.kind() == ValueKind::kInt) {
                int_sum += v.AsInt();
                any = true;
              } else if (v.kind() == ValueKind::kDouble) {
                dbl_sum += v.AsDouble();
                any_double = true;
                any = true;
              } else if (!v.is_null()) {
                return Status::InvalidArgument(
                    "sum() needs numeric values, got " +
                    std::string(ValueKindToString(v.kind())));
              }
            }
            if (!any) {
              out_row.values.push_back(Value::Null());
            } else if (any_double) {
              out_row.values.push_back(
                  Value(dbl_sum + static_cast<double>(int_sum)));
            } else {
              out_row.values.push_back(Value(int_sum));
            }
            break;
          }
        }
      }
      result.rows.push_back(std::move(out_row));
      if (options_.max_rows != 0 && result.rows.size() >= options_.max_rows) {
        break;
      }
    }
    if (stats != nullptr) {
      obs::QueryStatsGroup* result_stats = stats->AddGroup("result");
      result_stats->Record(
          result_stats->AddOp("Aggregate"),
          obs::OpSample::Invocation(rows.size(), result.rows.size()));
    }
    return result;
  }

  obs::QueryStatsGroup* result_stats =
      stats != nullptr ? stats->AddGroup("result") : nullptr;
  const uint64_t materialize_start = result_stats != nullptr ? NowNs() : 0;
  const size_t materialize_rows_in = rows.size();
  // A path moves into the last row that references it, and is copied into
  // every earlier one. `uses[k][p]` counts the references to path p of slot
  // k's variable still to come, one per Retrieve column naming it in each
  // row; a served variable's paths are never moved, so are not counted.
  // Rows that are skipped or cut by max_rows never take their references,
  // so the paths they name are copied, never moved early.
  std::vector<std::vector<uint32_t>> uses(rows.width);
  for (size_t k : column_slots) {
    const VarState& vs = vars[eval_order[k]];
    if (vs.served != nullptr || rows.size() == 0) continue;
    uses[k].resize(vs.owned.size());
    for (size_t r = 0; r < rows.size(); ++r) ++uses[k][rows[r][k]];
  }
  result.rows.reserve(options_.max_rows != 0
                          ? std::min(rows.size(), options_.max_rows)
                          : rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    const Row row = rows[r];
    ResultRow out_row;
    Interval joint = Interval::All();
    for (size_t k = 0; k < row.size(); ++k) {
      joint = joint.Intersect(vars[eval_order[k]].paths()[row[k]].valid);
    }
    if (shared_view) {
      if (joint.empty()) continue;  // pathways never coexisted
      out_row.valid = joint;
    }
    if (!query.is_select) {
      out_row.paths.reserve(column_slots.size());
      for (size_t k : column_slots) {
        VarState& vs = vars[eval_order[k]];
        const uint32_t p = row[k];
        Pathway& out = out_row.paths.emplace_back();
        if (!uses[k].empty() && --uses[k][p] == 0) {
          out.uids = std::move(vs.owned[p].uids);
          out.concepts = std::move(vs.owned[p].concepts);
        } else {
          out.uids = vs.paths()[p].uids;
          out.concepts = vs.paths()[p].concepts;
        }
        // Per-variable @ bindings keep each path's own interval.
        out.valid = shared_view ? out_row.valid : vs.paths()[p].valid;
      }
    } else {
      for (const SelectItem& item : query.select_items) {
        NEPAL_ASSIGN_OR_RETURN(Value v, eval_expr(item.expr, row));
        out_row.values.push_back(std::move(v));
      }
    }
    result.rows.push_back(std::move(out_row));
    if (options_.max_rows != 0 && result.rows.size() >= options_.max_rows) {
      break;
    }
  }
  if (result_stats != nullptr) {
    result_stats->Record(
        result_stats->AddOp("Materialize"),
        obs::OpSample::Invocation(materialize_rows_in, result.rows.size(),
                                  NowNs() - materialize_start));
  }

  // ---- Row-level dedup / coalescing ----
  // One grouping of the rows by key; when no key repeats the rows stay
  // where they are. Otherwise each key keeps its first row, and under a
  // shared view the rows of one key merge their joint intervals: one row
  // per maximal interval, in place of the key's first row.
  {
    const uint64_t coalesce_start = result_stats != nullptr ? NowNs() : 0;
    const size_t coalesce_rows_in = result.rows.size();
    CoalesceByKey(
        &result.rows, [&](size_t i) { return HashRow(result.rows[i]); },
        [&](size_t a, size_t b) {
          return SameRowKey(result.rows[a], result.rows[b]);
        },
        shared_view,
        [](ResultRow& row, const Interval& iv) {
          row.valid = iv;
          for (Pathway& p : row.paths) p.valid = iv;
        });
    if (result_stats != nullptr) {
      obs::OpSample sample = obs::OpSample::Invocation(
          coalesce_rows_in, result.rows.size(), NowNs() - coalesce_start);
      sample.dedup_dropped = coalesce_rows_in - result.rows.size();
      result_stats->Record(result_stats->AddOp("Coalesce"), sample);
    }
  }

  // ---- Temporal aggregation ----
  if (query.agg != TemporalAgg::kNone) {
    IntervalSet exists;
    for (const ResultRow& row : result.rows) exists.Add(row.valid);
    result.when_exists = exists;
    if (!exists.empty()) {
      if (query.agg == TemporalAgg::kFirstTime) {
        result.agg_time = exists.FirstTime();
      } else if (query.agg == TemporalAgg::kLastTime) {
        result.agg_time = exists.LastTime();
      }
    }
  }

  return result;
}

}  // namespace nepal::nql
