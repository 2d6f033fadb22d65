#include "relational/sql_executor.h"

#include <array>
#include <optional>
#include <unordered_map>

namespace nepal::relational {

using storage::CompiledAtom;
using storage::Direction;
using storage::ElementVersion;
using storage::ExtendedState;
using storage::PathSet;
using storage::PathState;
using storage::TimeView;

namespace {

std::string TableRef(const Table& table, const TimeView& view) {
  // Historical reads go through the current UNION history view.
  return view.needs_history() ? table.cls()->name() + "__historical"
                              : table.sql_name();
}

std::string ViewSql(const TimeView& view) {
  switch (view.kind()) {
    case TimeView::Kind::kCurrent:
      return "";
    case TimeView::Kind::kAsOf:
      return " AND H.sys_period @> '" + FormatTimestamp(view.range().start) +
             "'::timestamptz";
    case TimeView::Kind::kRange:
      return " AND H.sys_period && tstzrange('" +
             FormatTimestamp(view.range().start) + "', '" +
             FormatTimestamp(view.range().end) + "')";
  }
  return "";
}

}  // namespace

PathSet SqlBulkExecutor::Select(const CompiledAtom& atom,
                                const TimeView& view) {
  PathSet out;
  store_->Scan(atom.ToScanSpec(), view, [&](const ElementVersion& v) {
    out.push_back(storage::AnchorState(v));
  });
  return out;
}

PathSet SqlBulkExecutor::SelectSeeds(const std::vector<Uid>& nodes,
                                     const TimeView& /*view*/) {
  return storage::SeedStates(nodes);
}

// Every extension below checks first and copies last (see ExtendedState):
// a path is built only once all of its cycle checks and its interval
// intersection have passed on the parent state.

void SqlBulkExecutor::MaterializeFrontiers(const PathSet& frontier,
                                           storage::FrontierReads& reads,
                                           bool keep_in_path,
                                           PathSet* out) const {
  for (const PathState& state : frontier) {
    if (!state.frontier_in_path) {
      reads.AppendFrontierNode(state, out);
    } else if (keep_in_path) {
      out->push_back(state);
    }
  }
}

std::vector<SqlBulkExecutor::JoinInput> SqlBulkExecutor::EdgeJoinInputs(
    const PathSet& frontier, storage::FrontierReads& reads) const {
  std::vector<JoinInput> inputs;
  inputs.reserve(frontier.size());
  for (size_t i = 0; i < frontier.size(); ++i) {
    const PathState& state = frontier[i];
    if (state.frontier_in_path) {
      inputs.push_back({i, {}, state.valid});
      continue;
    }
    if (state.Contains(state.frontier)) continue;
    for (const storage::FrontierReads::NodeVersion& v :
         reads.Versions(reads.Group(state.frontier))) {
      const Interval iv = state.valid.Intersect(v.valid);
      if (iv.empty()) continue;
      inputs.push_back({i, {state.frontier, v.cls}, iv});
    }
  }
  return inputs;
}

template <typename Emit>
void SqlBulkExecutor::EdgeJoin(const PathSet& frontier,
                               const std::vector<JoinInput>& inputs,
                               const CompiledAtom& atom, Direction dir,
                               const TimeView& view, const Emit& emit) const {
  // Inputs grouped by frontier uid. The keys, their first-insertion order
  // and the reserve are those of a map over the materialized inputs, so the
  // index join below walks the uids in the same order as one would.
  std::unordered_map<Uid, std::vector<size_t>> index;
  index.reserve(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    index[frontier[inputs[i].state].frontier].push_back(i);
  }
  const bool forward = dir == Direction::kOut;

  auto join_row = [&](const ElementVersion& raw) {
    if (!atom.Matches(raw)) return;
    // Emit patches epoch-open intervals so the running interval
    // intersection sees what a locked read at the snapshot would.
    view.Emit(raw, [&](const ElementVersion& e) {
      auto it = index.find(forward ? e.source : e.target);
      if (it == index.end()) return;
      const Uid far = forward ? e.target : e.source;
      for (size_t input_idx : it->second) {
        const JoinInput& input = inputs[input_idx];
        const Interval iv =
            storage::EdgeStepValid(frontier[input.state],
                                   std::array{input.node.uid}, input.valid,
                                   e.uid, far, e.valid);
        if (iv.empty()) continue;
        emit(input, e, far, iv);
      }
    });
  };

  std::vector<const Table*> tables =
      store_->SubtreeTables(atom.cls, /*history=*/false);
  if (view.includes_closed()) {
    auto hist = store_->SubtreeTables(atom.cls, /*history=*/true);
    tables.insert(tables.end(), hist.begin(), hist.end());
  }
  for (const Table* table : tables) {
    if (table->row_count() <= inputs.size()) {
      // Hash join: build over the frontier, probe with the stored rows.
      table->ScanAll(join_row);
    } else {
      // Index join: probe the source/target hash index per frontier uid.
      for (const auto& [uid, states] : index) {
        if (forward) {
          table->ForEachBySource(uid, join_row);
        } else {
          table->ForEachByTarget(uid, join_row);
        }
      }
    }
  }
}

PathSet SqlBulkExecutor::ExtendAtom(const PathSet& frontier,
                                    const CompiledAtom& atom, Direction dir,
                                    const TimeView& view) {
  PathSet out;
  storage::FrontierReads reads(*store_, &atom, dir, view);
  if (atom.is_edge()) {
    // One bulk edge join for the whole frontier; a state whose frontier is
    // not yet in its path gets the implicit node in the same copy. In a
    // goal-directed Loop's round, `round` first drops the children the
    // Loop cannot use.
    std::optional<storage::RoundReads> round;
    if (atom.round_filter != nullptr) {
      round.emplace(*store_, *atom.round_filter, dir, view);
    }
    EdgeJoin(frontier, EdgeJoinInputs(frontier, reads), atom, dir, view,
             [&](const JoinInput& input, const ElementVersion& e, Uid far,
                 const Interval& iv) {
               const PathState& state = frontier[input.state];
               if (round && !round->Keeps(state, input.node.uid, e.uid, far,
                                          iv)) {
                 return;
               }
               out.push_back(ExtendedState(state, input.node, {e.uid, e.cls},
                                           iv, far, false));
             });
    return out;
  }

  // Node atom. Post-edge states: the frontier node itself must match.
  MaterializeFrontiers(frontier, reads, /*keep_in_path=*/false, &out);

  // In-path states: implicit edge join, then node join on the far endpoint;
  // the edge and the node are appended in one copy.
  std::vector<JoinInput> inputs;
  for (size_t i = 0; i < frontier.size(); ++i) {
    if (frontier[i].frontier_in_path) {
      inputs.push_back({i, {}, frontier[i].valid});
    }
  }
  if (inputs.empty()) return out;
  CompiledAtom any_edge;
  any_edge.cls = store_->schema().edge_root();
  struct EdgeHop {
    size_t state;
    storage::PathElement edge;
    Uid far;
    Interval valid;
  };
  std::vector<EdgeHop> hops;
  EdgeJoin(frontier, inputs, any_edge, dir, view,
           [&](const JoinInput& input, const ElementVersion& e, Uid far,
               const Interval& iv) {
             hops.push_back({input.state, {e.uid, e.cls}, far, iv});
           });
  // Node join: probe the uid registry / id index of the atom's subtree,
  // once per distinct far endpoint.
  for (const EdgeHop& hop : hops) {
    if (hop.far == hop.edge.uid) continue;
    for (const storage::FrontierReads::NodeVersion& v :
         reads.Versions(reads.Group(hop.far))) {
      const Interval iv = hop.valid.Intersect(v.valid);
      if (iv.empty()) continue;
      out.push_back(ExtendedState(frontier[hop.state], hop.edge,
                                  {hop.far, v.cls}, iv, hop.far, true));
    }
  }
  return out;
}

PathSet SqlBulkExecutor::FinalizeTail(const PathSet& frontier,
                                      const TimeView& view) {
  PathSet out;
  out.reserve(frontier.size());
  storage::FrontierReads reads(*store_, nullptr, Direction::kOut, view);
  MaterializeFrontiers(frontier, reads, /*keep_in_path=*/true, &out);
  return out;
}

std::vector<std::string> SqlBulkExecutor::ToSql(const CompiledAtom& atom,
                                                Direction dir,
                                                const TimeView& view,
                                                int input, int output) const {
  std::string preds;
  for (const storage::FieldCondition& cond : atom.conditions) {
    preds += " AND H." + cond.ToString();
  }
  const std::string create =
      "create TEMP table tmp_" + std::to_string(output) + " as (";
  const std::vector<const Table*> tables =
      store_->SubtreeTables(atom.cls, /*history=*/false);
  if (input == 0) {
    // Select: one scan over the atom's subtree tables.
    std::string from;
    for (const Table* table : tables) {
      if (!from.empty()) from += " UNION ALL select ... from ";
      from += TableRef(*table, view);
    }
    return {create + "select ARRAY[H.id_] as uid_list, ARRAY[cast('" +
            atom.cls->name() +
            "' as text)] as concept_list, H.id_ as curr_uid from " + from +
            " H where true" + preds + ViewSql(view) + ");"};
  }
  // Extend: a navigation join of the input paths against each subtree
  // table. Edge tables join on the near endpoint and move the frontier to
  // the far one; node tables join on the frontier node itself.
  const bool forward = dir == Direction::kOut;
  const std::string near =
      !atom.is_edge() ? "H.id_" : forward ? "H.source_id_" : "H.target_id_";
  const std::string far =
      !atom.is_edge() ? "H.id_" : forward ? "H.target_id_" : "H.source_id_";
  std::vector<std::string> sql;
  for (const Table* table : tables) {
    std::string line =
        (sql.empty() ? create : "  UNION ALL ") +
        "select T.uid_list || ARRAY[H.id_] as uid_list, "
        "T.concept_list || ARRAY[cast('" +
        table->cls()->name() + "' as text)] as concept_list, " + far +
        " as curr_uid from " + TableRef(*table, view) + " H, tmp_" +
        std::to_string(input) + " T where " + near +
        " = T.curr_uid AND NOT H.id_ = ANY(T.uid_list)";
    if (atom.is_edge()) line += " AND NOT " + far + " = ANY(T.uid_list)";
    sql.push_back(line + preds + ViewSql(view));
  }
  sql.back() += ");";
  return sql;
}

}  // namespace nepal::relational
