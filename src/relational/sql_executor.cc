#include "relational/sql_executor.h"

namespace nepal::relational {

using storage::CompiledAtom;
using storage::Direction;
using storage::ElementVersion;
using storage::PathSet;
using storage::PathState;
using storage::TimeView;
using storage::TryAppendElement;

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

SqlBulkExecutor::FrontierIndex SqlBulkExecutor::BuildFrontierIndex(
    const PathSet& frontier) {
  FrontierIndex index;
  index.reserve(frontier.size());
  for (size_t i = 0; i < frontier.size(); ++i) {
    index[frontier[i].frontier].push_back(i);
  }
  return index;
}

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

PathSet SqlBulkExecutor::MaterializeFrontiers(const PathSet& frontier,
                                              const TimeView& view,
                                              const CompiledAtom* node_atom) {
  PathSet out;
  out.reserve(frontier.size());
  for (const PathState& state : frontier) {
    if (state.frontier_in_path) {
      if (node_atom == nullptr) out.push_back(state);
      continue;
    }
    store_->Get(state.frontier, view, [&](const ElementVersion& v) {
      if (node_atom != nullptr && !node_atom->Matches(v)) return;
      PathState next;
      if (!TryAppendElement(state, v, &next)) return;
      next.frontier = v.uid;
      next.frontier_in_path = true;
      out.push_back(std::move(next));
    });
  }
  return out;
}

void SqlBulkExecutor::EdgeJoin(const PathSet& frontier,
                               const CompiledAtom& atom, Direction dir,
                               const TimeView& view, PathSet* out) {
  FrontierIndex index = BuildFrontierIndex(frontier);
  const bool forward = dir == Direction::kOut;

  auto join_row = [&](const ElementVersion& raw) {
    if (!atom.Matches(raw)) return;
    // Emit patches epoch-open intervals so TryAppendElement's running
    // interval intersection sees what a locked read at the snapshot would.
    view.Emit(raw, [&](const ElementVersion& e) {
      Uid join_key = forward ? e.source : e.target;
      auto it = index.find(join_key);
      if (it == index.end()) return;
      for (size_t state_idx : it->second) {
        const PathState& state = frontier[state_idx];
        Uid far = forward ? e.target : e.source;
        if (state.Contains(far)) continue;
        PathState next;
        if (!TryAppendElement(state, e, &next)) continue;
        next.frontier = far;
        next.frontier_in_path = false;
        out->push_back(std::move(next));
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
    if (table->row_count() <= frontier.size()) {
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
  if (atom.is_edge()) {
    // Promote post-edge states by materializing the implicit node, then run
    // one bulk edge join for the whole frontier. (MaterializeFrontiers
    // passes in-path states through unchanged.)
    PathSet in_path = MaterializeFrontiers(frontier, view, nullptr);
    EdgeJoin(in_path, atom, dir, view, &out);
    return out;
  }

  // Node atom. Post-edge states: the frontier node itself must match.
  PathSet matched = MaterializeFrontiers(frontier, view, &atom);
  out.insert(out.end(), matched.begin(), matched.end());

  // In-path states: implicit edge join, then node join on the far endpoint.
  PathSet in_path;
  for (const PathState& state : frontier) {
    if (state.frontier_in_path) in_path.push_back(state);
  }
  if (in_path.empty()) return out;
  CompiledAtom any_edge;
  any_edge.cls = store_->schema().edge_root();
  PathSet after_edge;
  EdgeJoin(in_path, any_edge, dir, view, &after_edge);
  // Node join: probe the uid registry / id index of the atom's subtree.
  PathSet node_joined = MaterializeFrontiers(after_edge, view, &atom);
  out.insert(out.end(), node_joined.begin(), node_joined.end());
  return out;
}

PathSet SqlBulkExecutor::FinalizeTail(const PathSet& frontier,
                                      const TimeView& view) {
  return MaterializeFrontiers(frontier, view, nullptr);
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
