#include "relational/relational_store.h"

#include <algorithm>

#include "relational/sql_executor.h"

namespace nepal::relational {

using storage::Direction;
using storage::ElementSink;
using storage::ElementVersion;
using storage::ScanSpec;
using storage::TimeView;

RelationalStore::RelationalStore(schema::SchemaPtr schema,
                                 RelationalStoreOptions options)
    : StorageBackend(schema.get()),
      schema_(std::move(schema)),
      options_(std::move(options)) {
  current_.resize(schema_->classes().size());
  history_.resize(schema_->classes().size());
  for (const schema::ClassDef* cls : schema_->classes()) {
    current_[static_cast<size_t>(cls->order())] =
        std::make_unique<Table>(cls, /*is_history=*/false,
                                options_.indexed_fields);
    history_[static_cast<size_t>(cls->order())] =
        std::make_unique<Table>(cls, /*is_history=*/true,
                                options_.indexed_fields);
  }
}

Status RelationalStore::InsertCommon(Uid uid, ElementVersion v, Timestamp t) {
  auto [it, inserted] = uid_registry_.emplace(uid, v.cls);
  if (!inserted) {
    return Status::AlreadyExists("uid " + std::to_string(uid) +
                                 " already registered");
  }
  v.valid = Interval{t, kTimestampMax};
  v.birth_epoch = write_epoch_;
  v.close_epoch = storage::kEpochMax;
  const schema::ClassDef* cls = v.cls;
  Uid source = v.source;
  Uid target = v.target;
  Status st = CurrentTable(v.cls).Insert(std::move(v));
  if (!st.ok()) {
    uid_registry_.erase(uid);
    return st;
  }
  CurrentTable(cls).ForEachById(
      uid, [&](const ElementVersion& cur) { stats_.OnInsert(cls, cur.fields); });
  if (cls->is_edge()) {
    stats_.OnEdgeLinked(cls, source, RegisteredClassOf(source), target,
                        RegisteredClassOf(target));
  }
  return st;
}

Status RelationalStore::InsertNode(Uid uid, const schema::ClassDef* cls,
                                   std::vector<Value> row, Timestamp t) {
  ElementVersion v;
  v.uid = uid;
  v.cls = cls;
  v.fields = std::move(row);
  return InsertCommon(uid, std::move(v), t);
}

Status RelationalStore::InsertEdge(Uid uid, const schema::ClassDef* cls,
                                   std::vector<Value> row, Uid source,
                                   Uid target, Timestamp t) {
  ElementVersion v;
  v.uid = uid;
  v.cls = cls;
  v.fields = std::move(row);
  v.source = source;
  v.target = target;
  return InsertCommon(uid, std::move(v), t);
}

Status RelationalStore::Update(Uid uid,
                               const std::vector<std::pair<int, Value>>&
                                   changes,
                               Timestamp t) {
  auto it = uid_registry_.find(uid);
  if (it == uid_registry_.end()) {
    return Status::NotFound("uid " + std::to_string(uid) + " not registered");
  }
  Table& table = CurrentTable(it->second);
  NEPAL_ASSIGN_OR_RETURN(ElementVersion old_row, table.Remove(uid));
  ElementVersion new_row = old_row;
  for (const auto& [idx, value] : changes) {
    new_row.fields[static_cast<size_t>(idx)] = value;
  }
  new_row.valid = Interval{t, kTimestampMax};
  new_row.birth_epoch = write_epoch_;
  new_row.close_epoch = storage::kEpochMax;
  old_row.valid.end = t;
  old_row.close_epoch = write_epoch_;
  stats_.OnUpdate(it->second, old_row.fields, new_row.fields);
  // A row opened and replaced at the same instant stays as a zero-length
  // history row: only epoch-pinned reads between the two commits see it.
  NEPAL_RETURN_NOT_OK(HistoryTable(it->second).Insert(std::move(old_row)));
  return table.Insert(std::move(new_row));
}

Status RelationalStore::Delete(Uid uid, Timestamp t) {
  auto it = uid_registry_.find(uid);
  if (it == uid_registry_.end()) {
    return Status::NotFound("uid " + std::to_string(uid) + " not registered");
  }
  NEPAL_ASSIGN_OR_RETURN(ElementVersion old_row,
                         CurrentTable(it->second).Remove(uid));
  old_row.valid.end = t;
  old_row.close_epoch = write_epoch_;
  stats_.OnRemove(it->second, old_row.fields);
  if (old_row.is_edge()) {
    stats_.OnEdgeUnlinked(it->second, old_row.source,
                          RegisteredClassOf(old_row.source), old_row.target,
                          RegisteredClassOf(old_row.target));
  }
  return HistoryTable(it->second).Insert(std::move(old_row));
}

Status RelationalStore::RestoreChain(Uid uid,
                                     std::vector<ElementVersion> chain) {
  if (chain.empty()) {
    return Status::Corruption("checkpoint chain for uid " +
                              std::to_string(uid) + " is empty");
  }
  const schema::ClassDef* cls = chain.front().cls;
  auto [it, inserted] = uid_registry_.emplace(uid, cls);
  if (!inserted) {
    return Status::Corruption("checkpoint restores uid " +
                              std::to_string(uid) + " twice");
  }
  for (ElementVersion& v : chain) {
    if (v.uid != uid || v.cls != cls) {
      return Status::Corruption("inconsistent checkpoint chain for uid " +
                                std::to_string(uid));
    }
    // Restored versions predate every snapshot epoch.
    v.birth_epoch = 0;
    v.close_epoch = v.is_current() ? storage::kEpochMax : 0;
    pending_restore_.push_back(std::move(v));
  }
  return Status::OK();
}

// Re-derives the row order live execution produced. Current tables hold
// rows in the order their open version was created (an UPDATE retires the
// old row and appends the replacement); history tables hold rows in
// retirement order. Both are recovered by sorting the staged versions on
// the corresponding event timestamp, with uid breaking ties the way
// monotone allocation ordered same-instant operations.
Status RelationalStore::FinishRestore() {
  std::vector<ElementVersion> staged;
  staged.swap(pending_restore_);
  std::stable_sort(staged.begin(), staged.end(),
                   [](const ElementVersion& a, const ElementVersion& b) {
                     const Timestamp ea =
                         a.is_current() ? a.valid.start : a.valid.end;
                     const Timestamp eb =
                         b.is_current() ? b.valid.start : b.valid.end;
                     if (ea != eb) return ea < eb;
                     if (a.uid != b.uid) return a.uid < b.uid;
                     return a.valid.start < b.valid.start;
                   });
  for (ElementVersion& v : staged) {
    Table& table = v.is_current() ? CurrentTable(v.cls) : HistoryTable(v.cls);
    NEPAL_RETURN_NOT_OK(table.Insert(std::move(v)));
  }
  return Status::OK();
}

std::vector<const Table*> RelationalStore::SubtreeTables(
    const schema::ClassDef* cls, bool history) const {
  std::vector<const Table*> tables;
  const auto& side = history ? history_ : current_;
  for (int order = cls->order(); order < cls->subtree_end(); ++order) {
    tables.push_back(side[static_cast<size_t>(order)].get());
  }
  return tables;
}

void RelationalStore::Scan(const ScanSpec& spec, const TimeView& view,
                           const ElementSink& sink) const {
  if (spec.uid) {
    Get(*spec.uid, view, [&](const ElementVersion& v) {
      if (spec.Matches(v)) sink(v);
    });
    return;
  }
  auto emit = [&](const ElementVersion& v) {
    if (spec.Matches(v)) view.Emit(v, sink);
  };
  auto scan_table = [&](const Table& table) {
    if (spec.eq) {
      const std::string& field =
          spec.cls->fields()[static_cast<size_t>(spec.eq->first)].name;
      if (table.ForEachByField(field, spec.eq->second, emit)) return;
    }
    table.ScanAll(emit);
  };
  for (const Table* table : SubtreeTables(spec.cls, /*history=*/false)) {
    scan_table(*table);
  }
  if (view.includes_closed()) {
    for (const Table* table : SubtreeTables(spec.cls, /*history=*/true)) {
      scan_table(*table);
    }
  }
}

void RelationalStore::Get(Uid uid, const TimeView& view,
                          const ElementSink& sink) const {
  auto it = uid_registry_.find(uid);
  if (it == uid_registry_.end()) return;
  auto emit = [&](const ElementVersion& v) { view.Emit(v, sink); };
  current_[static_cast<size_t>(it->second->order())]->ForEachById(uid, emit);
  if (view.includes_closed()) {
    history_[static_cast<size_t>(it->second->order())]->ForEachById(uid, emit);
  }
}

void RelationalStore::IncidentEdges(Uid node, Direction dir,
                                    const schema::ClassDef* edge_cls,
                                    const TimeView& view,
                                    const ElementSink& sink) const {
  if (edge_cls == nullptr) edge_cls = schema_->edge_root();
  auto emit = [&](const ElementVersion& v) { view.Emit(v, sink); };
  auto probe = [&](const Table& table) {
    if (dir == Direction::kOut || dir == Direction::kBoth) {
      table.ForEachBySource(node, emit);
    }
    if (dir == Direction::kIn || dir == Direction::kBoth) {
      table.ForEachByTarget(node, emit);
    }
  };
  for (const Table* table : SubtreeTables(edge_cls, /*history=*/false)) {
    probe(*table);
  }
  if (view.includes_closed()) {
    for (const Table* table : SubtreeTables(edge_cls, /*history=*/true)) {
      probe(*table);
    }
  }
}

bool RelationalStore::Exists(Uid uid, const TimeView& view) const {
  bool found = false;
  Get(uid, view, [&](const ElementVersion&) { found = true; });
  return found;
}

size_t RelationalStore::CountClass(const schema::ClassDef* cls) const {
  size_t count = 0;
  for (const Table* table : SubtreeTables(cls, /*history=*/false)) {
    count += table->row_count();
  }
  return count;
}

size_t RelationalStore::MemoryUsage() const {
  size_t bytes = sizeof(RelationalStore);
  for (const auto& table : current_) bytes += table->MemoryUsage();
  for (const auto& table : history_) bytes += table->MemoryUsage();
  bytes += uid_registry_.size() * (sizeof(Uid) + sizeof(void*)) * 2;
  return bytes;
}

size_t RelationalStore::VersionCount() const {
  size_t count = 0;
  for (const auto& table : current_) count += table->row_count();
  for (const auto& table : history_) count += table->row_count();
  return count;
}

std::unique_ptr<storage::PathOperatorExecutor> RelationalStore::CreateExecutor()
    const {
  return std::make_unique<SqlBulkExecutor>(this);
}

std::string RelationalStore::ToCreateSql() const {
  std::string sql;
  for (const schema::ClassDef* cls : schema_->classes()) {
    sql += current_[static_cast<size_t>(cls->order())]->ToCreateSql();
    sql += "\n";
    sql += history_[static_cast<size_t>(cls->order())]->ToCreateSql();
    sql += "\n";
  }
  return sql;
}

}  // namespace nepal::relational
