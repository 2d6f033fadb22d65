#include "relational/table.h"

namespace nepal::relational {

using storage::ElementSink;
using storage::ElementVersion;

Table::Table(const schema::ClassDef* cls, bool is_history,
             const std::vector<std::string>& indexed_fields)
    : cls_(cls),
      is_history_(is_history),
      sql_name_(is_history ? cls->name() + "__history" : cls->name()) {
  for (const std::string& field : indexed_fields) {
    if (cls->FieldIndex(field) >= 0) {
      field_indexes_[field];  // create the (empty) index
    }
  }
}

void Table::IndexRow(size_t pos) {
  const ElementVersion& row = rows_[pos];
  if (is_history_) {
    by_id_multi_[row.uid].push_back(pos);
  } else {
    by_id_[row.uid] = pos;
  }
  if (row.is_edge()) {
    by_source_[row.source].push_back(pos);
    by_target_[row.target].push_back(pos);
  }
  for (auto& [field, index] : field_indexes_) {
    int idx = cls_->FieldIndex(field);
    const Value& v = row.fields[static_cast<size_t>(idx)];
    if (!v.is_null()) index[v].push_back(pos);
  }
}

Status Table::Insert(ElementVersion row) {
  if (row.cls != cls_) {
    return Status::Internal("row of class " + row.cls->name() +
                            " inserted into table " + sql_name_);
  }
  if (is_history_ == row.is_current()) {
    return Status::Internal(std::string("validity interval is ") +
                            (row.is_current() ? "open" : "closed") +
                            " for table " + sql_name_);
  }
  if (!is_history_ && by_id_.count(row.uid)) {
    return Status::AlreadyExists("duplicate uid " + std::to_string(row.uid) +
                                 " in table " + sql_name_);
  }
  if (!row.valid.empty()) ++live_count_;
  rows_.push_back(std::move(row));
  live_.push_back(true);
  IndexRow(rows_.size() - 1);
  return Status::OK();
}

Result<ElementVersion> Table::Remove(Uid uid) {
  if (is_history_) {
    return Status::Internal("Remove on history table " + sql_name_);
  }
  auto it = by_id_.find(uid);
  if (it == by_id_.end() || !live_[it->second]) {
    return Status::NotFound("uid " + std::to_string(uid) + " not in table " +
                            sql_name_);
  }
  size_t pos = it->second;
  live_[pos] = false;
  --live_count_;
  by_id_.erase(it);
  // Positional entries in the secondary indexes are left in place;
  // readers re-validate liveness and key equality on probe.
  return rows_[pos];
}

void Table::ScanAll(const ElementSink& sink) const {
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (live_[i]) sink(rows_[i]);
  }
}

const ElementVersion* Table::FindById(Uid uid) const {
  auto it = by_id_.find(uid);
  if (it == by_id_.end() || !live_[it->second]) return nullptr;
  return &rows_[it->second];
}

void Table::ForEachById(Uid uid, const ElementSink& sink) const {
  if (!is_history_) {
    if (const ElementVersion* row = FindById(uid)) sink(*row);
    return;
  }
  auto it = by_id_multi_.find(uid);
  if (it == by_id_multi_.end()) return;
  for (size_t pos : it->second) {
    if (live_[pos]) sink(rows_[pos]);
  }
}

void Table::ForEachBySource(Uid source, const ElementSink& sink) const {
  auto it = by_source_.find(source);
  if (it == by_source_.end()) return;
  for (size_t pos : it->second) {
    if (live_[pos] && rows_[pos].source == source) sink(rows_[pos]);
  }
}

void Table::ForEachByTarget(Uid target, const ElementSink& sink) const {
  auto it = by_target_.find(target);
  if (it == by_target_.end()) return;
  for (size_t pos : it->second) {
    if (live_[pos] && rows_[pos].target == target) sink(rows_[pos]);
  }
}

bool Table::ForEachByField(const std::string& field, const Value& value,
                           const storage::ElementSink& sink) const {
  auto field_it = field_indexes_.find(field);
  if (field_it == field_indexes_.end()) return false;
  auto val_it = field_it->second.find(value);
  if (val_it == field_it->second.end()) return true;
  int idx = cls_->FieldIndex(field);
  for (size_t pos : val_it->second) {
    if (live_[pos] && rows_[pos].fields[static_cast<size_t>(idx)] == value) {
      sink(rows_[pos]);
    }
  }
  return true;
}

size_t Table::IndexBucketSize(const std::string& field,
                              const Value& value) const {
  auto field_it = field_indexes_.find(field);
  if (field_it == field_indexes_.end()) return 0;
  auto val_it = field_it->second.find(value);
  return val_it == field_it->second.end() ? 0 : val_it->second.size();
}

size_t Table::MemoryUsage() const {
  size_t bytes = sizeof(Table);
  for (const ElementVersion& row : rows_) {
    bytes += sizeof(ElementVersion) + sizeof(bool);
    for (const Value& v : row.fields) bytes += v.MemoryUsage();
  }
  bytes += by_id_.size() * (sizeof(Uid) + sizeof(size_t) * 2);
  for (const auto& [k, v] : by_id_multi_) {
    bytes += sizeof(Uid) + v.capacity() * sizeof(size_t);
  }
  for (const auto& [k, v] : by_source_) {
    bytes += sizeof(Uid) + v.capacity() * sizeof(size_t);
  }
  for (const auto& [k, v] : by_target_) {
    bytes += sizeof(Uid) + v.capacity() * sizeof(size_t);
  }
  return bytes;
}

std::string Table::ToCreateSql() const {
  std::string sql = "CREATE TABLE " + sql_name_ + " (id_ bigint";
  if (cls_->is_edge()) sql += ", source_id_ bigint, target_id_ bigint";
  for (size_t i = cls_->inherited_field_count(); i < cls_->fields().size();
       ++i) {
    const schema::FieldDef& f = cls_->fields()[i];
    sql += ", " + f.name + " " + f.type.ToString();
  }
  sql += ", sys_period tstzrange)";
  if (!cls_->is_root()) {
    sql += " INHERITS(" + cls_->parent()->name() +
           (is_history_ ? "__history)" : ")");
  }
  sql += ";";
  return sql;
}

}  // namespace nepal::relational
