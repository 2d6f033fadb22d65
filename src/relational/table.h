// Table: one relation of the mini relational engine.
//
// The relational backend materializes the paper's Postgres layout: one
// current table per node/edge class plus one __history table (the
// temporal_tables pattern), with class inheritance realized as
// INHERITS-style subtree scans. Edge tables carry source_id_/target_id_
// columns with hash indexes, which the bulk-join Extend operators probe.

#ifndef NEPAL_RELATIONAL_TABLE_H_
#define NEPAL_RELATIONAL_TABLE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/element.h"

namespace nepal::relational {

class Table {
 public:
  Table(const schema::ClassDef* cls, bool is_history,
        const std::vector<std::string>& indexed_fields);

  const schema::ClassDef* cls() const { return cls_; }
  bool is_history() const { return is_history_; }
  /// SQL-level name: "VM" or "VM__history".
  const std::string& sql_name() const { return sql_name_; }

  /// Number of live rows with a non-empty validity interval. A history
  /// table also stores zero-length rows (closed at the instant they
  /// opened) for epoch-pinned reads; they count for nothing else.
  size_t row_count() const { return live_count_; }

  /// Appends a row. Current tables require an open validity interval;
  /// history tables a closed one.
  Status Insert(storage::ElementVersion row);

  /// Tombstones the row with this uid (current tables only) and returns it.
  Result<storage::ElementVersion> Remove(Uid uid);

  /// Emits every live row (no predicate; callers filter).
  void ScanAll(const storage::ElementSink& sink) const;

  /// Current tables: the row with `uid`, or nullptr.
  const storage::ElementVersion* FindById(Uid uid) const;
  /// History tables: every version of `uid`.
  void ForEachById(Uid uid, const storage::ElementSink& sink) const;

  void ForEachBySource(Uid source, const storage::ElementSink& sink) const;
  void ForEachByTarget(Uid target, const storage::ElementSink& sink) const;

  /// Probes the hash index on `field` (if built) for rows with `value`.
  /// Returns false if the field is not indexed on this table.
  bool ForEachByField(const std::string& field, const Value& value,
                      const storage::ElementSink& sink) const;
  bool HasFieldIndex(const std::string& field) const {
    return field_indexes_.count(field) > 0;
  }
  /// Index bucket size (statistics for anchor costing); 0 if not indexed.
  size_t IndexBucketSize(const std::string& field, const Value& value) const;

  size_t MemoryUsage() const;

  /// "CREATE TABLE VM (...) INHERITS(Container);" — documentation rendering
  /// matching the paper's schema-generation examples.
  std::string ToCreateSql() const;

 private:
  void IndexRow(size_t pos);

  const schema::ClassDef* cls_;
  bool is_history_;
  std::string sql_name_;
  std::vector<storage::ElementVersion> rows_;
  std::vector<bool> live_;
  size_t live_count_ = 0;
  std::unordered_map<Uid, size_t> by_id_;                 // current tables
  std::unordered_map<Uid, std::vector<size_t>> by_id_multi_;  // history
  std::unordered_map<Uid, std::vector<size_t>> by_source_;
  std::unordered_map<Uid, std::vector<size_t>> by_target_;
  std::unordered_map<std::string,
                     std::unordered_map<Value, std::vector<size_t>, ValueHash>>
      field_indexes_;
};

}  // namespace nepal::relational

#endif  // NEPAL_RELATIONAL_TABLE_H_
