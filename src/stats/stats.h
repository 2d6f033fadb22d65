// GraphStats: incrementally maintained database statistics.
//
// The paper's planner picks anchors with "database statistics if available,
// otherwise schema hints" (Section 5.1). This subsystem is the "statistics"
// half: every write that flows through a StorageBackend updates
//
//   - per-class current-snapshot cardinalities,
//   - per-(node class, direction, edge class) edge totals, giving average
//     and maximum degree (traversal fan-out),
//   - exact per-value counters for scalar fields (predicate selectivity),
//     bounded per field and degraded to cardinality / cap once a field
//     exceeds the distinct-value cap,
//   - version counts per class (history depth: how much wider a historical
//     scan is than a current-snapshot scan).
//
// All hooks are called on the write path, which GraphDb serializes under an
// exclusive lock; reads happen under the shared lock, so no internal
// synchronization is needed. Estimates are over the *current* snapshot —
// historical scaling is applied by the optimizer via HistoryDepth().
//
// Classes are addressed by their pre-order index (ClassDef::order()), so a
// class-subtree aggregate is a contiguous range sum.

#ifndef NEPAL_STATS_STATS_H_
#define NEPAL_STATS_STATS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/value.h"
#include "schema/class_def.h"
#include "schema/schema.h"

namespace nepal::stats {

enum class DegreeDir { kOut = 0, kIn = 1 };

class GraphStats {
 public:
  /// Distinct values tracked per (class, field) before the counter saturates
  /// and the field's equality estimate permanently falls back to
  /// cardinality / kMaxDistinctValues (see EqCount).
  static constexpr size_t kMaxDistinctValues = 1024;

  GraphStats() = default;
  explicit GraphStats(const schema::Schema* schema);

  // ---- Maintenance hooks (write path; caller holds the writer lock) ----

  /// A new element (node or edge) of exactly `cls` became current.
  void OnInsert(const schema::ClassDef* cls, const std::vector<Value>& row);
  /// The current version of a `cls` element was closed without a successor.
  void OnRemove(const schema::ClassDef* cls, const std::vector<Value>& row);
  /// A new version replaced the current one (field update; cardinality is
  /// unchanged, value counters move, version count grows).
  void OnUpdate(const schema::ClassDef* cls, const std::vector<Value>& old_row,
                const std::vector<Value>& new_row);
  /// An edge of exactly `edge_cls` now links source -> target.
  void OnEdgeLinked(const schema::ClassDef* edge_cls, Uid source,
                    const schema::ClassDef* source_cls, Uid target,
                    const schema::ClassDef* target_cls);
  void OnEdgeUnlinked(const schema::ClassDef* edge_cls, Uid source,
                      const schema::ClassDef* source_cls, Uid target,
                      const schema::ClassDef* target_cls);

  // ---- Estimates (read path) ----

  /// Current-snapshot cardinality of the class subtree.
  double Cardinality(const schema::ClassDef* cls) const;

  /// The equality estimate: the number of current rows in the `cls`
  /// subtree whose field `field_index` equals `v`. Exact for every class
  /// whose counter tracks the field; a class whose counter saturated holds
  /// more than kMaxDistinctValues distinct values, so it adds its
  /// cardinality / kMaxDistinctValues. Nullopt when the statistic is
  /// unavailable (no schema bound, or `v` is not a trackable scalar). The
  /// optimizer's selectivities and pushdown choice and the backends' scan
  /// estimates all read this one figure.
  std::optional<double> EqCount(const schema::ClassDef* cls, int field_index,
                                const Value& v) const;

  /// Average number of `edge_cls`-subtree edges per current `node_cls`
  /// element in the given direction (kOut: edges whose source is the node).
  double AvgDegree(const schema::ClassDef* node_cls, DegreeDir dir,
                   const schema::ClassDef* edge_cls) const;

  /// High-water mark of the per-node degree (never decremented; an upper
  /// bound usable for worst-case fan-out).
  uint64_t MaxDegree(const schema::ClassDef* node_cls, DegreeDir dir,
                     const schema::ClassDef* edge_cls) const;

  /// Total current `edge_cls`-subtree edges from the `node_cls` subtree.
  uint64_t EdgeCount(const schema::ClassDef* node_cls, DegreeDir dir,
                     const schema::ClassDef* edge_cls) const;

  /// Versions stored per current element of the subtree (>= 1 once any row
  /// exists): how much a historical view widens a scan of this class.
  double HistoryDepth(const schema::ClassDef* cls) const;

  /// Total versions ever opened for the subtree (current + history).
  uint64_t VersionCount(const schema::ClassDef* cls) const;

  bool bound() const { return schema_ != nullptr; }
  const schema::Schema* schema() const { return schema_; }

  /// One line per non-empty class: cardinality, versions, degree totals.
  std::string ToString() const;

  // ---- Checkpoint codec (see src/persist) ----

  /// Appends an exact, deterministic binary snapshot of every maintained
  /// statistic (unordered maps are written in sorted key order, so equal
  /// stats always serialize to equal bytes). Deserializing it yields a
  /// GraphStats whose every estimate — EstimateScan inputs included — is
  /// identical to the live-maintained one, without replaying any element.
  void SerializeTo(std::string* out) const;
  /// Inverse of SerializeTo against the same schema. Fails with Corruption
  /// on truncation, version mismatch, or a class-count mismatch (the blob
  /// belongs to a different schema).
  static Result<GraphStats> DeserializeFrom(const schema::Schema* schema,
                                            std::string_view data);

 private:
  struct FieldCounter {
    std::unordered_map<Value, uint64_t, ValueHash> counts;
    bool saturated = false;
  };

  static bool Trackable(const Value& v);
  FieldCounter* CounterFor(int order, int field_index, bool create);
  const FieldCounter* CounterFor(int order, int field_index) const;
  void CountValue(const schema::ClassDef* cls, int field_index,
                  const Value& v, int64_t delta);
  void BumpDegree(Uid node, const schema::ClassDef* node_cls,
                  const schema::ClassDef* edge_cls, DegreeDir dir,
                  int64_t delta);
  size_t Cell(int node_order, int edge_order, DegreeDir dir) const {
    return (static_cast<size_t>(node_order) * num_orders_ +
            static_cast<size_t>(edge_order)) *
               2 +
           static_cast<size_t>(dir);
  }

  const schema::Schema* schema_ = nullptr;
  size_t num_orders_ = 0;

  // Indexed by ClassDef::order().
  std::vector<uint64_t> current_;
  std::vector<uint64_t> versions_;

  // Dense (node order x edge order x dir) matrices; subtree aggregates are
  // rectangle sums. Sized num_orders_^2 * 2 (class counts are small).
  std::vector<uint64_t> degree_totals_;
  std::vector<uint64_t> degree_max_;

  // Per-node degree counters feeding the max watermark.
  // Key: (uid << 21) | (edge order << 1) | dir  (uids are sequential).
  std::unordered_map<uint64_t, uint64_t> node_degrees_;

  // Key: (order << 12) | field index.
  std::unordered_map<uint64_t, FieldCounter> field_counters_;
};

}  // namespace nepal::stats

#endif  // NEPAL_STATS_STATS_H_
