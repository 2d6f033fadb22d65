#include "stats/stats.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "common/binary.h"

namespace nepal::stats {

namespace {

// Orders are pre-order indexes < number of classes; 12 bits cover 4096
// classes, far beyond any Nepal schema (the paper's largest has ~100).
constexpr int kFieldKeyBits = 12;

uint64_t FieldKey(int order, int field_index) {
  return (static_cast<uint64_t>(order) << kFieldKeyBits) |
         static_cast<uint64_t>(field_index);
}

uint64_t NodeDegreeKey(Uid uid, int edge_order, DegreeDir dir) {
  return (uid << 21) | (static_cast<uint64_t>(edge_order) << 1) |
         static_cast<uint64_t>(dir);
}

}  // namespace

GraphStats::GraphStats(const schema::Schema* schema) : schema_(schema) {
  if (schema_ == nullptr) return;
  num_orders_ = schema_->classes().size();
  current_.assign(num_orders_, 0);
  versions_.assign(num_orders_, 0);
  degree_totals_.assign(num_orders_ * num_orders_ * 2, 0);
  degree_max_.assign(num_orders_ * num_orders_ * 2, 0);
}

bool GraphStats::Trackable(const Value& v) {
  switch (v.kind()) {
    case ValueKind::kBool:
    case ValueKind::kInt:
    case ValueKind::kDouble:
    case ValueKind::kString:
    case ValueKind::kIp:
      return true;
    default:
      return false;
  }
}

GraphStats::FieldCounter* GraphStats::CounterFor(int order, int field_index,
                                                 bool create) {
  uint64_t key = FieldKey(order, field_index);
  auto it = field_counters_.find(key);
  if (it == field_counters_.end()) {
    if (!create) return nullptr;
    it = field_counters_.emplace(key, FieldCounter{}).first;
  }
  return &it->second;
}

const GraphStats::FieldCounter* GraphStats::CounterFor(int order,
                                                       int field_index) const {
  auto it = field_counters_.find(FieldKey(order, field_index));
  return it == field_counters_.end() ? nullptr : &it->second;
}

void GraphStats::CountValue(const schema::ClassDef* cls, int field_index,
                            const Value& v, int64_t delta) {
  if (!Trackable(v)) return;
  FieldCounter* c = CounterFor(cls->order(), field_index, /*create=*/true);
  if (c->saturated) return;
  if (delta > 0) {
    uint64_t& n = c->counts[v];
    n += static_cast<uint64_t>(delta);
    if (c->counts.size() > kMaxDistinctValues) {
      // Too many distinct values to track exactly; degrade this field to
      // cardinality / kMaxDistinctValues for good (re-counting existing
      // rows is not possible from here).
      c->saturated = true;
      c->counts.clear();
    }
  } else {
    auto it = c->counts.find(v);
    if (it != c->counts.end()) {
      uint64_t d = static_cast<uint64_t>(-delta);
      if (it->second <= d) {
        c->counts.erase(it);
      } else {
        it->second -= d;
      }
    }
  }
}

void GraphStats::OnInsert(const schema::ClassDef* cls,
                          const std::vector<Value>& row) {
  if (schema_ == nullptr || cls == nullptr) return;
  size_t o = static_cast<size_t>(cls->order());
  if (o >= num_orders_) return;
  ++current_[o];
  ++versions_[o];
  for (size_t i = 0; i < row.size(); ++i) {
    CountValue(cls, static_cast<int>(i), row[i], +1);
  }
}

void GraphStats::OnRemove(const schema::ClassDef* cls,
                          const std::vector<Value>& row) {
  if (schema_ == nullptr || cls == nullptr) return;
  size_t o = static_cast<size_t>(cls->order());
  if (o >= num_orders_ || current_[o] == 0) return;
  --current_[o];
  for (size_t i = 0; i < row.size(); ++i) {
    CountValue(cls, static_cast<int>(i), row[i], -1);
  }
}

void GraphStats::OnUpdate(const schema::ClassDef* cls,
                          const std::vector<Value>& old_row,
                          const std::vector<Value>& new_row) {
  if (schema_ == nullptr || cls == nullptr) return;
  size_t o = static_cast<size_t>(cls->order());
  if (o >= num_orders_) return;
  ++versions_[o];
  size_t n = std::min(old_row.size(), new_row.size());
  for (size_t i = 0; i < n; ++i) {
    if (old_row[i] == new_row[i]) continue;
    CountValue(cls, static_cast<int>(i), old_row[i], -1);
    CountValue(cls, static_cast<int>(i), new_row[i], +1);
  }
}

void GraphStats::BumpDegree(Uid node, const schema::ClassDef* node_cls,
                            const schema::ClassDef* edge_cls, DegreeDir dir,
                            int64_t delta) {
  if (node_cls == nullptr) return;
  size_t no = static_cast<size_t>(node_cls->order());
  size_t eo = static_cast<size_t>(edge_cls->order());
  if (no >= num_orders_ || eo >= num_orders_) return;
  size_t cell = Cell(static_cast<int>(no), static_cast<int>(eo), dir);
  uint64_t& per_node = node_degrees_[NodeDegreeKey(node, edge_cls->order(), dir)];
  if (delta > 0) {
    degree_totals_[cell] += static_cast<uint64_t>(delta);
    per_node += static_cast<uint64_t>(delta);
    degree_max_[cell] = std::max(degree_max_[cell], per_node);
  } else {
    uint64_t d = static_cast<uint64_t>(-delta);
    degree_totals_[cell] -= std::min(degree_totals_[cell], d);
    per_node -= std::min(per_node, d);
  }
}

void GraphStats::OnEdgeLinked(const schema::ClassDef* edge_cls, Uid source,
                              const schema::ClassDef* source_cls, Uid target,
                              const schema::ClassDef* target_cls) {
  if (schema_ == nullptr || edge_cls == nullptr) return;
  BumpDegree(source, source_cls, edge_cls, DegreeDir::kOut, +1);
  BumpDegree(target, target_cls, edge_cls, DegreeDir::kIn, +1);
}

void GraphStats::OnEdgeUnlinked(const schema::ClassDef* edge_cls, Uid source,
                                const schema::ClassDef* source_cls, Uid target,
                                const schema::ClassDef* target_cls) {
  if (schema_ == nullptr || edge_cls == nullptr) return;
  BumpDegree(source, source_cls, edge_cls, DegreeDir::kOut, -1);
  BumpDegree(target, target_cls, edge_cls, DegreeDir::kIn, -1);
}

double GraphStats::Cardinality(const schema::ClassDef* cls) const {
  if (schema_ == nullptr || cls == nullptr) return 0.0;
  uint64_t total = 0;
  size_t end = std::min(static_cast<size_t>(cls->subtree_end()), num_orders_);
  for (size_t o = static_cast<size_t>(cls->order()); o < end; ++o) {
    total += current_[o];
  }
  return static_cast<double>(total);
}

std::optional<double> GraphStats::EqCount(const schema::ClassDef* cls,
                                          int field_index,
                                          const Value& v) const {
  if (schema_ == nullptr || cls == nullptr) return std::nullopt;
  if (!Trackable(v)) return std::nullopt;
  uint64_t total = 0;
  double total_estimate = 0;
  size_t end = std::min(static_cast<size_t>(cls->subtree_end()), num_orders_);
  for (size_t o = static_cast<size_t>(cls->order()); o < end; ++o) {
    const FieldCounter* c =
        CounterFor(static_cast<int>(o), field_index);
    if (c == nullptr) continue;  // no non-null value of this field here
    if (c->saturated) {
      // More than kMaxDistinctValues distinct values: on average no value
      // holds more than this share of the class.
      total_estimate += static_cast<double>(current_[o]) /
                        static_cast<double>(kMaxDistinctValues);
      continue;
    }
    auto it = c->counts.find(v);
    if (it != c->counts.end()) total += it->second;
  }
  return static_cast<double>(total) + total_estimate;
}

uint64_t GraphStats::EdgeCount(const schema::ClassDef* node_cls, DegreeDir dir,
                               const schema::ClassDef* edge_cls) const {
  if (schema_ == nullptr || node_cls == nullptr || edge_cls == nullptr) {
    return 0;
  }
  uint64_t total = 0;
  size_t nend =
      std::min(static_cast<size_t>(node_cls->subtree_end()), num_orders_);
  size_t eend =
      std::min(static_cast<size_t>(edge_cls->subtree_end()), num_orders_);
  for (size_t no = static_cast<size_t>(node_cls->order()); no < nend; ++no) {
    for (size_t eo = static_cast<size_t>(edge_cls->order()); eo < eend; ++eo) {
      total += degree_totals_[Cell(static_cast<int>(no),
                                   static_cast<int>(eo), dir)];
    }
  }
  return total;
}

double GraphStats::AvgDegree(const schema::ClassDef* node_cls, DegreeDir dir,
                             const schema::ClassDef* edge_cls) const {
  double nodes = Cardinality(node_cls);
  if (nodes <= 0.0) return 0.0;
  return static_cast<double>(EdgeCount(node_cls, dir, edge_cls)) / nodes;
}

uint64_t GraphStats::MaxDegree(const schema::ClassDef* node_cls, DegreeDir dir,
                               const schema::ClassDef* edge_cls) const {
  if (schema_ == nullptr || node_cls == nullptr || edge_cls == nullptr) {
    return 0;
  }
  uint64_t best = 0;
  size_t nend =
      std::min(static_cast<size_t>(node_cls->subtree_end()), num_orders_);
  size_t eend =
      std::min(static_cast<size_t>(edge_cls->subtree_end()), num_orders_);
  for (size_t no = static_cast<size_t>(node_cls->order()); no < nend; ++no) {
    for (size_t eo = static_cast<size_t>(edge_cls->order()); eo < eend; ++eo) {
      best = std::max(
          best, degree_max_[Cell(static_cast<int>(no), static_cast<int>(eo),
                                 dir)]);
    }
  }
  return best;
}

uint64_t GraphStats::VersionCount(const schema::ClassDef* cls) const {
  if (schema_ == nullptr || cls == nullptr) return 0;
  uint64_t total = 0;
  size_t end = std::min(static_cast<size_t>(cls->subtree_end()), num_orders_);
  for (size_t o = static_cast<size_t>(cls->order()); o < end; ++o) {
    total += versions_[o];
  }
  return total;
}

double GraphStats::HistoryDepth(const schema::ClassDef* cls) const {
  double cur = Cardinality(cls);
  if (cur <= 0.0) return 1.0;
  return std::max(1.0, static_cast<double>(VersionCount(cls)) / cur);
}

namespace {

// Bumped when the serialized layout changes; mismatches are Corruption, not
// silent misreads.
constexpr uint8_t kStatsCodecVersion = 1;

void PutU64Vector(std::string* out, const std::vector<uint64_t>& v) {
  PutFixed64(out, v.size());
  for (uint64_t x : v) PutFixed64(out, x);
}

Status ReadU64Vector(BinaryReader* reader, size_t expected_size,
                     std::vector<uint64_t>* v) {
  uint64_t n = 0;
  NEPAL_RETURN_NOT_OK(reader->ReadFixed64(&n));
  if (n != expected_size) {
    return Status::Corruption("stats vector sized " + std::to_string(n) +
                              ", schema implies " +
                              std::to_string(expected_size));
  }
  v->assign(expected_size, 0);
  for (size_t i = 0; i < expected_size; ++i) {
    NEPAL_RETURN_NOT_OK(reader->ReadFixed64(&(*v)[i]));
  }
  return Status::OK();
}

}  // namespace

void GraphStats::SerializeTo(std::string* out) const {
  PutFixed8(out, kStatsCodecVersion);
  PutFixed64(out, num_orders_);
  PutU64Vector(out, current_);
  PutU64Vector(out, versions_);
  PutU64Vector(out, degree_totals_);
  PutU64Vector(out, degree_max_);

  // node_degrees_ in ascending key order.
  std::vector<std::pair<uint64_t, uint64_t>> degrees(node_degrees_.begin(),
                                                     node_degrees_.end());
  std::sort(degrees.begin(), degrees.end());
  PutFixed64(out, degrees.size());
  for (const auto& [key, count] : degrees) {
    PutFixed64(out, key);
    PutFixed64(out, count);
  }

  // field_counters_ in ascending key order; each counter's values in
  // ascending Value order (kind() breaks cross-kind numeric ties so equal
  // maps always render identically).
  std::vector<uint64_t> counter_keys;
  counter_keys.reserve(field_counters_.size());
  for (const auto& [key, counter] : field_counters_) {
    counter_keys.push_back(key);
  }
  std::sort(counter_keys.begin(), counter_keys.end());
  PutFixed64(out, counter_keys.size());
  for (uint64_t key : counter_keys) {
    const FieldCounter& counter = field_counters_.at(key);
    PutFixed64(out, key);
    PutFixed8(out, counter.saturated ? 1 : 0);
    std::vector<std::pair<const Value*, uint64_t>> values;
    values.reserve(counter.counts.size());
    for (const auto& [v, n] : counter.counts) values.emplace_back(&v, n);
    std::sort(values.begin(), values.end(),
              [](const auto& a, const auto& b) {
                int cmp = a.first->Compare(*b.first);
                if (cmp != 0) return cmp < 0;
                return a.first->kind() < b.first->kind();
              });
    PutFixed64(out, values.size());
    for (const auto& [v, n] : values) {
      v->EncodeBinary(out);
      PutFixed64(out, n);
    }
  }
}

Result<GraphStats> GraphStats::DeserializeFrom(const schema::Schema* schema,
                                               std::string_view data) {
  if (schema == nullptr) {
    return Status::InvalidArgument("stats deserialization needs a schema");
  }
  BinaryReader reader(data);
  uint8_t version = 0;
  NEPAL_RETURN_NOT_OK(reader.ReadFixed8(&version));
  if (version != kStatsCodecVersion) {
    return Status::Corruption("stats codec version " +
                              std::to_string(version) + " (expected " +
                              std::to_string(kStatsCodecVersion) + ")");
  }
  GraphStats stats(schema);
  uint64_t num_orders = 0;
  NEPAL_RETURN_NOT_OK(reader.ReadFixed64(&num_orders));
  if (num_orders != stats.num_orders_) {
    return Status::Corruption(
        "stats snapshot covers " + std::to_string(num_orders) +
        " classes, schema has " + std::to_string(stats.num_orders_));
  }
  size_t n = stats.num_orders_;
  NEPAL_RETURN_NOT_OK(ReadU64Vector(&reader, n, &stats.current_));
  NEPAL_RETURN_NOT_OK(ReadU64Vector(&reader, n, &stats.versions_));
  NEPAL_RETURN_NOT_OK(ReadU64Vector(&reader, n * n * 2,
                                    &stats.degree_totals_));
  NEPAL_RETURN_NOT_OK(ReadU64Vector(&reader, n * n * 2, &stats.degree_max_));

  uint64_t degree_entries = 0;
  NEPAL_RETURN_NOT_OK(reader.ReadFixed64(&degree_entries));
  for (uint64_t i = 0; i < degree_entries; ++i) {
    uint64_t key = 0, count = 0;
    NEPAL_RETURN_NOT_OK(reader.ReadFixed64(&key));
    NEPAL_RETURN_NOT_OK(reader.ReadFixed64(&count));
    stats.node_degrees_[key] = count;
  }

  uint64_t counter_entries = 0;
  NEPAL_RETURN_NOT_OK(reader.ReadFixed64(&counter_entries));
  for (uint64_t i = 0; i < counter_entries; ++i) {
    uint64_t key = 0;
    NEPAL_RETURN_NOT_OK(reader.ReadFixed64(&key));
    FieldCounter& counter = stats.field_counters_[key];
    uint8_t saturated = 0;
    NEPAL_RETURN_NOT_OK(reader.ReadFixed8(&saturated));
    counter.saturated = saturated != 0;
    uint64_t value_entries = 0;
    NEPAL_RETURN_NOT_OK(reader.ReadFixed64(&value_entries));
    for (uint64_t j = 0; j < value_entries; ++j) {
      NEPAL_ASSIGN_OR_RETURN(Value v, Value::DecodeBinary(&reader));
      uint64_t count = 0;
      NEPAL_RETURN_NOT_OK(reader.ReadFixed64(&count));
      counter.counts.emplace(std::move(v), count);
    }
  }
  if (!reader.done()) {
    return Status::Corruption("stats snapshot has " +
                              std::to_string(reader.remaining()) +
                              " trailing byte(s)");
  }
  return stats;
}

std::string GraphStats::ToString() const {
  std::string out;
  if (schema_ == nullptr) return "stats: unbound\n";
  char line[256];
  for (const schema::ClassDef* cls : schema_->classes()) {
    size_t o = static_cast<size_t>(cls->order());
    if (o >= num_orders_ || versions_[o] == 0) continue;
    std::snprintf(line, sizeof(line),
                  "%-24s current=%" PRIu64 " versions=%" PRIu64 "\n",
                  cls->name().c_str(), current_[o], versions_[o]);
    out += line;
  }
  return out;
}

}  // namespace nepal::stats
