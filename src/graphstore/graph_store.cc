#include "graphstore/graph_store.h"

#include <algorithm>

namespace nepal::graphstore {

using storage::Direction;
using storage::ElementSink;
using storage::ElementVersion;
using storage::ScanSpec;
using storage::TimeView;
using storage::VersionChain;

GraphStore::GraphStore(schema::SchemaPtr schema, GraphStoreOptions options)
    : StorageBackend(schema.get()),
      schema_(std::move(schema)),
      options_(std::move(options)) {
  buckets_.resize(schema_->classes().size());
}

const schema::ClassDef* GraphStore::CurrentClassOf(Uid uid) const {
  const VersionChain* chain = FindChain(uid);
  if (chain == nullptr || chain->Current() == nullptr) return nullptr;
  return chain->Current()->cls;
}

const VersionChain* GraphStore::FindChain(Uid uid) const {
  auto it = elements_.find(uid);
  return it == elements_.end() ? nullptr : &it->second;
}

GraphStore::ClassBucket& GraphStore::BucketFor(const schema::ClassDef* cls) {
  return buckets_[static_cast<size_t>(cls->order())];
}

void GraphStore::IndexInsert(const schema::ClassDef* cls,
                             const std::vector<Value>& row, Uid uid) {
  ClassBucket& bucket = BucketFor(cls);
  for (const std::string& field : options_.indexed_fields) {
    int idx = cls->FieldIndex(field);
    if (idx < 0 || row[static_cast<size_t>(idx)].is_null()) continue;
    bucket.indexes[field][row[static_cast<size_t>(idx)]].push_back(uid);
  }
}

void GraphStore::IndexRemove(const schema::ClassDef* cls,
                             const std::vector<Value>& row, Uid uid) {
  ClassBucket& bucket = BucketFor(cls);
  for (const std::string& field : options_.indexed_fields) {
    int idx = cls->FieldIndex(field);
    if (idx < 0 || row[static_cast<size_t>(idx)].is_null()) continue;
    auto field_it = bucket.indexes.find(field);
    if (field_it == bucket.indexes.end()) continue;
    auto val_it = field_it->second.find(row[static_cast<size_t>(idx)]);
    if (val_it == field_it->second.end()) continue;
    std::vector<Uid>& uids = val_it->second;
    uids.erase(std::remove(uids.begin(), uids.end(), uid), uids.end());
  }
}

Status GraphStore::CloseVersion(VersionChain* chain, Timestamp t) {
  NEPAL_RETURN_NOT_OK(chain->Close(t, write_epoch_));
  if (chain->versions().back().valid.empty()) --version_count_;
  return Status::OK();
}

Status GraphStore::InsertNode(Uid uid, const schema::ClassDef* cls,
                              std::vector<Value> row, Timestamp t) {
  VersionChain& chain = elements_[uid];
  if (!chain.empty()) {
    return Status::AlreadyExists("uid " + std::to_string(uid) +
                                 " already exists");
  }
  ElementVersion v;
  v.uid = uid;
  v.cls = cls;
  v.fields = std::move(row);
  IndexInsert(cls, v.fields, uid);
  NEPAL_RETURN_NOT_OK(chain.Open(std::move(v), t, write_epoch_));
  ClassBucket& bucket = BucketFor(cls);
  bucket.uids.push_back(uid);
  ++bucket.current_count;
  ++version_count_;
  stats_.OnInsert(cls, chain.Current()->fields);
  return Status::OK();
}

Status GraphStore::InsertEdge(Uid uid, const schema::ClassDef* cls,
                              std::vector<Value> row, Uid source, Uid target,
                              Timestamp t) {
  VersionChain& chain = elements_[uid];
  if (!chain.empty()) {
    return Status::AlreadyExists("uid " + std::to_string(uid) +
                                 " already exists");
  }
  ElementVersion v;
  v.uid = uid;
  v.cls = cls;
  v.fields = std::move(row);
  v.source = source;
  v.target = target;
  IndexInsert(cls, v.fields, uid);
  NEPAL_RETURN_NOT_OK(chain.Open(std::move(v), t, write_epoch_));
  ClassBucket& bucket = BucketFor(cls);
  bucket.uids.push_back(uid);
  ++bucket.current_count;
  ++version_count_;
  out_edges_[source].push_back(uid);
  in_edges_[target].push_back(uid);
  stats_.OnInsert(cls, chain.Current()->fields);
  stats_.OnEdgeLinked(cls, source, CurrentClassOf(source), target,
                      CurrentClassOf(target));
  return Status::OK();
}

Status GraphStore::Update(Uid uid,
                          const std::vector<std::pair<int, Value>>& changes,
                          Timestamp t) {
  auto it = elements_.find(uid);
  if (it == elements_.end() || it->second.Current() == nullptr) {
    return Status::NotFound("no current element with uid " +
                            std::to_string(uid));
  }
  ElementVersion next = *it->second.Current();
  std::vector<Value> old_fields = next.fields;
  IndexRemove(next.cls, next.fields, uid);
  for (const auto& [idx, value] : changes) {
    next.fields[static_cast<size_t>(idx)] = value;
  }
  NEPAL_RETURN_NOT_OK(CloseVersion(&it->second, t));
  NEPAL_RETURN_NOT_OK(it->second.Open(std::move(next), t, write_epoch_));
  const ElementVersion* cur = it->second.Current();
  IndexInsert(cur->cls, cur->fields, uid);
  ++version_count_;
  stats_.OnUpdate(cur->cls, old_fields, cur->fields);
  return Status::OK();
}

Status GraphStore::RestoreChain(Uid uid, std::vector<ElementVersion> chain) {
  if (chain.empty()) {
    return Status::Corruption("checkpoint chain for uid " +
                              std::to_string(uid) + " is empty");
  }
  if (FindChain(uid) != nullptr) {
    return Status::Corruption("checkpoint restores uid " +
                              std::to_string(uid) + " twice");
  }
  const schema::ClassDef* cls = chain.front().cls;
  const Uid source = chain.front().source;
  const Uid target = chain.front().target;
  VersionChain& vc = elements_[uid];
  for (ElementVersion& v : chain) {
    if (v.uid != uid || v.cls != cls) {
      return Status::Corruption("inconsistent checkpoint chain for uid " +
                                std::to_string(uid));
    }
    const Interval valid = v.valid;
    NEPAL_RETURN_NOT_OK(vc.Open(std::move(v), valid.start));
    if (valid.end != kTimestampMax) {
      NEPAL_RETURN_NOT_OK(vc.Close(valid.end));
    }
  }
  ClassBucket& bucket = BucketFor(cls);
  bucket.uids.push_back(uid);
  version_count_ += static_cast<size_t>(std::count_if(
      vc.versions().begin(), vc.versions().end(),
      [](const ElementVersion& v) { return !v.valid.empty(); }));
  if (const ElementVersion* cur = vc.Current()) {
    ++bucket.current_count;
    IndexInsert(cur->cls, cur->fields, uid);
  }
  // Adjacency keeps every edge ever inserted (visibility is resolved on the
  // chain), so deleted edges are linked too — exactly as InsertEdge did.
  if (cls->is_edge()) {
    out_edges_[source].push_back(uid);
    in_edges_[target].push_back(uid);
  }
  return Status::OK();
}

Status GraphStore::Delete(Uid uid, Timestamp t) {
  auto it = elements_.find(uid);
  if (it == elements_.end() || it->second.Current() == nullptr) {
    return Status::NotFound("no current element with uid " +
                            std::to_string(uid));
  }
  const ElementVersion* cur = it->second.Current();
  IndexRemove(cur->cls, cur->fields, uid);
  --BucketFor(cur->cls).current_count;
  stats_.OnRemove(cur->cls, cur->fields);
  if (cur->is_edge()) {
    stats_.OnEdgeUnlinked(cur->cls, cur->source, CurrentClassOf(cur->source),
                          cur->target, CurrentClassOf(cur->target));
  }
  return CloseVersion(&it->second, t);
}

void GraphStore::Scan(const ScanSpec& spec, const TimeView& view,
                      const ElementSink& sink) const {
  if (spec.uid) {
    // Exact-uid lookup: the global uid index replaces the class scan.
    if (const VersionChain* chain = FindChain(*spec.uid)) {
      chain->ForEach(view, [&](const ElementVersion& v) {
        if (spec.Matches(v)) sink(v);
      });
    }
    return;
  }
  const int begin = spec.cls->order();
  const int end = spec.cls->subtree_end();
  // Equality pushdown through the per-class hash indexes. Indexes cover
  // current versions only, so historical views — and epoch-pinned views,
  // whose "current" may include versions since updated away — scan
  // sequentially (same rows, sequential order).
  if (spec.eq && view.is_current() && !view.has_epoch()) {
    const std::string& field_name =
        spec.cls->fields()[static_cast<size_t>(spec.eq->first)].name;
    bool indexed =
        std::find(options_.indexed_fields.begin(),
                  options_.indexed_fields.end(),
                  field_name) != options_.indexed_fields.end();
    if (indexed) {
      for (int order = begin; order < end; ++order) {
        const ClassBucket& bucket = buckets_[static_cast<size_t>(order)];
        auto field_it = bucket.indexes.find(field_name);
        if (field_it == bucket.indexes.end()) continue;
        auto val_it = field_it->second.find(spec.eq->second);
        if (val_it == field_it->second.end()) continue;
        for (Uid uid : val_it->second) {
          const VersionChain* chain = FindChain(uid);
          if (chain == nullptr) continue;
          chain->ForEach(view, [&](const ElementVersion& v) {
            if (spec.Matches(v)) sink(v);
          });
        }
      }
      return;
    }
  }
  for (int order = begin; order < end; ++order) {
    const ClassBucket& bucket = buckets_[static_cast<size_t>(order)];
    for (Uid uid : bucket.uids) {
      const VersionChain* chain = FindChain(uid);
      if (chain == nullptr) continue;
      chain->ForEach(view, [&](const ElementVersion& v) {
        if (spec.Matches(v)) sink(v);
      });
    }
  }
}

void GraphStore::Get(Uid uid, const TimeView& view,
                     const ElementSink& sink) const {
  if (const VersionChain* chain = FindChain(uid)) {
    chain->ForEach(view, sink);
  }
}

void GraphStore::IncidentEdges(Uid node, Direction dir,
                               const schema::ClassDef* edge_cls,
                               const TimeView& view,
                               const ElementSink& sink) const {
  auto emit_from = [&](const std::unordered_map<Uid, std::vector<Uid>>& adj) {
    auto it = adj.find(node);
    if (it == adj.end()) return;
    for (Uid edge_uid : it->second) {
      const VersionChain* chain = FindChain(edge_uid);
      if (chain == nullptr) continue;
      chain->ForEach(view, [&](const ElementVersion& v) {
        if (edge_cls == nullptr || v.cls->IsSubclassOf(edge_cls)) sink(v);
      });
    }
  };
  if (dir == Direction::kOut || dir == Direction::kBoth) emit_from(out_edges_);
  if (dir == Direction::kIn || dir == Direction::kBoth) emit_from(in_edges_);
}

bool GraphStore::Exists(Uid uid, const TimeView& view) const {
  bool found = false;
  Get(uid, view, [&](const ElementVersion&) { found = true; });
  return found;
}

size_t GraphStore::CountClass(const schema::ClassDef* cls) const {
  size_t count = 0;
  for (int order = cls->order(); order < cls->subtree_end(); ++order) {
    count += buckets_[static_cast<size_t>(order)].current_count;
  }
  return count;
}

size_t GraphStore::MemoryUsage() const {
  size_t bytes = sizeof(GraphStore);
  for (const auto& [uid, chain] : elements_) bytes += chain.MemoryUsage();
  for (const auto& [uid, edges] : out_edges_) {
    bytes += sizeof(Uid) * (edges.capacity() + 1);
  }
  for (const auto& [uid, edges] : in_edges_) {
    bytes += sizeof(Uid) * (edges.capacity() + 1);
  }
  for (const ClassBucket& bucket : buckets_) {
    bytes += sizeof(Uid) * bucket.uids.capacity();
  }
  return bytes;
}

size_t GraphStore::VersionCount() const { return version_count_; }

}  // namespace nepal::graphstore
