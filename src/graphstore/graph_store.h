// GraphStore: the property-graph execution backend.
//
// This backend mirrors the paper's Gremlin implementation strategy:
//  - every element carries its full inheritance path as its label
//    ("Node:Container:VM:VMWare"); a class atom matches by *label prefix*,
//    which is how query-time generalization is realized without native
//    class support. (Physically we bucket uids by exact class and walk the
//    pre-order subtree — observably identical to prefix matching, since a
//    label is a prefix of another exactly when the classes are in the
//    subtree relation.)
//  - traversal executes step-wise per traverser (storage::TraverserExecutor,
//    storage/traverser_executor.h), the traversers of one Extend sharing
//    one read of each frontier node's versions and incident edges
//    (storage/frontier_reads.h); a repetition block runs as one ExtendAtom
//    call per body atom per round, driven by the executor's Loop
//    (nepal/executor.h), which can then prune each round against the goal.
//
// Adjacency is kept as edge-uid lists per node; version visibility is
// resolved on the edge's chain, so one adjacency structure serves the
// current snapshot, timeslices, and range scans.

#ifndef NEPAL_GRAPHSTORE_GRAPH_STORE_H_
#define NEPAL_GRAPHSTORE_GRAPH_STORE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "schema/schema.h"
#include "storage/backend.h"
#include "storage/version_chain.h"

namespace nepal::graphstore {

struct GraphStoreOptions {
  /// Field names to maintain equality hash indexes on (current versions
  /// only; historical scans fall back to sequential filtering).
  std::vector<std::string> indexed_fields = {"name"};
};

class GraphStore final : public storage::StorageBackend {
 public:
  explicit GraphStore(schema::SchemaPtr schema,
                      GraphStoreOptions options = GraphStoreOptions());

  std::string name() const override { return "graphstore"; }

  Status InsertNode(Uid uid, const schema::ClassDef* cls,
                    std::vector<Value> row, Timestamp t) override;
  Status InsertEdge(Uid uid, const schema::ClassDef* cls,
                    std::vector<Value> row, Uid source, Uid target,
                    Timestamp t) override;
  Status Update(Uid uid, const std::vector<std::pair<int, Value>>& changes,
                Timestamp t) override;
  Status Delete(Uid uid, Timestamp t) override;
  Status RestoreChain(Uid uid,
                      std::vector<storage::ElementVersion> chain) override;

  void Scan(const storage::ScanSpec& spec, const storage::TimeView& view,
            const storage::ElementSink& sink) const override;
  void Get(Uid uid, const storage::TimeView& view,
           const storage::ElementSink& sink) const override;
  void IncidentEdges(Uid node, storage::Direction dir,
                     const schema::ClassDef* edge_cls,
                     const storage::TimeView& view,
                     const storage::ElementSink& sink) const override;
  bool Exists(Uid uid, const storage::TimeView& view) const override;

  size_t CountClass(const schema::ClassDef* cls) const override;
  size_t MemoryUsage() const override;
  size_t VersionCount() const override;

  const schema::Schema& schema() const { return *schema_; }

 private:
  struct ClassBucket {
    std::vector<Uid> uids;        // every uid ever inserted with this class
    size_t current_count = 0;     // open versions
    /// field name -> value -> uids (current versions only).
    std::unordered_map<std::string,
                       std::unordered_map<Value, std::vector<Uid>, ValueHash>>
        indexes;
  };

  const storage::VersionChain* FindChain(Uid uid) const;
  const schema::ClassDef* CurrentClassOf(Uid uid) const;
  ClassBucket& BucketFor(const schema::ClassDef* cls);
  void IndexInsert(const schema::ClassDef* cls, const std::vector<Value>& row,
                   Uid uid);
  void IndexRemove(const schema::ClassDef* cls, const std::vector<Value>& row,
                   Uid uid);
  /// Closes `chain`'s open version at `t`. A zero-length version stays in
  /// the chain for epoch-pinned reads but leaves the version count, just
  /// as it stays out of checkpoint images.
  Status CloseVersion(storage::VersionChain* chain, Timestamp t);

  schema::SchemaPtr schema_;
  GraphStoreOptions options_;
  std::unordered_map<Uid, storage::VersionChain> elements_;
  /// Bucket per class, addressed by ClassDef::order(); subtree scans walk
  /// the contiguous pre-order range (== label-prefix matching).
  std::vector<ClassBucket> buckets_;
  std::unordered_map<Uid, std::vector<Uid>> out_edges_;
  std::unordered_map<Uid, std::vector<Uid>> in_edges_;
  size_t version_count_ = 0;  // versions with a non-empty interval
};

}  // namespace nepal::graphstore

#endif  // NEPAL_GRAPHSTORE_GRAPH_STORE_H_
