// Unit tests for the storage layer: GraphDb semantics (validation, unique
// constraints, cascades, the transaction clock) and backend behaviour
// (version chains, scans under time views, incident-edge lookups,
// statistics), run against both backends; the path-identity properties
// of DedupPaths, CanonicalizePaths and PathIndex; the path extension of
// both backends' executors and of RepeatRounds against references; and
// the backend reads one Extend call makes.

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "relational/relational_store.h"
#include "storage/pathset.h"
#include "storage/traverser_executor.h"
#include "tests/testutil.h"

namespace nepal {
namespace {

using nepal::testing::BackendKind;
using storage::Direction;
using storage::ElementVersion;
using storage::TimeView;

class StorageTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    auto s = schema::ParseSchemaDsl(R"(
      node A : Node { val: int; serial: string unique; }
      node A1 : A {}
      node B : Node {}
      edge E : Edge { w: int; }
      edge E1 : E {}
      allow E (Node -> Node);
    )");
    ASSERT_TRUE(s.ok()) << s.status();
    schema_ = *s;
    db_ = std::make_unique<storage::GraphDb>(
        schema_, nepal::testing::MakeBackend(GetParam(), schema_));
  }

  size_t CountScan(const char* cls, const TimeView& view) {
    storage::ScanSpec spec;
    spec.cls = schema_->FindClass(cls);
    size_t n = 0;
    db_->backend().Scan(spec, view, [&](const ElementVersion&) { ++n; });
    return n;
  }

  schema::SchemaPtr schema_;
  std::unique_ptr<storage::GraphDb> db_;
};

TEST_P(StorageTest, InsertAndGetCurrent) {
  auto uid = db_->AddNode("A", {{"val", Value(7)}, {"name", Value("x")},
                                {"serial", Value("s1")}});
  ASSERT_TRUE(uid.ok()) << uid.status();
  auto v = db_->GetCurrent(*uid);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->cls->name(), "A");
  EXPECT_EQ(v->fields[static_cast<size_t>(v->cls->FieldIndex("val"))],
            Value(7));
  EXPECT_TRUE(v->is_current());
}

TEST_P(StorageTest, PolymorphicScan) {
  ASSERT_TRUE(db_->AddNode("A", {{"serial", Value("s1")}}).ok());
  ASSERT_TRUE(db_->AddNode("A1", {{"serial", Value("s2")}}).ok());
  ASSERT_TRUE(db_->AddNode("B", {}).ok());
  EXPECT_EQ(CountScan("A", TimeView::Current()), 2u);   // A + A1
  EXPECT_EQ(CountScan("A1", TimeView::Current()), 1u);
  EXPECT_EQ(CountScan("Node", TimeView::Current()), 3u);
  EXPECT_EQ(CountScan("B", TimeView::Current()), 1u);
}

TEST_P(StorageTest, UniqueConstraintEnforced) {
  ASSERT_TRUE(db_->AddNode("A", {{"serial", Value("dup")}}).ok());
  auto clash = db_->AddNode("A1", {{"serial", Value("dup")}});
  ASSERT_FALSE(clash.ok());
  EXPECT_EQ(clash.status().code(), StatusCode::kAlreadyExists);
}

TEST_P(StorageTest, UniqueValueFreedByDeleteAndUpdate) {
  Uid a = *db_->AddNode("A", {{"serial", Value("s1")}});
  ASSERT_TRUE(db_->RemoveElement(a).ok());
  EXPECT_TRUE(db_->AddNode("A", {{"serial", Value("s1")}}).ok());

  Uid b = *db_->AddNode("A", {{"serial", Value("s2")}});
  ASSERT_TRUE(db_->UpdateElement(b, {{"serial", Value("s3")}}).ok());
  EXPECT_TRUE(db_->AddNode("A", {{"serial", Value("s2")}}).ok());
  auto clash = db_->AddNode("A", {{"serial", Value("s3")}});
  EXPECT_FALSE(clash.ok());
}

TEST_P(StorageTest, RequiredFieldEnforced) {
  // `unique` in the DSL implies required.
  auto missing = db_->AddNode("A", {{"val", Value(1)}});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kSchemaViolation);
}

TEST_P(StorageTest, EdgeEndpointAndRuleChecks) {
  Uid a = *db_->AddNode("A", {{"serial", Value("s1")}});
  Uid b = *db_->AddNode("B", {});
  // Unknown endpoint.
  EXPECT_FALSE(db_->AddEdge("E", a, 9999, {}).ok());
  // Edge as endpoint.
  Uid e = *db_->AddEdge("E", a, b, {});
  EXPECT_FALSE(db_->AddEdge("E", a, e, {}).ok());
  // No rule for E1? E1 derives from E whose rule (Node->Node) applies.
  EXPECT_TRUE(db_->AddEdge("E1", b, a, {}).ok());
}

TEST_P(StorageTest, NodeRemovalCascadesToEdges) {
  Uid a = *db_->AddNode("A", {{"serial", Value("s1")}});
  Uid b = *db_->AddNode("B", {});
  Uid c = *db_->AddNode("B", {{"name", Value("c")}});
  Uid e1 = *db_->AddEdge("E", a, b, {});
  Uid e2 = *db_->AddEdge("E", c, a, {});
  Uid e3 = *db_->AddEdge("E", b, c, {});
  ASSERT_TRUE(db_->RemoveElement(a).ok());
  EXPECT_FALSE(db_->GetCurrent(e1).ok());
  EXPECT_FALSE(db_->GetCurrent(e2).ok());
  EXPECT_TRUE(db_->GetCurrent(e3).ok());
  EXPECT_EQ(db_->edge_count(), 1u);
}

TEST_P(StorageTest, ClockIsMonotone) {
  ASSERT_TRUE(db_->SetTime(db_->Now() + 100).ok());
  EXPECT_FALSE(db_->SetTime(db_->Now() - 1).ok());
}

TEST_P(StorageTest, VersionChainAcrossUpdates) {
  Timestamp t0 = db_->Now();
  Uid a = *db_->AddNode("A", {{"serial", Value("s1")}, {"val", Value(1)}});
  ASSERT_TRUE(db_->SetTime(t0 + 10).ok());
  ASSERT_TRUE(db_->UpdateElement(a, {{"val", Value(2)}}).ok());
  ASSERT_TRUE(db_->SetTime(t0 + 20).ok());
  ASSERT_TRUE(db_->RemoveElement(a).ok());

  std::vector<ElementVersion> versions;
  db_->backend().Get(a, TimeView::Range(Interval::All()),
                     [&](const ElementVersion& v) { versions.push_back(v); });
  std::sort(versions.begin(), versions.end(),
            [](const auto& x, const auto& y) {
              return x.valid.start < y.valid.start;
            });
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[0].valid, (Interval{t0, t0 + 10}));
  EXPECT_EQ(versions[1].valid, (Interval{t0 + 10, t0 + 20}));
  int val_idx = versions[0].cls->FieldIndex("val");
  EXPECT_EQ(versions[0].fields[static_cast<size_t>(val_idx)], Value(1));
  EXPECT_EQ(versions[1].fields[static_cast<size_t>(val_idx)], Value(2));
}

TEST_P(StorageTest, SameInstantUpdateCollapsesVersion) {
  Uid a = *db_->AddNode("A", {{"serial", Value("s1")}, {"val", Value(1)}});
  const uint64_t insert_epoch = db_->commit_epoch();
  // Same transaction instant: the intermediate state never existed in time.
  ASSERT_TRUE(db_->UpdateElement(a, {{"val", Value(2)}}).ok());
  const uint64_t update_epoch = db_->commit_epoch();
  const size_t val = static_cast<size_t>(
      schema_->FindClass("A")->FieldIndex("val"));
  auto values = [&](const TimeView& view) {
    std::vector<Value> out;
    db_->backend().Get(a, view, [&](const ElementVersion& v) {
      out.push_back(v.fields[val]);
    });
    return out;
  };
  EXPECT_EQ(values(TimeView::Range(Interval::All())),
            std::vector<Value>{Value(2)});
  EXPECT_EQ(values(TimeView::Range(Interval::All()).WithEpoch(update_epoch)),
            std::vector<Value>{Value(2)});
  // A read pinned between the two commits still sees the replaced value.
  EXPECT_EQ(values(TimeView::Current().WithEpoch(insert_epoch)),
            std::vector<Value>{Value(1)});
  EXPECT_EQ(values(TimeView::Range(Interval::All()).WithEpoch(insert_epoch)),
            std::vector<Value>{Value(1)});
  EXPECT_EQ(db_->backend().VersionCount(), 1u);
  auto cur = db_->GetCurrent(a);
  EXPECT_EQ(cur->fields[val], Value(2));
}

TEST_P(StorageTest, SameInstantInsertDeleteStaysVisibleToItsEpoch) {
  const Timestamp t = db_->Now();
  Uid a = *db_->AddNode("A", {{"serial", Value("s1")}});
  const uint64_t insert_epoch = db_->commit_epoch();
  ASSERT_TRUE(db_->RemoveElement(a).ok());
  const uint64_t delete_epoch = db_->commit_epoch();
  auto count = [&](const TimeView& view) {
    size_t n = 0;
    db_->backend().Get(a, view, [&](const ElementVersion& v) {
      EXPECT_TRUE(v.is_current()) << "pinned reads see the version open";
      ++n;
    });
    return n;
  };
  // Pinned between the insert and the delete, the element exists.
  EXPECT_EQ(count(TimeView::Current().WithEpoch(insert_epoch)), 1u);
  EXPECT_EQ(count(TimeView::AsOf(t).WithEpoch(insert_epoch)), 1u);
  EXPECT_EQ(CountScan("A", TimeView::Current().WithEpoch(insert_epoch)), 1u);
  // In time it never existed: no view and no later pin admits it.
  EXPECT_EQ(count(TimeView::Current()), 0u);
  EXPECT_EQ(count(TimeView::AsOf(t)), 0u);
  EXPECT_EQ(count(TimeView::Range(Interval::All())), 0u);
  EXPECT_EQ(count(TimeView::Current().WithEpoch(delete_epoch)), 0u);
  EXPECT_EQ(CountScan("A", TimeView::Range(Interval::All())), 0u);
  EXPECT_EQ(db_->backend().VersionCount(), 0u);
}

TEST_P(StorageTest, ScanUnderTimeViews) {
  Timestamp t0 = db_->Now();
  Uid a = *db_->AddNode("A", {{"serial", Value("s1")}});
  ASSERT_TRUE(db_->SetTime(t0 + 10).ok());
  ASSERT_TRUE(db_->RemoveElement(a).ok());
  ASSERT_TRUE(db_->SetTime(t0 + 20).ok());
  ASSERT_TRUE(db_->AddNode("A", {{"serial", Value("s2")}}).ok());

  EXPECT_EQ(CountScan("A", TimeView::Current()), 1u);
  EXPECT_EQ(CountScan("A", TimeView::AsOf(t0 + 5)), 1u);
  EXPECT_EQ(CountScan("A", TimeView::AsOf(t0 + 15)), 0u);
  EXPECT_EQ(CountScan("A", TimeView::Range(t0, t0 + 30)), 2u);
  EXPECT_EQ(CountScan("A", TimeView::Range(t0 + 11, t0 + 19)), 0u);
}

TEST_P(StorageTest, IncidentEdgesDirectionAndClassFilter) {
  Uid a = *db_->AddNode("A", {{"serial", Value("s1")}});
  Uid b = *db_->AddNode("B", {});
  Uid e_out = *db_->AddEdge("E", a, b, {});
  Uid e1_in = *db_->AddEdge("E1", b, a, {});
  auto collect = [&](Direction dir, const char* cls) {
    std::set<Uid> uids;
    db_->backend().IncidentEdges(a, dir,
                                 cls != nullptr ? schema_->FindClass(cls)
                                                : nullptr,
                                 TimeView::Current(),
                                 [&](const ElementVersion& v) {
                                   uids.insert(v.uid);
                                 });
    return uids;
  };
  EXPECT_EQ(collect(Direction::kOut, nullptr), (std::set<Uid>{e_out}));
  EXPECT_EQ(collect(Direction::kIn, nullptr), (std::set<Uid>{e1_in}));
  EXPECT_EQ(collect(Direction::kBoth, nullptr),
            (std::set<Uid>{e_out, e1_in}));
  EXPECT_EQ(collect(Direction::kBoth, "E1"), (std::set<Uid>{e1_in}));
  EXPECT_EQ(collect(Direction::kBoth, "E"), (std::set<Uid>{e_out, e1_in}));
}

TEST_P(StorageTest, HistoricalIncidentEdges) {
  Timestamp t0 = db_->Now();
  Uid a = *db_->AddNode("A", {{"serial", Value("s1")}});
  Uid b = *db_->AddNode("B", {});
  Uid e = *db_->AddEdge("E", a, b, {});
  ASSERT_TRUE(db_->SetTime(t0 + 10).ok());
  ASSERT_TRUE(db_->RemoveElement(e).ok());
  size_t current = 0, past = 0;
  db_->backend().IncidentEdges(a, Direction::kOut, nullptr,
                               TimeView::Current(),
                               [&](const ElementVersion&) { ++current; });
  db_->backend().IncidentEdges(a, Direction::kOut, nullptr,
                               TimeView::AsOf(t0 + 5),
                               [&](const ElementVersion&) { ++past; });
  EXPECT_EQ(current, 0u);
  EXPECT_EQ(past, 1u);
}

TEST_P(StorageTest, CountsAndEstimates) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        db_->AddNode("A", {{"serial", Value("s" + std::to_string(i))},
                           {"name", Value("node-" + std::to_string(i))}})
            .ok());
  }
  EXPECT_EQ(db_->backend().CountClass(schema_->FindClass("A")), 10u);
  // uid lookup estimates to exactly 1.
  storage::ScanSpec by_uid;
  by_uid.cls = schema_->FindClass("A");
  by_uid.uid = 3;
  EXPECT_DOUBLE_EQ(db_->backend().EstimateScan(by_uid), 1.0);
  // Indexed name equality uses real index statistics.
  storage::ScanSpec by_name;
  by_name.cls = schema_->FindClass("A");
  by_name.eq = std::make_pair(by_name.cls->FieldIndex("name"),
                              Value("node-3"));
  EXPECT_DOUBLE_EQ(db_->backend().EstimateScan(by_name), 1.0);
}

TEST_P(StorageTest, MemoryUsageGrowsWithData) {
  size_t before = db_->backend().MemoryUsage();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        db_->AddNode("A", {{"serial", Value("s" + std::to_string(i))}}).ok());
  }
  EXPECT_GT(db_->backend().MemoryUsage(), before);
  EXPECT_EQ(db_->backend().VersionCount(), 50u);
}

TEST_P(StorageTest, RejectsWritesToMissingElements) {
  EXPECT_FALSE(db_->UpdateElement(404, {{"val", Value(1)}}).ok());
  EXPECT_FALSE(db_->RemoveElement(404).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Backends, StorageTest,
    ::testing::Values(BackendKind::kGraphStore, BackendKind::kRelational),
    [](const ::testing::TestParamInfo<BackendKind>& info) {
      return nepal::testing::BackendName(info.param);
    });

// ---- Path identity ----------------------------------------------------

using storage::PathSet;
using storage::PathState;

/// The identity DedupPaths and CanonicalizePaths document, as a tuple whose
/// operator< is the documented canonical order.
using Identity = std::tuple<std::vector<Uid>, Uid, bool, Timestamp, Timestamp>;

Identity IdentityOf(const PathState& p) {
  return {p.uids, p.frontier, p.frontier_in_path, p.valid.start, p.valid.end};
}

/// Random states over a small alphabet, each followed by near-duplicates
/// that differ from it in exactly one identity field, and by exact
/// duplicates; then shuffled. `head_frontier` (not part of the identity)
/// tags every state with its input position, so tests can tell which of
/// two duplicates survived. Uids such as 256 and 2^40 order differently
/// by value than by little-endian bytes.
PathSet RandomPathSet(Rng& rng) {
  const Uid alphabet[] = {1, 2, 7, 255, 256, 257, 65536, Uid{1} << 40};
  const Timestamp times[] = {kTimestampMin, -5, 0, 3, 100, kTimestampMax};
  auto uid = [&] { return alphabet[rng.Below(std::size(alphabet))]; };
  auto time = [&] { return times[rng.Below(std::size(times))]; };
  PathSet out;
  const size_t bases = 1 + rng.Below(40);
  for (size_t b = 0; b < bases; ++b) {
    PathState p;
    const size_t len = rng.Below(4);
    for (size_t i = 0; i < len; ++i) p.uids.push_back(uid());
    p.concepts.assign(len, nullptr);
    p.frontier = uid();
    p.frontier_in_path = rng.Chance(0.5);
    p.valid = {time(), time()};
    out.push_back(p);
    const size_t copies = rng.Below(6);
    for (size_t c = 0; c < copies; ++c) {
      PathState q = p;
      switch (rng.Below(6)) {
        case 0:
          if (!q.uids.empty()) q.uids[rng.Below(q.uids.size())] = uid();
          break;
        case 1:
          q.frontier = uid();
          break;
        case 2:
          q.frontier_in_path = !q.frontier_in_path;
          break;
        case 3:
          q.valid.start = time();
          break;
        case 4:
          q.valid.end = time();
          break;
        default:
          break;  // an exact duplicate
      }
      out.push_back(q);
    }
  }
  for (size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.Below(i)]);
  }
  for (size_t i = 0; i < out.size(); ++i) out[i].head_frontier = i;
  return out;
}

void ExpectSameStates(const PathSet& got, const PathSet& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(IdentityOf(got[i]), IdentityOf(want[i])) << "at " << i;
    EXPECT_EQ(got[i].head_frontier, want[i].head_frontier) << "at " << i;
  }
}

TEST(PathIdentityTest, DedupPathsKeepsFirstOccurrencesLikeASetReference) {
  Rng rng(1301);
  for (int round = 0; round < 300; ++round) {
    const PathSet input = RandomPathSet(rng);
    PathSet want;
    std::set<Identity> seen;
    for (const PathState& p : input) {
      if (seen.insert(IdentityOf(p)).second) want.push_back(p);
    }
    PathSet got = input;
    storage::DedupPaths(&got);
    ExpectSameStates(got, want);
  }
}

TEST(PathIdentityTest, CanonicalizeEqualsSortUniqueInNumericOrder) {
  Rng rng(1302);
  for (int round = 0; round < 300; ++round) {
    const PathSet input = RandomPathSet(rng);
    PathSet want = input;
    std::stable_sort(want.begin(), want.end(),
                     [](const PathState& a, const PathState& b) {
                       return IdentityOf(a) < IdentityOf(b);
                     });
    want.erase(std::unique(want.begin(), want.end(),
                           [](const PathState& a, const PathState& b) {
                             return IdentityOf(a) == IdentityOf(b);
                           }),
               want.end());
    PathSet got = input;
    storage::CanonicalizePaths(&got);
    ExpectSameStates(got, want);
    // Input order does not matter, up to which duplicate survives.
    PathSet reversed(input.rbegin(), input.rend());
    storage::CanonicalizePaths(&reversed);
    ASSERT_EQ(reversed.size(), got.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(IdentityOf(reversed[i]), IdentityOf(got[i]));
    }
  }
}

TEST(PathIdentityTest, IdentityHashFollowsIdentityOnly) {
  Rng rng(1303);
  for (int round = 0; round < 100; ++round) {
    const PathSet input = RandomPathSet(rng);
    for (const PathState& a : input) {
      for (const PathState& b : input) {
        const bool same = IdentityOf(a) == IdentityOf(b);
        EXPECT_EQ(a.SameIdentity(b), same);
        if (same) {
          EXPECT_EQ(a.IdentityHash(), b.IdentityHash());
        }
      }
    }
  }
}

TEST(PathIdentityTest, PathIndexConfirmsEveryHashMatch) {
  // Every key lands on one of four hashes, so most inserts probe past
  // colliding entries whose equality test fails; growth from the default
  // capacity rehashes the table several times on the way.
  std::vector<int> keys;
  storage::PathIndex index;
  Rng rng(1304);
  for (int i = 0; i < 2000; ++i) {
    const int key = static_cast<int>(rng.Below(700));
    auto [id, inserted] = index.Insert(
        static_cast<uint64_t>(key % 4),
        [&](uint32_t other) { return keys[other] == key; });
    auto earlier = std::find(keys.begin(), keys.end(), key);
    EXPECT_EQ(inserted, earlier == keys.end()) << key;
    if (inserted) {
      EXPECT_EQ(id, keys.size());
      keys.push_back(key);
    } else {
      EXPECT_EQ(id, static_cast<uint32_t>(earlier - keys.begin()));
    }
  }
  EXPECT_EQ(index.size(), keys.size());
}

// ---- Path extension ------------------------------------------------------
//
// Both backends' ExtendAtom and FinalizeTail, against references built the
// two-step way: materialize the implicit element into a copy of the path,
// append the matched element to another copy, and only then check the far
// endpoint. The relational reference keeps the bulk join's order (one hash
// map over the materialized frontier, walked as the executor walks it), so
// outputs compare in order, field by field.

using storage::CompiledAtom;
using storage::StorageBackend;

Uid FarEnd(const ElementVersion& e, Direction dir) {
  return dir == Direction::kOut ? e.target : e.source;
}

/// Appends `v` to a copy of `state` when the cycle check and the interval
/// intersection admit it; a seed's first element becomes its head.
bool RefAppend(const PathState& state, const ElementVersion& v,
               PathState* out) {
  if (state.Contains(v.uid)) return false;
  const Interval iv = state.valid.Intersect(v.valid);
  if (iv.empty()) return false;
  *out = state;
  out->uids.push_back(v.uid);
  out->concepts.push_back(v.cls);
  out->valid = iv;
  if (state.uids.empty()) {
    out->head_frontier = v.uid;
    out->head_in_path = !v.is_edge();
  }
  return true;
}

/// Appends `state`'s frontier node (each version matching `atom`, when
/// given) to copies of it.
void RefMaterialize(const StorageBackend& store, const PathState& state,
                    const TimeView& view, const CompiledAtom* atom,
                    PathSet* out) {
  store.Get(state.frontier, view, [&](const ElementVersion& v) {
    if (atom != nullptr && !atom->Matches(v)) return;
    PathState next;
    if (!RefAppend(state, v, &next)) return;
    next.frontier = v.uid;
    next.frontier_in_path = true;
    out->push_back(std::move(next));
  });
}

/// Appends `state` followed by edge `e` to `out`, unless the far endpoint
/// closes a cycle.
void RefEdge(const PathState& state, const ElementVersion& e, Direction dir,
             PathSet* out) {
  PathState next;
  if (!RefAppend(state, e, &next)) return;
  next.frontier = FarEnd(e, dir);
  next.frontier_in_path = false;
  if (next.Contains(next.frontier)) return;
  out->push_back(std::move(next));
}

/// The graphstore's traversal, one state at a time.
PathSet RefTraverse(const StorageBackend& store, const PathSet& frontier,
                    const CompiledAtom& atom, Direction dir,
                    const TimeView& view) {
  PathSet out;
  auto edge_step = [&](const PathState& from) {
    store.IncidentEdges(from.frontier, dir, atom.cls, view,
                        [&](const ElementVersion& e) {
                          if (atom.Matches(e)) RefEdge(from, e, dir, &out);
                        });
  };
  for (const PathState& state : frontier) {
    if (atom.is_edge()) {
      PathSet with_node;
      if (state.frontier_in_path) {
        with_node.push_back(state);
      } else {
        RefMaterialize(store, state, view, nullptr, &with_node);
      }
      for (const PathState& from : with_node) edge_step(from);
    } else if (!state.frontier_in_path) {
      RefMaterialize(store, state, view, &atom, &out);
    } else {
      store.IncidentEdges(state.frontier, dir, nullptr, view,
                          [&](const ElementVersion& e) {
                            PathSet with_edge;
                            RefEdge(state, e, dir, &with_edge);
                            for (const PathState& from : with_edge) {
                              RefMaterialize(store, from, view, &atom, &out);
                            }
                          });
    }
  }
  return out;
}

/// The relational bulk join of in-path `frontier` against `atom`'s tables.
PathSet RefEdgeJoin(const relational::RelationalStore& store,
                    const PathSet& frontier, const CompiledAtom& atom,
                    Direction dir, const TimeView& view) {
  std::unordered_map<Uid, std::vector<size_t>> index;
  index.reserve(frontier.size());
  for (size_t i = 0; i < frontier.size(); ++i) {
    index[frontier[i].frontier].push_back(i);
  }
  const bool forward = dir == Direction::kOut;
  PathSet out;
  auto join_row = [&](const ElementVersion& raw) {
    if (!atom.Matches(raw)) return;
    view.Emit(raw, [&](const ElementVersion& e) {
      auto it = index.find(forward ? e.source : e.target);
      if (it == index.end()) return;
      for (size_t i : it->second) RefEdge(frontier[i], e, dir, &out);
    });
  };
  std::vector<const relational::Table*> tables =
      store.SubtreeTables(atom.cls, /*history=*/false);
  if (view.includes_closed()) {
    auto hist = store.SubtreeTables(atom.cls, /*history=*/true);
    tables.insert(tables.end(), hist.begin(), hist.end());
  }
  for (const relational::Table* table : tables) {
    if (table->row_count() <= frontier.size()) {
      table->ScanAll(join_row);
    } else {
      for (const auto& [uid, states] : index) {
        if (forward) {
          table->ForEachBySource(uid, join_row);
        } else {
          table->ForEachByTarget(uid, join_row);
        }
      }
    }
  }
  return out;
}

/// The relational executor's bulk form of the same four extensions.
PathSet RefBulk(const relational::RelationalStore& store,
                const PathSet& frontier, const CompiledAtom& atom,
                Direction dir, const TimeView& view) {
  PathSet out;
  PathSet in_path;
  for (const PathState& state : frontier) {
    if (state.frontier_in_path) {
      in_path.push_back(state);
    } else if (atom.is_edge()) {
      RefMaterialize(store, state, view, nullptr, &in_path);
    } else {
      RefMaterialize(store, state, view, &atom, &out);
    }
  }
  if (atom.is_edge()) return RefEdgeJoin(store, in_path, atom, dir, view);
  if (in_path.empty()) return out;
  CompiledAtom any_edge;
  any_edge.cls = store.schema().edge_root();
  for (const PathState& state :
       RefEdgeJoin(store, in_path, any_edge, dir, view)) {
    RefMaterialize(store, state, view, &atom, &out);
  }
  return out;
}

void ExpectSamePaths(const PathSet& got, const PathSet& want,
                     const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    const PathState& g = got[i];
    const PathState& w = want[i];
    EXPECT_TRUE(g.uids == w.uids && g.concepts == w.concepts &&
                g.valid == w.valid && g.frontier == w.frontier &&
                g.frontier_in_path == w.frontier_in_path &&
                g.head_frontier == w.head_frontier &&
                g.head_in_path == w.head_in_path)
        << context << " at " << i << ": " << g.ToString() << " head "
        << g.head_frontier << "/" << g.head_in_path << " vs "
        << w.ToString() << " head " << w.head_frontier << "/"
        << w.head_in_path;
  }
}

class PathExtensionTest : public ::testing::TestWithParam<BackendKind> {};

TEST_P(PathExtensionTest, OneCopyExtensionMatchesTwoStepReference) {
  // Small random temporal graphs: 2-cycles and self-loops, subclassed edge
  // atoms, versions closed and reopened by updates and removals. Frontiers
  // mix anchor, seed and once-extended states with the reverses of all of
  // them; each goes to ExtendAtom whole (the relational hash join) and in
  // chunks of one to three states (its index join).
  auto schema = schema::ParseSchemaDsl(R"(
    node A : Node { val: int; }
    node B : Node {}
    edge E : Edge { w: int; }
    edge F : E {}
    allow E (Node -> Node);
  )");
  ASSERT_TRUE(schema.ok()) << schema.status();
  auto atom = [&](const char* cls, const char* field = nullptr) {
    CompiledAtom a;
    a.cls = (*schema)->FindClass(cls);
    if (field != nullptr) {
      storage::FieldCondition cond;
      cond.field_index = a.cls->FieldIndex(field);
      cond.field_name = field;
      cond.value = Value(1);
      a.conditions.push_back(cond);
    }
    return a;
  };
  const std::vector<CompiledAtom> atoms = {
      atom("Node"), atom("A"), atom("A", "val"), atom("B"),
      atom("Edge"), atom("E"), atom("F"),        atom("E", "w")};
  size_t compared = 0, two_element = 0;
  Rng rng(1705);
  for (int graph = 0; graph < 12; ++graph) {
    storage::GraphDb db(*schema,
                        nepal::testing::MakeBackend(GetParam(), *schema));
    const Timestamp t0 = db.Now();
    std::vector<Uid> nodes, edges;
    for (int i = 0; i < 4 + static_cast<int>(rng.Below(3)); ++i) {
      const bool a = rng.Chance(0.6);
      auto uid = a ? db.AddNode("A", {{"val", Value(static_cast<int64_t>(
                                                  rng.Below(2)))}})
                   : db.AddNode("B", {});
      ASSERT_TRUE(uid.ok()) << uid.status();
      nodes.push_back(*uid);
    }
    auto add_edge = [&] {
      const Uid s = nodes[rng.Below(nodes.size())];
      const Uid t = rng.Chance(0.1) ? s : nodes[rng.Below(nodes.size())];
      const int64_t w = static_cast<int64_t>(rng.Below(2));
      const char* cls = rng.Chance(0.5) ? "E" : "F";
      auto uid = db.AddEdge(cls, s, t, {{"w", Value(w)}});
      ASSERT_TRUE(uid.ok()) << uid.status();
      edges.push_back(*uid);
      if (s != t && rng.Chance(0.4)) {  // a 2-cycle
        auto back = db.AddEdge(cls, t, s, {{"w", Value(w)}});
        ASSERT_TRUE(back.ok()) << back.status();
        edges.push_back(*back);
      }
    };
    for (int i = 0; i < 8; ++i) add_edge();
    for (int step = 1; step <= 2; ++step) {
      ASSERT_TRUE(db.SetTime(t0 + 10 * step).ok());
      for (int i = 0; i < 3; ++i) {
        const Uid n = nodes[rng.Below(nodes.size())];
        if (db.GetCurrent(n).ok() && db.GetCurrent(n)->cls->name() == "A") {
          ASSERT_TRUE(db.UpdateElement(n, {{"val", Value(int64_t{1})}}).ok());
        }
        const Uid e = edges[rng.Below(edges.size())];
        if (db.GetCurrent(e).ok()) {
          ASSERT_TRUE(rng.Chance(0.5)
                          ? db.RemoveElement(e).ok()
                          : db.UpdateElement(e, {{"w", Value(int64_t{1})}})
                                .ok());
        }
      }
      add_edge();
    }
    ASSERT_TRUE(db.SetTime(t0 + 30).ok());

    const StorageBackend& store = db.backend();
    auto exec = store.CreateExecutor();
    for (const TimeView& view :
         {TimeView::Current(), TimeView::AsOf(t0 + 15),
          TimeView::Range(t0 + 5, t0 + 25)}) {
      PathSet frontier = exec->Select(atom("Node"), view);
      for (const PathState& p : exec->Select(atom("Edge"), view)) {
        frontier.push_back(p);
      }
      for (const PathState& p : storage::SeedStates(nodes)) {
        frontier.push_back(p);
      }
      for (const PathState& p :
           RefTraverse(store, frontier, atom("E"), Direction::kOut, view)) {
        frontier.push_back(p);
      }
      for (size_t i = 0, n = frontier.size(); i < n; ++i) {
        PathState reversed = frontier[i];
        reversed.Reverse();
        frontier.push_back(std::move(reversed));
      }
      std::vector<PathSet> chunks;
      for (size_t i = 0; i < frontier.size();) {
        const size_t len =
            std::min<size_t>(1 + rng.Below(3), frontier.size() - i);
        chunks.emplace_back(frontier.begin() + static_cast<ptrdiff_t>(i),
                            frontier.begin() + static_cast<ptrdiff_t>(i + len));
        i += len;
      }
      chunks.push_back(frontier);

      for (const PathSet& input : chunks) {
        for (const CompiledAtom& a : atoms) {
          for (Direction dir : {Direction::kOut, Direction::kIn}) {
            const PathSet want =
                GetParam() == BackendKind::kGraphStore
                    ? RefTraverse(store, input, a, dir, view)
                    : RefBulk(
                          static_cast<const relational::RelationalStore&>(
                              store),
                          input, a, dir, view);
            const PathSet got = exec->ExtendAtom(input, a, dir, view);
            ExpectSamePaths(got, want,
                            "graph " + std::to_string(graph) + " " +
                                a.ToString() +
                                (dir == Direction::kOut ? " out" : " in"));
            compared += got.size();
            for (const PathState& p : got) {
              if (input.size() == 1 &&
                  p.uids.size() == input[0].uids.size() + 2) {
                ++two_element;
              }
            }
          }
        }
        PathSet finalized;
        for (const PathState& state : input) {
          if (state.frontier_in_path) {
            finalized.push_back(state);
          } else {
            RefMaterialize(store, state, view, nullptr, &finalized);
          }
        }
        ExpectSamePaths(exec->FinalizeTail(input, view), finalized,
                        "finalize, graph " + std::to_string(graph));
      }
    }
  }
  // Not vacuous: many extensions, some of them appending two elements.
  EXPECT_GT(compared, 50000u) << compared;
  EXPECT_GT(two_element, 2000u) << two_element;
}

INSTANTIATE_TEST_SUITE_P(
    Backends, PathExtensionTest,
    ::testing::Values(BackendKind::kGraphStore, BackendKind::kRelational),
    [](const ::testing::TestParamInfo<BackendKind>& info) {
      return nepal::testing::BackendName(info.param);
    });

// ---- Reads per Extend -----------------------------------------------------

/// Forwards every read to `inner` and counts the Get and IncidentEdges calls
/// made for each element. Writes are refused.
class CountingBackend : public StorageBackend {
 public:
  explicit CountingBackend(const StorageBackend& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  Status InsertNode(Uid, const schema::ClassDef*, std::vector<Value>,
                    Timestamp) override {
    return ReadOnly();
  }
  Status InsertEdge(Uid, const schema::ClassDef*, std::vector<Value>, Uid,
                    Uid, Timestamp) override {
    return ReadOnly();
  }
  Status Update(Uid, const std::vector<std::pair<int, Value>>&,
                Timestamp) override {
    return ReadOnly();
  }
  Status Delete(Uid, Timestamp) override { return ReadOnly(); }
  Status RestoreChain(Uid, std::vector<ElementVersion>) override {
    return ReadOnly();
  }

  void Scan(const storage::ScanSpec& spec, const TimeView& view,
            const storage::ElementSink& sink) const override {
    inner_.Scan(spec, view, sink);
  }
  void Get(Uid uid, const TimeView& view,
           const storage::ElementSink& sink) const override {
    ++gets[uid];
    inner_.Get(uid, view, sink);
  }
  void IncidentEdges(Uid node, Direction dir,
                     const schema::ClassDef* edge_cls, const TimeView& view,
                     const storage::ElementSink& sink) const override {
    ++incident[node];
    inner_.IncidentEdges(node, dir, edge_cls, view, sink);
  }
  bool Exists(Uid uid, const TimeView& view) const override {
    return inner_.Exists(uid, view);
  }
  size_t CountClass(const schema::ClassDef* cls) const override {
    return inner_.CountClass(cls);
  }
  size_t MemoryUsage() const override { return inner_.MemoryUsage(); }
  size_t VersionCount() const override { return inner_.VersionCount(); }

  /// Calls per element since the last Reset.
  mutable std::map<Uid, int> gets, incident;

  void Reset() {
    gets.clear();
    incident.clear();
  }

  /// The largest per-element count in `calls`, and their total.
  static std::pair<int, int> MaxAndTotal(const std::map<Uid, int>& calls) {
    int most = 0, total = 0;
    for (const auto& [uid, n] : calls) {
      most = std::max(most, n);
      total += n;
    }
    return {most, total};
  }

 private:
  static Status ReadOnly() { return Status::Unsupported("read-only"); }

  const StorageBackend& inner_;
};

class ReadsPerExtendTest : public ::testing::TestWithParam<BackendKind> {};

TEST_P(ReadsPerExtendTest, EachCallReadsEveryNodeOnceAndExtendsStateByState) {
  // The step-wise executor over either store, counted: frontiers of many
  // states over a few multi-version nodes, under Current, AsOf and Range
  // views. One ExtendAtom or FinalizeTail call reads each node (frontier
  // or, for node·node, far endpoint) at most once, and returns exactly
  // what one call per state returns, concatenated in frontier order.
  auto schema = schema::ParseSchemaDsl(R"(
    node A : Node { val: int; }
    node B : Node {}
    edge E : Edge { w: int; }
    edge F : E {}
    allow E (Node -> Node);
  )");
  ASSERT_TRUE(schema.ok()) << schema.status();
  auto atom = [&](const char* cls, const char* field = nullptr) {
    CompiledAtom a;
    a.cls = (*schema)->FindClass(cls);
    if (field != nullptr) {
      storage::FieldCondition cond;
      cond.field_index = a.cls->FieldIndex(field);
      cond.field_name = field;
      cond.value = Value(1);
      a.conditions.push_back(cond);
    }
    return a;
  };
  const std::vector<CompiledAtom> atoms = {
      atom("Node"), atom("A"), atom("A", "val"), atom("B"),
      atom("Edge"), atom("E"), atom("F"),        atom("E", "w")};

  storage::GraphDb db(*schema,
                      nepal::testing::MakeBackend(GetParam(), *schema));
  const Timestamp t0 = db.Now();
  std::vector<Uid> nodes;
  for (const char* cls : {"A", "A", "A", "B"}) {
    auto uid = std::string(cls) == "A"
                   ? db.AddNode(cls, {{"val", Value(int64_t{0})}})
                   : db.AddNode(cls, {});
    ASSERT_TRUE(uid.ok()) << uid.status();
    nodes.push_back(*uid);
  }
  // Every ordered pair of distinct nodes, alternating E and F, plus a
  // self-loop: 2-cycles everywhere.
  std::vector<Uid> edges;
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (size_t j = 0; j < nodes.size(); ++j) {
      if (i == j && i != 0) continue;
      auto uid = db.AddEdge((i + j) % 2 == 0 ? "E" : "F", nodes[i], nodes[j],
                            {{"w", Value(static_cast<int64_t>(j % 2))}});
      ASSERT_TRUE(uid.ok()) << uid.status();
      edges.push_back(*uid);
    }
  }
  // Each A node gets a version per step, some edges a second version, and
  // one edge goes away.
  for (int step = 1; step <= 2; ++step) {
    ASSERT_TRUE(db.SetTime(t0 + 10 * step).ok());
    for (size_t i = 0; i < 3; ++i) {
      const int64_t val = (step + static_cast<int64_t>(i)) % 2;
      ASSERT_TRUE(db.UpdateElement(nodes[i], {{"val", Value(val)}}).ok());
    }
    ASSERT_TRUE(db.UpdateElement(edges[static_cast<size_t>(step)],
                                 {{"w", Value(int64_t{1})}})
                    .ok());
  }
  ASSERT_TRUE(db.RemoveElement(edges[5]).ok());
  ASSERT_TRUE(db.SetTime(t0 + 30).ok());

  CountingBackend counting(db.backend());
  storage::TraverserExecutor exec(&counting);
  size_t states = 0, extended = 0, grouped_reads = 0, per_state_reads = 0;
  for (const TimeView& view :
       {TimeView::Current(), TimeView::AsOf(t0 + 15),
        TimeView::Range(t0 + 5, t0 + 25)}) {
    // Anchor, seed, post-edge and in-path states, and the reverses of all
    // of them, twice over: far more states than nodes.
    PathSet frontier = exec.Select(atom("Node"), view);
    for (const PathState& p : exec.Select(atom("Edge"), view)) {
      frontier.push_back(p);
    }
    for (const PathState& p : storage::SeedStates(nodes)) {
      frontier.push_back(p);
    }
    const PathSet once = exec.ExtendAtom(frontier, atom("E"), Direction::kOut,
                                         view);
    frontier.insert(frontier.end(), once.begin(), once.end());
    for (const PathState& p :
         exec.ExtendAtom(once, atom("Node"), Direction::kOut, view)) {
      frontier.push_back(p);
    }
    for (size_t i = 0, n = frontier.size(); i < n; ++i) {
      PathState reversed = frontier[i];
      reversed.Reverse();
      frontier.push_back(std::move(reversed));
    }
    for (size_t i = 0, n = frontier.size(); i < n; ++i) {
      frontier.push_back(frontier[i]);
    }
    states += frontier.size();

    auto check = [&](const std::string& context,
                     const std::function<PathSet(const PathSet&)>& call) {
      counting.Reset();
      const PathSet got = call(frontier);
      const auto [most_gets, gets] =
          CountingBackend::MaxAndTotal(counting.gets);
      const auto [most_incident, incident] =
          CountingBackend::MaxAndTotal(counting.incident);
      EXPECT_LE(most_gets, 1) << context;
      EXPECT_LE(most_incident, 1) << context;
      grouped_reads += static_cast<size_t>(gets + incident);
      counting.Reset();
      PathSet want;
      for (const PathState& state : frontier) {
        for (const PathState& p : call(PathSet{state})) want.push_back(p);
      }
      per_state_reads += static_cast<size_t>(
          CountingBackend::MaxAndTotal(counting.gets).second +
          CountingBackend::MaxAndTotal(counting.incident).second);
      ExpectSamePaths(got, want, context);
      extended += got.size();
    };
    for (const CompiledAtom& a : atoms) {
      for (Direction dir : {Direction::kOut, Direction::kIn}) {
        check(a.ToString() + (dir == Direction::kOut ? " out" : " in"),
              [&](const PathSet& in) {
                return exec.ExtendAtom(in, a, dir, view);
              });
      }
    }
    check("finalize",
          [&](const PathSet& in) { return exec.FinalizeTail(in, view); });
  }
  // Not vacuous: many states and extensions, and one call per state would
  // read many times more.
  EXPECT_GT(states, 500u) << states;
  EXPECT_GT(extended, 5000u) << extended;
  EXPECT_GT(per_state_reads, 10 * grouped_reads)
      << per_state_reads << " vs " << grouped_reads;
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ReadsPerExtendTest,
    ::testing::Values(BackendKind::kGraphStore, BackendKind::kRelational),
    [](const ::testing::TestParamInfo<BackendKind>& info) {
      return nepal::testing::BackendName(info.param);
    });

// ---- RepeatRounds ---------------------------------------------------------

/// States with the given uid lists, every frontier at uid 0 and open.
PathSet StatesOf(const std::vector<std::vector<Uid>>& uid_lists) {
  PathSet out;
  for (const std::vector<Uid>& uids : uid_lists) {
    PathState p;
    p.uids = uids;
    p.concepts.assign(uids.size(), nullptr);
    out.push_back(std::move(p));
  }
  return out;
}

TEST(RepeatRoundsTest, UnionDedupRunsOnlyWhenRoundsShareALength) {
  const PathSet seed = StatesOf({{1}});
  // Rounds of disjoint lengths: round k holds paths of length k + 1.
  auto grow = [](const PathSet& current) {
    PathSet next;
    for (const PathState& p : current) {
      for (Uid u : {Uid{10}, Uid{20}}) {
        PathState q = p;
        q.uids.push_back(u + q.uids.size());
        q.concepts.push_back(nullptr);
        next.push_back(std::move(q));
      }
    }
    return next;
  };
  storage::RoundCounts counts;
  PathSet out = storage::RepeatRounds(seed, 0, 3, grow, {}, &counts);
  EXPECT_EQ(out.size(), 1u + 2 + 4 + 8);
  EXPECT_EQ(counts.collected, out.size());
  EXPECT_EQ(counts.built, 2u + 4 + 8);

  // A round that rebuilds an earlier round's path at the same length: every
  // round k >= 1 holds {1, 2} and one path of its own length.
  auto echo = [](const PathSet& current) {
    PathSet next = StatesOf({{1, 2}});
    PathState longest = current.back();
    longest.uids.push_back(99);
    longest.concepts.push_back(nullptr);
    next.push_back(std::move(longest));
    return next;
  };
  out = storage::RepeatRounds(seed, 1, 3, echo, {}, &counts);
  std::vector<std::vector<Uid>> got;
  for (const PathState& p : out) got.push_back(p.uids);
  const std::vector<std::vector<Uid>> want = {
      {1, 2}, {1, 99}, {1, 99, 99}, {1, 99, 99, 99}};
  EXPECT_EQ(got, want);
  EXPECT_EQ(counts.collected, 6u);
  EXPECT_EQ(counts.built, 6u);

  // `keep` filters what is collected, not what the next round reads.
  out = storage::RepeatRounds(
      seed, 1, 3, echo,
      [](const PathState& p) { return p.uids.back() == 99; }, &counts);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(counts.collected, 3u);
  EXPECT_EQ(counts.built, 6u);
}

TEST(RepeatRoundsTest, SingleAtomRoundsDedupOnlyTheFirstRound) {
  // RepeatRounds never deduplicates a round: `round` does. A round that
  // builds every child twice keeps both copies; one that deduplicates only
  // round 1, as a Loop over one atom does, keeps the copies of rounds 2
  // and 3 — the Loop vouches that a one-atom round over a deduplicated
  // round builds no duplicate.
  const PathSet seed = StatesOf({{1}});
  auto twice = [](const PathSet& current) {
    PathSet next;
    for (const PathState& p : current) {
      PathState q = p;
      q.uids.push_back(10 + q.uids.size());
      q.concepts.push_back(nullptr);
      next.push_back(q);
      next.push_back(std::move(q));
    }
    return next;
  };
  storage::RoundCounts counts;
  PathSet out = storage::RepeatRounds(seed, 1, 3, twice, {}, &counts);
  EXPECT_EQ(out.size(), 2u + 4 + 8);
  EXPECT_EQ(counts.built, 2u + 4 + 8);
  int round = 0;
  auto first_deduplicated = [&](const PathSet& current) {
    PathSet next = twice(current);
    if (++round == 1) storage::DedupPaths(&next);
    return next;
  };
  out = storage::RepeatRounds(seed, 1, 3, first_deduplicated, {}, &counts);
  std::vector<size_t> lengths;
  for (const PathState& p : out) lengths.push_back(p.uids.size());
  EXPECT_EQ(lengths, (std::vector<size_t>{2, 3, 3, 4, 4, 4, 4}));
  EXPECT_EQ(counts.built, 1u + 2 + 4);
}

}  // namespace
}  // namespace nepal
