// ElementVersion and TimeView: the units the storage layer trades in.
//
// Nepal is a transaction-time temporal database: every node/edge is stored
// as one or more *versions*, each valid over a half-open interval of system
// time. A TimeView tells a read which versions it may see:
//   - Current : only open versions (the "current snapshot" table),
//   - AsOf(t) : versions whose interval contains t (timeslice queries),
//   - Range   : versions overlapping [t1, t2) (time-range queries; the
//               executor intersects intervals along each pathway).
//
// A view may additionally carry a *snapshot epoch* (WithEpoch): versions
// born after the epoch are invisible, and versions closed after it are
// still open as of the snapshot. Epoch-stamped views are how every query
// observes a batch-granular commit point without serializing against the
// writer for the whole evaluation (see GraphDb::commit_epoch()).
//
// A version inserted and closed at the same transaction instant stays in
// the store as a *zero-length* version [t, t) carrying both epochs. No
// time view admits an empty interval, so Current, AsOf and Range reads
// (the checkpoint writer's Range(All) scan included) never see it; a view
// pinned to an epoch in [birth, close) sees it open, exactly as a read at
// that commit did.

#ifndef NEPAL_STORAGE_ELEMENT_H_
#define NEPAL_STORAGE_ELEMENT_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "common/value.h"
#include "schema/class_def.h"

namespace nepal::storage {

/// Sentinel for "not closed by any commit yet" (open versions).
inline constexpr uint64_t kEpochMax = UINT64_MAX;

/// One version of a node or edge. `fields` is the flattened row aligned with
/// cls->fields(); edges additionally carry endpoint uids. `birth_epoch` /
/// `close_epoch` record which commit epoch opened/closed the version;
/// checkpoint-restored versions carry epoch 0 ("before every snapshot").
struct ElementVersion {
  Uid uid = kInvalidUid;
  const schema::ClassDef* cls = nullptr;
  Interval valid = Interval::All();
  std::vector<Value> fields;
  Uid source = kInvalidUid;  // edges only
  Uid target = kInvalidUid;  // edges only
  uint64_t birth_epoch = 0;
  uint64_t close_epoch = kEpochMax;

  bool is_edge() const { return cls != nullptr && cls->is_edge(); }
  bool is_current() const { return valid.end == kTimestampMax; }
};

class TimeView {
 public:
  enum class Kind { kCurrent, kAsOf, kRange };

  static TimeView Current() { return TimeView(Kind::kCurrent, Interval::All()); }
  static TimeView AsOf(Timestamp t) {
    return TimeView(Kind::kAsOf, Interval::At(t));
  }
  static TimeView Range(Timestamp start, Timestamp end) {
    return TimeView(Kind::kRange, Interval{start, end});
  }
  static TimeView Range(const Interval& iv) {
    return TimeView(Kind::kRange, iv);
  }

  Kind kind() const { return kind_; }
  bool is_current() const { return kind_ == Kind::kCurrent; }
  /// True when the view's *temporal kind* reaches into history. Used by the
  /// optimizer (history-depth cost multipliers) and SQL rendering; storage
  /// probes that must also cover epoch-patched closed versions use
  /// includes_closed() instead.
  bool needs_history() const { return kind_ != Kind::kCurrent; }
  const Interval& range() const { return range_; }

  /// Same view pinned to commit epoch `e` (see GraphDb::commit_epoch()).
  TimeView WithEpoch(uint64_t e) const {
    TimeView v = *this;
    v.epoch_ = e;
    return v;
  }
  bool has_epoch() const { return epoch_ != 0; }
  uint64_t epoch() const { return epoch_; }

  /// True when the view must examine closed versions: historical kinds, or
  /// a snapshot epoch (a version closed after the epoch is still open as of
  /// the snapshot and may live in a history table).
  bool includes_closed() const {
    return kind_ != Kind::kCurrent || epoch_ != 0;
  }

  /// True if a version valid over `iv` is visible under this view. An
  /// empty interval (a zero-length version) is never visible.
  bool Admits(const Interval& iv) const {
    if (iv.empty()) return false;
    switch (kind_) {
      case Kind::kCurrent:
        return iv.end == kTimestampMax;
      case Kind::kAsOf:
      case Kind::kRange:
        return iv.Overlaps(range_);
    }
    return false;
  }

  /// Epoch-aware admission: versions born after the snapshot epoch are
  /// invisible; versions closed after it are treated as still open.
  /// Equivalent to Admits(v.valid) when the view carries no epoch.
  bool AdmitsVersion(const ElementVersion& v) const {
    if (epoch_ == 0) return Admits(v.valid);
    if (v.birth_epoch > epoch_) return false;
    Interval iv = v.valid;
    if (v.close_epoch > epoch_) iv.end = kTimestampMax;
    return Admits(iv);
  }

  /// Admission + emission in one step: sinks `v` if admitted, substituting
  /// a copy whose interval end is patched back to "open" when the version
  /// was closed after the snapshot epoch — so downstream consumers (the
  /// executor's interval intersection, result rendering) see exactly what
  /// a locked read at the snapshot would have. Returns whether it emitted.
  template <typename Fn>
  bool Emit(const ElementVersion& v, Fn&& sink) const {
    if (!AdmitsVersion(v)) return false;
    if (epoch_ != 0 && v.close_epoch > epoch_ && !v.is_current()) {
      ElementVersion patched = v;
      patched.valid.end = kTimestampMax;
      sink(patched);
    } else {
      sink(v);
    }
    return true;
  }

 private:
  TimeView(Kind kind, Interval range) : kind_(kind), range_(range) {}
  Kind kind_;
  Interval range_;
  uint64_t epoch_ = 0;  // 0 = no snapshot epoch (reads the store as is)
};

enum class Direction { kOut, kIn, kBoth };

/// A class scan with pushed-down constraints. `cls` is matched
/// polymorphically (the scan covers every transitive subclass).
struct ScanSpec {
  const schema::ClassDef* cls = nullptr;
  std::optional<Uid> uid;  // exact-uid lookup (the `id=` pseudo-field)
  /// Equality on a field of cls's layout, usable by backend indexes.
  std::optional<std::pair<int, Value>> eq;
  /// Residual row filter applied after the pushed-down constraints.
  std::function<bool(const ElementVersion&)> filter;

  bool Matches(const ElementVersion& v) const {
    if (!v.cls->IsSubclassOf(cls)) return false;
    if (uid && v.uid != *uid) return false;
    if (eq && !(v.fields[static_cast<size_t>(eq->first)] == eq->second)) {
      return false;
    }
    return !filter || filter(v);
  }
};

using ElementSink = std::function<void(const ElementVersion&)>;

}  // namespace nepal::storage

#endif  // NEPAL_STORAGE_ELEMENT_H_
