// VersionChain: the per-element transaction-time version list shared by
// storage backends. Versions are ordered by start time and pairwise
// disjoint; at most the last one is open (end == kTimestampMax). A version
// closed at the instant it opened stays in the chain as a zero-length
// version [t, t) (see storage/element.h).

#ifndef NEPAL_STORAGE_VERSION_CHAIN_H_
#define NEPAL_STORAGE_VERSION_CHAIN_H_

#include <vector>

#include "common/status.h"
#include "storage/element.h"

namespace nepal::storage {

class VersionChain {
 public:
  /// The open version, or nullptr if the element is currently deleted.
  const ElementVersion* Current() const {
    if (versions_.empty() || !versions_.back().is_current()) return nullptr;
    return &versions_.back();
  }

  /// Appends a new open version starting at `t`, stamped as born by commit
  /// `epoch` (0 = restored/pre-epoch). Fails if one is open or if `t`
  /// precedes the last closed version's end.
  Status Open(ElementVersion v, Timestamp t, uint64_t epoch = 0) {
    if (Current() != nullptr) {
      return Status::AlreadyExists("uid " + std::to_string(v.uid) +
                                   " already has an open version");
    }
    if (!versions_.empty() && versions_.back().valid.end > t) {
      return Status::InvalidArgument("non-monotone version open for uid " +
                                     std::to_string(v.uid));
    }
    v.valid = Interval{t, kTimestampMax};
    v.birth_epoch = epoch;
    v.close_epoch = kEpochMax;
    versions_.push_back(std::move(v));
    return Status::OK();
  }

  /// Closes the open version at `t`, stamped as closed by commit `epoch`.
  /// Closing at the version's own start keeps it as a zero-length version:
  /// no time view admits it, but a view pinned between its birth and close
  /// epochs still reads it as open.
  Status Close(Timestamp t, uint64_t epoch = 0) {
    if (Current() == nullptr) {
      return Status::NotFound("no open version to close");
    }
    if (t < versions_.back().valid.start) {
      return Status::InvalidArgument("non-monotone version close for uid " +
                                     std::to_string(versions_.back().uid));
    }
    versions_.back().valid.end = t;
    versions_.back().close_epoch = epoch;
    return Status::OK();
  }

  /// Emits every version admitted by `view` (at most one for Current/AsOf).
  void ForEach(const TimeView& view, const ElementSink& sink) const {
    if (view.is_current() && !view.has_epoch()) {
      if (const ElementVersion* cur = Current()) sink(*cur);
      return;
    }
    for (const ElementVersion& v : versions_) {
      view.Emit(v, sink);
    }
  }

  const std::vector<ElementVersion>& versions() const { return versions_; }
  bool empty() const { return versions_.empty(); }

  size_t MemoryUsage() const {
    size_t bytes = sizeof(VersionChain);
    for (const ElementVersion& v : versions_) {
      bytes += sizeof(ElementVersion);
      for (const Value& val : v.fields) bytes += val.MemoryUsage();
    }
    return bytes;
  }

 private:
  std::vector<ElementVersion> versions_;
};

}  // namespace nepal::storage

#endif  // NEPAL_STORAGE_VERSION_CHAIN_H_
