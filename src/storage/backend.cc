#include "storage/backend.h"

#include "storage/traverser_executor.h"

namespace nepal::storage {

std::unique_ptr<PathOperatorExecutor> StorageBackend::CreateExecutor() const {
  return std::make_unique<TraverserExecutor>(this);
}

double StorageBackend::EstimateScan(const ScanSpec& spec) const {
  if (spec.uid) return 1.0;
  double count = static_cast<double>(CountClass(spec.cls));
  if (spec.eq) {
    const schema::FieldDef& field =
        spec.cls->fields()[static_cast<size_t>(spec.eq->first)];
    if (field.unique) return 1.0;
    // The stats subsystem's equality estimate: exact per value, or
    // cardinality / kMaxDistinctValues once the field's counter saturated.
    if (auto exact =
            stats().EqCount(spec.cls, spec.eq->first, spec.eq->second)) {
      return *exact;
    }
    // Schema hint, without statistics: an equality predicate on a
    // non-unique field is assumed to select ~10% of the class (matches the
    // paper's fallback of using schema hints when statistics are
    // unavailable).
    return count / 10.0 + 1.0;
  }
  return count;
}

}  // namespace nepal::storage
