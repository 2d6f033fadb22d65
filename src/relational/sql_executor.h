// SqlBulkExecutor: the relational operator executor.
//
// Evaluates Select/Extend as bulk joins over the per-class tables, the way
// the paper's PostgreSQL target does: every operator materializes a TEMP
// table of paths (uid_list, concept_list, curr_uid) and the Extend operators
// are navigation joins against the edge/node tables of the atom's class
// subtree. ToSql renders each plan operator as the equivalent SQL
// (matching the generated-query examples of the paper's Section 5.2).
//
// Join strategy per table: when the stored table is smaller than the
// frontier, the executor scans the table and probes a hash built over the
// frontier's curr_uid column; otherwise it probes the table's
// source_id_/target_id_ hash index once per distinct frontier uid.

#ifndef NEPAL_RELATIONAL_SQL_EXECUTOR_H_
#define NEPAL_RELATIONAL_SQL_EXECUTOR_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "relational/relational_store.h"
#include "storage/pathset.h"

namespace nepal::relational {

class SqlBulkExecutor : public storage::PathOperatorExecutor {
 public:
  explicit SqlBulkExecutor(const RelationalStore* store) : store_(store) {}

  storage::PathSet Select(const storage::CompiledAtom& atom,
                          const storage::TimeView& view) override;
  storage::PathSet SelectSeeds(const std::vector<Uid>& nodes,
                               const storage::TimeView& view) override;
  storage::PathSet ExtendAtom(const storage::PathSet& frontier,
                              const storage::CompiledAtom& atom,
                              storage::Direction dir,
                              const storage::TimeView& view) override;
  storage::PathSet FinalizeTail(const storage::PathSet& frontier,
                                const storage::TimeView& view) override;
  std::vector<std::string> ToSql(const storage::CompiledAtom& atom,
                                 storage::Direction dir,
                                 const storage::TimeView& view, int input,
                                 int output) const override;

 private:
  using FrontierIndex = std::unordered_map<Uid, std::vector<size_t>>;

  /// Groups state indexes by frontier uid.
  static FrontierIndex BuildFrontierIndex(const storage::PathSet& frontier);

  /// Splits off the states whose frontier node is not yet materialized and
  /// appends its version(s), so all returned states are in-path.
  storage::PathSet MaterializeFrontiers(const storage::PathSet& frontier,
                                        const storage::TimeView& view,
                                        const storage::CompiledAtom* node_atom);

  /// Bulk join of in-path states against the edge tables of `atom`'s
  /// subtree. Emits post-edge states.
  void EdgeJoin(const storage::PathSet& frontier,
                const storage::CompiledAtom& atom, storage::Direction dir,
                const storage::TimeView& view, storage::PathSet* out);

  const RelationalStore* store_;
};

}  // namespace nepal::relational

#endif  // NEPAL_RELATIONAL_SQL_EXECUTOR_H_
