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
// source_id_/target_id_ hash index once per distinct frontier uid. Node
// lookups — the implicit node an edge join appends, the frontier node a
// node atom or Finalize matches, the far endpoint of node·node — go
// through the uid registry once per distinct node per call
// (storage/frontier_reads.h), and every state checks against those reads.
// In a goal-directed Loop's round, the edge join's emit applies the atom's
// RoundFilter to every joined pair before the copy (storage::RoundReads),
// so that round builds only the paths the Loop can extend or hand on.

#ifndef NEPAL_RELATIONAL_SQL_EXECUTOR_H_
#define NEPAL_RELATIONAL_SQL_EXECUTOR_H_

#include <string>
#include <vector>

#include "relational/relational_store.h"
#include "storage/frontier_reads.h"
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
  /// One input row of an edge join: a frontier state and, when its frontier
  /// node is not yet in its path, the version of that node the join appends
  /// before the edge (the implicit node of edge·edge, or a seed's node).
  struct JoinInput {
    size_t state;               // index into the joined frontier
    storage::PathElement node;  // no element: frontier already in path
    Interval valid;             // the state's interval, narrowed by `node`
  };

  /// The inputs of an edge atom over `frontier`: an in-path state joins as
  /// it is; any other state joins once per version of its frontier node
  /// that passes the cycle check and the interval intersection, each
  /// distinct frontier node read once through `reads`.
  std::vector<JoinInput> EdgeJoinInputs(const storage::PathSet& frontier,
                                        storage::FrontierReads& reads) const;

  /// Appends each post-edge state extended by each version of its frontier
  /// node that `reads` admits to `out`, so appended states are in-path.
  /// In-path states pass through unchanged when `keep_in_path` is set and
  /// are skipped otherwise.
  void MaterializeFrontiers(const storage::PathSet& frontier,
                            storage::FrontierReads& reads, bool keep_in_path,
                            storage::PathSet* out) const;

  /// Bulk join of `inputs` (over `frontier`) against the edge tables of
  /// `atom`'s subtree. Runs every check on the parent state — cycle checks
  /// of the implicit node, the edge and the far endpoint, and the interval
  /// intersection (storage::EdgeStepValid) — and calls
  /// emit(input, edge, far, valid) for each pair that passes, in join
  /// order. Builds no path itself.
  template <typename Emit>
  void EdgeJoin(const storage::PathSet& frontier,
                const std::vector<JoinInput>& inputs,
                const storage::CompiledAtom& atom, storage::Direction dir,
                const storage::TimeView& view, const Emit& emit) const;

  const RelationalStore* store_;
};

}  // namespace nepal::relational

#endif  // NEPAL_RELATIONAL_SQL_EXECUTOR_H_
