#ifndef AQV_EXEC_EVALUATOR_H_
#define AQV_EXEC_EVALUATOR_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/exec_context.h"
#include "base/result.h"
#include "exec/table.h"
#include "ir/query.h"
#include "ir/views.h"

namespace aqv {

/// One executed operator of a profiled query: the label matches the
/// EXPLAIN plan rendering ("Scan R [100 rows] filter(...)", "HashJoin(...)
/// with S [10 rows]", "HashAggregate(...)", ...); rows and micros are
/// actuals observed during execution. Scan labels keep the "[N rows]"
/// stored-cardinality annotation — the number the cost model estimates
/// from — so EXPLAIN ANALYZE shows estimate and actual side by side.
struct OperatorProfile {
  std::string label;
  size_t rows_in = 0;
  size_t rows_out = 0;
  uint64_t micros = 0;
};

/// Per-operator runtime profile of one top-level Execute call (the data
/// behind EXPLAIN ANALYZE). Nested blocks are not expanded: a registered
/// view computed on demand appears as a single "Materialize" operator.
struct PlanProfile {
  std::vector<OperatorProfile> ops;
  uint64_t total_micros = 0;
};

/// Evaluation knobs. The default plan pushes single-table filters below the
/// joins and uses greedy left-deep hash equi-joins; the reference plan is a
/// filtered Cartesian product, used by tests as an executable specification
/// of multiset semantics.
struct EvalOptions {
  bool use_hash_join = true;
  /// Batch-at-a-time columnar execution (exec/vectorized.h) over the
  /// tables' cached columnar images: filtered scans, hash equi-joins,
  /// cross-input filters, hash-group aggregation and projection all run on
  /// selection vectors and join indexes, materializing rows only for the
  /// output. A block with an operator that has no batched form — a
  /// Cartesian step, a mixed-type column, more than four grouping keys,
  /// SUM/AVG over strings — runs wholly on the row engine, as do HAVING
  /// and DISTINCT; results are identical either way (enforced by
  /// tests/vectorized_differential_test.cc). Only effective with
  /// use_hash_join: the Cartesian reference plan stays pure row-at-a-time,
  /// as it is the executable specification tests compare against.
  bool vectorized = true;
};

/// Counters for benches and plan-quality assertions.
struct EvalStats {
  size_t peak_intermediate_rows = 0;
  size_t views_materialized = 0;
  /// Operators executed by the vectorized engine, cumulative across
  /// Execute calls (scans/filters and aggregations count separately). Lets
  /// tests assert the columnar path actually engaged rather than silently
  /// falling back.
  size_t vectorized_ops = 0;
};

/// Executes single-block queries against a Database under multiset
/// semantics. A FROM entry naming a table stored in the Database scans the
/// stored contents (this is how *materialized* views are served); a FROM
/// entry naming a registered but unmaterialized view is computed on demand
/// from its definition and cached for the lifetime of the Evaluator.
class Evaluator {
 public:
  explicit Evaluator(const Database* db, const ViewRegistry* views = nullptr,
                     EvalOptions options = EvalOptions{})
      : db_(db), views_(views), options_(options) {}

  /// Evaluates `query`; output columns are query.OutputColumns().
  Result<Table> Execute(const Query& query);

  /// Materializes the named view from its registered definition (through the
  /// cache). Use the result with Database::Put to simulate a maintained
  /// materialized view.
  Result<Table> MaterializeView(const std::string& name);

  const EvalStats& stats() const { return stats_; }
  void ClearViewCache() {
    view_cache_.clear();
    pinned_.clear();
  }

  /// Attaches a per-operator profile collector to subsequent Execute calls
  /// (top-level stages only). `profile` must outlive the Evaluator or be
  /// detached with set_profile(nullptr); it is cleared on each Execute.
  /// Null (the default) disables collection — and its timing overhead.
  void set_profile(PlanProfile* profile) { profile_ = profile; }

  /// Attaches per-statement resource governance (deadline, row budget,
  /// cancel) to subsequent Execute calls, including nested view
  /// materialization. When a limit trips mid-operator, Execute discards the
  /// partial output and returns the context's status. `ctx` must outlive
  /// the Evaluator or be detached with set_context(nullptr).
  void set_context(ExecContext* ctx) { ctx_ = ctx; }

 private:
  static constexpr int kMaxViewDepth = 16;

  class OpClock;

  Result<Table> ExecuteInternal(const Query& query, int depth);
  /// Runs the block's scans, joins and aggregation (or projection) on the
  /// batched operators over row ids, leaving in `*out` the grouped rows of
  /// an aggregate query or the output rows of a conjunctive one. Returns
  /// false, having run nothing, when some operator has no batched form.
  Result<bool> ExecuteBatched(const Query& query,
                              const std::vector<const Table*>& inputs,
                              OpClock& clock, std::vector<Row>* out);
  /// The row-at-a-time engine; same contract as ExecuteBatched.
  Status ExecuteRows(const Query& query,
                     const std::vector<const Table*>& inputs, OpClock& clock,
                     std::vector<Row>* out);
  void NoteRows(size_t rows) {
    stats_.peak_intermediate_rows =
        std::max(stats_.peak_intermediate_rows, rows);
  }
  Result<const Table*> InputTable(const std::string& name, int depth);

  const Database* db_;
  const ViewRegistry* views_;
  EvalOptions options_;
  std::map<std::string, Table> view_cache_;
  /// Stored-table versions read so far: pinning the shared_ptr makes every
  /// read of one name repeatable within this Evaluator and keeps the rows
  /// alive even if a writer replaces the stored version mid-execution.
  std::map<std::string, TablePtr> pinned_;
  EvalStats stats_;
  PlanProfile* profile_ = nullptr;
  ExecContext* ctx_ = nullptr;
};

}  // namespace aqv

#endif  // AQV_EXEC_EVALUATOR_H_
