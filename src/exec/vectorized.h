#ifndef AQV_EXEC_VECTORIZED_H_
#define AQV_EXEC_VECTORIZED_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/exec_context.h"
#include "base/value.h"
#include "exec/column_batch.h"
#include "exec/expression.h"
#include "exec/operators.h"
#include "ir/query.h"

namespace aqv {

/// Batch-at-a-time operators over ColumnarTable images. Each operator is
/// compiled once per query against concrete columns (so all type dispatch
/// happens per column, not per value), then runs tight typed loops in
/// kBatchRows chunks, charging the ExecContext per batch — governance
/// (deadline / row budget / cancel) therefore fires *inside* a long scan.
///
/// Operators never build rows in the middle of a plan: a filtered scan
/// yields a selection vector, a join yields a JoinIndex (one row-id vector
/// per bound input), and aggregation and projection read their columns
/// through those ids. Rows are materialized only for the output.
///
/// Compilation fails (returns false) whenever the row engine's semantics
/// cannot be reproduced exactly — a kMixed column, too many grouping
/// columns, SUM/AVG over a string column. Callers then fall back to the
/// row-at-a-time operators in exec/operators.h; results are bit-identical
/// either way (the invariant enforced by tests/vectorized_differential_test).

/// The columns of a relation over one or more columnar inputs, in layout
/// order: column j is `cols[j]`, stored in FROM input `inputs[j]`. Which
/// row of that input a relation position reads is given by RowIds.
struct RelationColumns {
  std::vector<const Column*> cols;
  std::vector<int> inputs;

  /// Appends every column of `table` as columns of FROM input `input`.
  void Add(const ColumnarTable& table, int input);
  /// The columns of a single table (input 0).
  static RelationColumns Of(const ColumnarTable& table);
};

/// Per-input row ids of a relation: position k of the relation reads row
/// ids[i][k] of input i; a null ids[i] means position k reads row k.
using RowIds = std::vector<const uint32_t*>;

/// A conjunction of scalar predicates compiled against a relation's
/// columns. Mirrors FilterRows/EvalScalarPredicate exactly: NULL operands
/// evaluate to false, numerics compare as doubles across INT64/DOUBLE
/// (three-way, so a NaN compares "equal" like EvalCmp), cross-family
/// comparisons are false except `<>`, unresolvable columns yield NULL.
class CompiledFilter {
 public:
  /// Compiles `preds` (each must be scalar); `layout` maps column names to
  /// ordinals of `rel`. Returns false — leaving `*out` unusable — if any
  /// referenced column is kMixed or a predicate is not scalar.
  static bool Compile(const std::vector<Predicate>& preds,
                      const ColumnIndexMap& layout, const RelationColumns& rel,
                      CompiledFilter* out);
  /// Single-table form: `layout` maps names to columns of `table`.
  static bool Compile(const std::vector<Predicate>& preds,
                      const ColumnIndexMap& layout, const ColumnarTable& table,
                      CompiledFilter* out) {
    return Compile(preds, layout, RelationColumns::Of(table), out);
  }

  /// Selection of the rows of `table` (the single table this filter was
  /// compiled against) satisfying the conjunction, ascending. Charges one
  /// row per input row in kBatchRows chunks; on a tripped context the
  /// partial selection is returned for the caller to discard.
  SelVector Run(const ColumnarTable& table, ExecContext* ctx) const;

  /// Relation positions in [0, n) that satisfy the conjunction, reading
  /// columns through `ids`. Charges one row per position.
  SelVector Select(const RowIds& ids, size_t n, ExecContext* ctx) const;

  bool empty() const { return preds_.empty(); }

  /// One compiled conjunct. Internal, exposed for the batch-layer tests.
  struct Pred {
    enum class Kind : uint8_t {
      kAlwaysTrue,   // constant-constant, true
      kAlwaysFalse,  // constant-constant false, NULL operand, cross != kNe
      kNumConst,     // numeric column `op` numeric constant
      kStrConst,     // string column vs string constant: per-code mask
      kNumNum,       // numeric column `op` numeric column
      kStrStr,       // string column `op` string column
      kNotNullNe,    // cross-family `<>`: true iff operand column(s) non-NULL
    };
    Kind kind = Kind::kAlwaysFalse;
    CmpOp op = CmpOp::kEq;
    const Column* lhs = nullptr;
    const Column* rhs = nullptr;
    int lhs_input = 0;
    int rhs_input = 0;
    double cval = 0.0;               // kNumConst
    /// kNumConst over an INT64 column: `column op ival` over integers gives
    /// exactly EvalCmp's double verdict, so the scan skips the conversion.
    bool int_domain = false;
    int64_t ival = 0;
    std::vector<uint8_t> dict_pass;  // kStrConst: pass/fail per dict code
  };

 private:
  std::vector<Pred> preds_;
};

/// Which form of key table keyed a join or a group-by (see the key table in
/// vectorized.cc), for EXPLAIN ANALYZE: a direct-indexed array over a
/// single INT64 key's [min, max] span, or the hashed table for every other
/// key. kNone: no key table ran (a global aggregate).
struct KeyForm {
  enum class Kind : uint8_t { kNone, kDirect, kHashed };
  Kind kind = Kind::kNone;
  uint64_t span = 0;  // kDirect: max - min + 1 of the key column

  /// "direct[<span>]", "hashed" or "none".
  std::string ToString() const;
};

/// Hash-group aggregation compiled against a relation's columns: group ids
/// come from the key table, which keys canonical values (integral doubles
/// collapse to INT64, exactly like the row engine's CanonicalKey), and each
/// aggregate runs a typed accumulation loop chosen once from the column's
/// storage class. State mirrors Aggregator field-for-field — the double sum
/// is accumulated in relation-position order, so SUM/AVG results are
/// bit-identical to the row engine, not merely close.
class VectorizedAggregation {
 public:
  /// Compiles grouping by `group_cols` with aggregates `aggs` (ordinals of
  /// `rel`). Returns false if any referenced column is kMixed, there are
  /// more than kMaxGroupCols grouping columns, or a SUM/AVG argument is a
  /// string column (the row engine's error behaviour is preserved by
  /// falling back).
  static bool Compile(const RelationColumns& rel,
                      const std::vector<int>& group_cols,
                      const std::vector<AggSpec>& aggs,
                      VectorizedAggregation* out);

  /// Aggregates relation positions [0, n), reading columns through `ids`.
  /// Output rows are [group values..., aggregate values...] like
  /// GroupAggregate; group values are the first-encountered originals and
  /// a global aggregate over empty input still emits one row. Charges one
  /// row per position in kBatchRows chunks. `keys`, when given, receives
  /// the form of key table that grouped the rows.
  std::vector<Row> Run(const RowIds& ids, size_t n, ExecContext* ctx,
                       KeyForm* keys = nullptr) const;

  static constexpr size_t kMaxGroupCols = 4;

 private:
  /// Typed value stream an aggregate consumes: fixed at compile time since
  /// a non-kMixed column holds one type (a product of a string operand is
  /// always NULL, hence kNullStream).
  enum class Stream : uint8_t { kInt, kDbl, kStr, kNullStream };

  struct Agg {
    AggFn fn;
    Stream stream = Stream::kNullStream;
    const Column* col = nullptr;
    int input = 0;
    const Column* mult = nullptr;  // scaled argument (Section 4 multiplicity)
    int mult_input = 0;
  };

  std::vector<const Column*> group_cols_;
  std::vector<int> group_inputs_;
  std::vector<Agg> aggs_;
};

/// A late-materialized join result: for every bound FROM input, the row of
/// that input at each position of the relation. Positions are in the row
/// engine's order (HashJoin: probe order, then build insertion order), so
/// order-sensitive consumers — DOUBLE sums — see exactly the rows the row
/// engine would feed them.
class JoinIndex {
 public:
  explicit JoinIndex(size_t num_inputs)
      : rows_(num_inputs), identity_(num_inputs, false) {}

  /// Starts the relation as the rows `sel` of input `input`.
  void Seed(int input, SelVector sel);
  /// Starts the relation as all `num_rows` rows of input `input`, without
  /// materializing their ids.
  void SeedAll(int input, size_t num_rows);

  /// Hash equi-joins input `input` (its rows `sel`) into the relation on
  /// `keys` = (relation ordinal of a bound column, relation ordinal of a
  /// column of `input`), building on the smaller side like HashJoin. NULL
  /// keys never match; numeric keys match across INT64/DOUBLE; string keys
  /// match by content across dictionaries. Charges like HashJoin: one row
  /// per build row, per probe row and per match. Returns the form of key
  /// table that keyed the build side.
  KeyForm HashJoin(const RelationColumns& rel,
                   const std::vector<std::pair<int, int>>& keys, int input,
                   const SelVector& sel, ExecContext* ctx);

  /// Keeps the positions satisfying `filter` (compiled against the
  /// relation's columns). Charges one row per position.
  void Filter(const CompiledFilter& filter, ExecContext* ctx);

  size_t size() const { return size_; }
  RowIds ids() const;

 private:
  void Keep(const SelVector& positions);

  std::vector<SelVector> rows_;
  std::vector<bool> identity_;  // seeded with SeedAll: position == row
  std::vector<int> bound_;
  size_t size_ = 0;
};

/// Materializes columns `ordinals` of `rel` at positions [0, n) into rows.
/// Charges one row per position, like ProjectRows.
std::vector<Row> GatherColumns(const RelationColumns& rel, const RowIds& ids,
                               size_t n, const std::vector<int>& ordinals,
                               ExecContext* ctx);

}  // namespace aqv

#endif  // AQV_EXEC_VECTORIZED_H_
