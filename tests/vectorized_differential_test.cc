// Row-vs-batch differential oracle (PR 8): the same query executed by the
// vectorized columnar engine and by the row-at-a-time engine must produce
// the same bag of rows — exactly, not approximately, since the vectorized
// aggregates accumulate in input-row order by construction.
//
// Sweeps:
//   (a) random aggregate query/view pairs, both the original query and the
//       optimizer's chosen (possibly view-substituting) plan;
//   (b) the same sweep over NULL-heavy databases (random NULL injection at
//       ~30% per value), over empty tables, and over single-row tables;
//   (c) the Example 1.1 telephony workload, direct and rewritten, plus the
//       service path with ServiceOptions::vectorized on vs off;
//   (d) the batched join: string keys over different dictionaries, NULL
//       keys, INT64 keys against integral DOUBLE keys, duplicate build
//       keys, 3-way, cyclic and self joins, cross-input non-equi filters,
//       post-join HAVING/DISTINCT, and NULL bitmaps crossing 64-row words
//       and 1024-row batches — compared bit for bit, types included;
//   (e) the key table's two forms: INT64 key spans at and one past the
//       direct limit for joins and group-bys, negative keys, probe keys
//       outside the build range, INT64_MIN/INT64_MAX keys (hashed: their
//       span overflows), NULL keys, INT64 builds against DOUBLE probes,
//       duplicate build keys in insertion order, an empty build side, and
//       groups in first-encountered order.
//
// Engagement is asserted — the oracle is vacuous if the columnar path
// silently falls back everywhere — and every failure prints the seed
// (replay with AQV_TEST_SEED=<n>) and the exact SQL.

#include <bit>
#include <cstring>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/exec_context.h"
#include "exec/evaluator.h"
#include "ir/printer.h"
#include "parser/parser.h"
#include "rewrite/optimizer.h"
#include "rewrite/rewriter.h"
#include "service/query_service.h"
#include "tests/test_util.h"
#include "workload/random_query.h"
#include "workload/telephony.h"

namespace aqv {
namespace {

constexpr int kPairsPerSweep = 15;
constexpr int kDatabasesPerPair = 2;

EvalOptions RowOptions() {
  EvalOptions options;
  options.vectorized = false;
  return options;
}

RandomPairConfig ConfigForParam(int param) {
  RandomPairConfig config;
  config.query_aggregation = (param % 2) == 0;
  config.view_aggregation = (param % 3) == 0;
  config.equality_only = (param % 4) != 3;
  return config;
}

/// Replaces ~null_pct% of the values in every base table with NULL,
/// deterministically from `seed`. Exercises the null bitmaps, the NULL
/// predicate semantics, and groups keyed by NULL.
void InjectNulls(Database* db, uint64_t seed, int null_pct) {
  std::mt19937_64 rng(seed ^ 0x5eedull);
  for (const std::string& name : db->TableNames()) {
    Table copy = *db->GetShared(name);
    for (Row& row : *copy.mutable_rows()) {
      for (Value& v : row) {
        if (static_cast<int>(rng() % 100) < null_pct) v = Value::Null();
      }
    }
    db->Put(name, std::move(copy));
  }
}

void MaterializeInto(Database* db, const ViewRegistry& views,
                     const std::string& name) {
  Evaluator eval(db, &views);
  Result<Table> contents = eval.MaterializeView(name);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  db->Put(name, *std::move(contents));
}

/// The oracle step: `query` through a vectorized evaluator and a row-engine
/// evaluator over the same database must agree exactly. Returns the number
/// of vectorized operators the batch engine reported.
size_t ExpectEnginesAgree(const Query& query, const Database& db,
                          const ViewRegistry* views) {
  Evaluator vec_eval(&db, views);
  Evaluator row_eval(&db, views, RowOptions());
  Result<Table> vec = vec_eval.Execute(query);
  Result<Table> row = row_eval.Execute(query);
  // Both engines must agree on status too (e.g. a view that fails to
  // materialize fails identically either way).
  EXPECT_EQ(vec.ok(), row.ok())
      << "engines disagree on status:\n  vec: " << vec.status().ToString()
      << "\n  row: " << row.status().ToString();
  if (!vec.ok() || !row.ok()) return 0;
  EXPECT_EQ(row_eval.stats().vectorized_ops, 0u);
  EXPECT_TRUE(MultisetEqual(*vec, *row))
      << "vectorized engine diverged from row engine:\n  "
      << DescribeMultisetDifference(*vec, *row) << "\nvectorized:\n"
      << vec->ToString() << "row engine:\n" << row->ToString();
  return vec_eval.stats().vectorized_ops;
}

class VectorizedDifferentialTest : public ::testing::TestWithParam<int> {};

// (a) Random query/view pairs: the original query and the optimizer's
// chosen plan, each executed by both engines.
TEST_P(VectorizedDifferentialTest, RandomWorkloadMatchesRowEngine) {
  uint64_t seed = TestSeed(18000 + GetParam());
  SCOPED_TRACE(SeedTrace(seed));
  RandomWorkloadGen gen(seed);
  RandomPairConfig config = ConfigForParam(GetParam());
  size_t vectorized_ops = 0;
  for (int q = 0; q < kPairsPerSweep; ++q) {
    QueryViewPair pair = gen.NextPair(config);
    ViewRegistry views;
    ASSERT_OK(views.Register(pair.view));
    SCOPED_TRACE("repro:\n  Q: " + ToSql(pair.query) +
                 "\n  V: CREATE MATERIALIZED VIEW " + pair.view.name + " AS " +
                 ToSql(pair.view.query));
    for (int d = 0; d < kDatabasesPerPair; ++d) {
      // Large enough that joined intermediates cross the columnar
      // conversion threshold on a fair fraction of the pairs.
      Database db = gen.NextDatabase(60, 3);
      MaterializeInto(&db, views, pair.view.name);
      vectorized_ops += ExpectEnginesAgree(pair.query, db, &views);

      Optimizer optimizer(&db, &views, &gen.catalog());
      Result<OptimizeResult> plan = optimizer.Optimize(pair.query);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      SCOPED_TRACE("chosen plan: " + ToSql(plan->chosen));
      vectorized_ops += ExpectEnginesAgree(plan->chosen, db, &views);
    }
  }
  // The oracle must actually compare engines, not fallback against itself.
  EXPECT_GT(vectorized_ops, 0u);
}

// (b) NULL-heavy databases: ~30% of all base values replaced with NULL.
TEST_P(VectorizedDifferentialTest, NullHeavyDataMatchesRowEngine) {
  uint64_t seed = TestSeed(19000 + GetParam());
  SCOPED_TRACE(SeedTrace(seed));
  RandomWorkloadGen gen(seed);
  RandomPairConfig config = ConfigForParam(GetParam());
  for (int q = 0; q < kPairsPerSweep; ++q) {
    QueryViewPair pair = gen.NextPair(config);
    ViewRegistry views;
    ASSERT_OK(views.Register(pair.view));
    SCOPED_TRACE("repro:\n  Q: " + ToSql(pair.query) +
                 "\n  V: CREATE MATERIALIZED VIEW " + pair.view.name + " AS " +
                 ToSql(pair.view.query));
    Database db = gen.NextDatabase(40, 3);
    InjectNulls(&db, seed + static_cast<uint64_t>(q), 30);
    MaterializeInto(&db, views, pair.view.name);
    ExpectEnginesAgree(pair.query, db, &views);
  }
}

// (b) Degenerate cardinalities: empty base tables (empty groups, global
// aggregates over nothing) and single-row tables.
TEST_P(VectorizedDifferentialTest, EmptyAndSingleRowTablesMatchRowEngine) {
  uint64_t seed = TestSeed(20000 + GetParam());
  SCOPED_TRACE(SeedTrace(seed));
  RandomWorkloadGen gen(seed);
  RandomPairConfig config = ConfigForParam(GetParam());
  for (int rows_per_table : {0, 1}) {
    SCOPED_TRACE("rows_per_table=" + std::to_string(rows_per_table));
    for (int q = 0; q < kPairsPerSweep; ++q) {
      QueryViewPair pair = gen.NextPair(config);
      ViewRegistry views;
      ASSERT_OK(views.Register(pair.view));
      SCOPED_TRACE("repro:\n  Q: " + ToSql(pair.query));
      Database db = gen.NextDatabase(rows_per_table, 3);
      MaterializeInto(&db, views, pair.view.name);
      ExpectEnginesAgree(pair.query, db, &views);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, VectorizedDifferentialTest,
                         ::testing::Range(0, 6));

// Deterministic engagement: a single-table aggregation runs fully columnar
// (scan + aggregate, two vectorized operators), at any input size.
TEST(VectorizedDifferentialTest, SingleTableAggregationRunsColumnar) {
  Table t({"A", "B"});
  for (int i = 0; i < 100; ++i) {
    t.AddRowOrDie(Row{Value::Int64(i % 5), Value::Int64(i)});
  }
  Database db;
  db.Put("T", std::move(t));
  Query q;
  q.from = {TableRef{"T", {"A", "B"}}};
  q.select = {SelectItem::MakeColumn("A", "A"),
              SelectItem::MakeAggregate(AggFn::kSum, "B", "SB"),
              SelectItem::MakeAggregate(AggFn::kAvg, "B", "AB")};
  q.group_by = {"A"};
  q.where = {
      {Operand::Column("B"), CmpOp::kGe, Operand::Constant(Value::Int64(10))}};

  Evaluator vec_eval(&db);
  ASSERT_OK_AND_ASSIGN(Table vec, vec_eval.Execute(q));
  EXPECT_EQ(vec_eval.stats().vectorized_ops, 2u);
  Evaluator row_eval(&db, nullptr, RowOptions());
  ASSERT_OK_AND_ASSIGN(Table row, row_eval.Execute(q));
  EXPECT_TRUE(MultisetEqual(vec, row)) << DescribeMultisetDifference(vec, row);
}

// (c) The paper's Example 1.1 workload: the query over raw Calls, the
// Rewriter's view-substituting form over the materialized summary, and the
// service path with the vectorized option on vs off.
TEST(VectorizedDifferentialTest, TelephonyWorkloadMatchesRowEngine) {
  TelephonyParams params;
  params.num_calls = 20000;
  params.num_customers = 200;
  params.earnings_threshold = 1e5;
  params.seed = TestSeed(42);
  SCOPED_TRACE(SeedTrace(params.seed));
  TelephonyWorkload w = MakeTelephonyWorkload(params);
  {
    Evaluator eval(&w.db, &w.views);
    ASSERT_OK_AND_ASSIGN(Table v1, eval.MaterializeView("V1"));
    w.db.Put("V1", std::move(v1));
  }

  size_t vectorized_ops = ExpectEnginesAgree(w.query, w.db, &w.views);
  EXPECT_GT(vectorized_ops, 0u);

  Rewriter rewriter(&w.views);
  ASSERT_OK_AND_ASSIGN(Query rewritten, rewriter.RewriteUsingView(w.query, "V1"));
  SCOPED_TRACE("rewritten: " + ToSql(rewritten));
  // The rewritten form is a single-table aggregation over V1 — the shape
  // the fully-columnar fast path owns.
  EXPECT_GT(ExpectEnginesAgree(rewritten, w.db, &w.views), 0u);

  // Service path: identical answers with the option on and off.
  ServiceOptions vec_options;
  ASSERT_TRUE(vec_options.vectorized);
  QueryService vec_service(vec_options);
  ASSERT_OK(vec_service.Bootstrap(w.catalog, w.db.Snapshot(), w.views));
  ServiceOptions row_options;
  row_options.vectorized = false;
  QueryService row_service(row_options);
  ASSERT_OK(row_service.Bootstrap(w.catalog, w.db.Snapshot(), w.views));
  std::string sql = ToSql(w.query);
  SCOPED_TRACE("service SQL: " + sql);
  ASSERT_OK_AND_ASSIGN(Table vec_table, vec_service.Select(sql));
  ASSERT_OK_AND_ASSIGN(Table row_table, row_service.Select(sql));
  EXPECT_TRUE(MultisetEqual(vec_table, row_table))
      << DescribeMultisetDifference(vec_table, row_table);
}

// (d) The batched join against the row engine.

/// A row rendered with each value's type and exact bits, so the comparison
/// below distinguishes INT64 3 from DOUBLE 3.0 and any DOUBLE rounding.
std::string TypedRow(const Row& row) {
  std::string out;
  for (const Value& v : row) {
    switch (v.type()) {
      case ValueType::kNull:
        out += "N|";
        break;
      case ValueType::kInt64:
        out += "I" + std::to_string(v.int64()) + "|";
        break;
      case ValueType::kDouble:
        out += "D" + std::to_string(std::bit_cast<uint64_t>(v.dbl())) + "|";
        break;
      case ValueType::kString:
        out += "S" + v.str() + "|";
        break;
    }
  }
  return out;
}

std::multiset<std::string> TypedRows(const Table& t) {
  std::multiset<std::string> out;
  for (const Row& row : t.rows()) out.insert(TypedRow(row));
  return out;
}

/// R(K, S, D, V) and T(K, S, D, W) share small key domains, so keys repeat
/// on both sides; ~15% of every key and value is NULL, always including
/// the rows on each side of a 64-row word and of the 1024-row batch. The
/// two string columns are filled in different orders over overlapping
/// domains, so their dictionaries assign different codes and each holds
/// strings the other lacks. D holds integral doubles (joinable with K) and
/// some halves. U(K, X) is a small third input.
Database JoinOracleDatabase(uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto boundary = [](size_t r) {
    for (size_t b : {size_t{64}, size_t{128}, size_t{1024}}) {
      if (r + 1 == b || r == b) return true;
    }
    return false;
  };
  auto maybe_null = [&](size_t r, Value v) {
    return boundary(r) || rng() % 100 < 15 ? Value::Null() : std::move(v);
  };
  auto make = [&](const std::string& name, size_t rows, int first_string,
                  int num_strings, bool reverse_strings) {
    Table t({"K", "S", "D", name == "R" ? "V" : "W"});
    for (size_t r = 0; r < rows; ++r) {
      int k = static_cast<int>(rng() % 25);
      int si = static_cast<int>(rng() % static_cast<uint64_t>(num_strings));
      if (reverse_strings) si = num_strings - 1 - si;
      double d = static_cast<double>(rng() % 25) + (rng() % 5 == 0 ? 0.5 : 0.0);
      double v = static_cast<double>(rng() % 1000) / 7.0;
      std::string str = "s" + std::to_string(first_string + si);
      t.AddRowOrDie(Row{maybe_null(r, Value::Int64(k)),
                        maybe_null(r, Value::String(std::move(str))),
                        maybe_null(r, Value::Double(d)),
                        maybe_null(r, Value::Double(v))});
    }
    return t;
  };
  Database db;
  db.Put("R", make("R", 1500, 0, 20, false));
  db.Put("T", make("T", 300, 8, 20, true));
  Table u({"K", "X"});
  for (int k = 0; k < 40; ++k) {
    u.AddRowOrDie(Row{k % 7 == 3 ? Value::Null() : Value::Int64(k % 30),
                      Value::Int64(static_cast<int64_t>(rng() % 5))});
  }
  db.Put("U", std::move(u));
  return db;
}

/// `sql` through both engines over `db`: the batched engine must take the
/// batched path and return the row engine's rows type-and-bit-exact (in
/// the same order when `in_order`), and both must charge the same rows, so
/// a row budget trips at the same statement size in either. Returns the
/// batched run's EXPLAIN ANALYZE operator labels, one a line.
std::string ExpectBatchedMatchesRowEngine(const Database& db,
                                          const std::string& sql,
                                          bool in_order = false) {
  Result<Query> q = ParseQuery(sql);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  if (!q.ok()) return "";
  Evaluator vec_eval(&db);
  Evaluator row_eval(&db, nullptr, RowOptions());
  ExecContext vec_ctx, row_ctx;
  PlanProfile profile;
  vec_eval.set_context(&vec_ctx);
  vec_eval.set_profile(&profile);
  row_eval.set_context(&row_ctx);
  Result<Table> vec = vec_eval.Execute(*q);
  Result<Table> row = row_eval.Execute(*q);
  EXPECT_TRUE(vec.ok()) << vec.status().ToString();
  EXPECT_TRUE(row.ok()) << row.status().ToString();
  if (!vec.ok() || !row.ok()) return "";
  // Every case must take the batched path, not fall back.
  EXPECT_GE(vec_eval.stats().vectorized_ops, 2u);
  EXPECT_EQ(row_eval.stats().vectorized_ops, 0u);
  EXPECT_TRUE(TypedRows(*vec) == TypedRows(*row))
      << DescribeMultisetDifference(*vec, *row) << "\nvectorized:\n"
      << vec->ToString() << "row engine:\n" << row->ToString();
  if (in_order) {
    std::vector<std::string> vec_rows, row_rows;
    for (const Row& r : vec->rows()) vec_rows.push_back(TypedRow(r));
    for (const Row& r : row->rows()) row_rows.push_back(TypedRow(r));
    EXPECT_TRUE(vec_rows == row_rows) << "rows differ in order";
  }
  const size_t charged = row_ctx.rows_charged();
  EXPECT_EQ(vec_ctx.rows_charged(), charged);
  for (size_t budget : {charged, charged - 1}) {
    for (bool vectorized : {true, false}) {
      EvalOptions options;
      options.vectorized = vectorized;
      Evaluator eval(&db, nullptr, options);
      ExecContext ctx;
      ctx.set_row_budget(budget);
      eval.set_context(&ctx);
      Result<Table> r = eval.Execute(*q);
      EXPECT_EQ(r.ok(), budget == charged)
          << "vectorized=" << vectorized << " budget=" << budget << ": "
          << r.status().ToString();
    }
  }
  std::string labels;
  for (const OperatorProfile& op : profile.ops) labels += op.label + "\n";
  return labels;
}

TEST(VectorizedDifferentialTest, BatchedJoinMatchesRowEngineBitForBit) {
  const char* kR = "R(K1, S1, D1, V1)";
  const char* kT = "T(K2, S2, D2, W2)";
  const char* kU = "U(K3, X3)";
  const char* kR2 = "R(K2, S2, D2, W2)";
  struct Case {
    std::string what;
    std::string sql;
  };
  const std::string rt = std::string(" FROM ") + kR + ", " + kT;
  const std::vector<Case> cases = {
      {"string keys, different dictionaries",
       "SELECT S2, SUM(V1) AS s, COUNT(K1) AS n" + rt +
           " WHERE S1 = S2 GROUPBY S2"},
      {"INT64 keys against integral DOUBLE keys",
       "SELECT K1, SUM(W2) AS s, MIN(V1) AS lo, MAX(S2) AS hi" + rt +
           " WHERE K1 = D2 GROUPBY K1"},
      {"duplicate keys, two-column key",
       "SELECT K1, S1, AVG(W2) AS a, COUNT(D2) AS n" + rt +
           " WHERE K1 = K2 AND S1 = S2 GROUPBY K1, S1"},
      {"global aggregate behind filters on both inputs",
       "SELECT COUNT(K1) AS n, SUM(V1) AS s, SUM(W2) AS w" + rt +
           " WHERE K1 = K2 AND V1 > 60 AND W2 <= 100 AND D1 <> 3"},
      {"3-way join",
       "SELECT X3, SUM(V1) AS s, COUNT(W2) AS n" + rt + ", " + kU +
           " WHERE K1 = K2 AND K2 = K3 GROUPBY X3"},
      {"3-way cycle (a leftover equi edge)",
       "SELECT K3, SUM(W2) AS s" + rt + ", " + kU +
           " WHERE K1 = K2 AND K2 = K3 AND K3 = K1 GROUPBY K3"},
      {"self-join with a cross-input non-equi filter",
       std::string("SELECT K1, SUM(W2) AS s, COUNT(V1) AS n FROM ") + kR +
           ", " + kR2 + " WHERE K1 = K2 AND V1 < W2 GROUPBY K1"},
      {"cross-input non-equi filters over strings and mixed families",
       "SELECT S1, COUNT(S2) AS n" + rt +
           " WHERE K1 = K2 AND S1 < S2 AND S1 <> D2 GROUPBY S1"},
      {"post-join HAVING",
       "SELECT S1, SUM(V1) AS s" + rt +
           " WHERE K1 = K2 GROUPBY S1 HAVING SUM(V1) > 2000"},
      {"conjunctive join projection",
       "SELECT K1, S2, V1" + rt + " WHERE K1 = K2 AND V1 > 50 AND W2 <> V1"},
      {"post-join DISTINCT",
       "SELECT DISTINCT S1, K2" + rt + " WHERE S1 = S2"},
      {"null-heavy conjuncts over one input",
       std::string("SELECT K1, COUNT(V1) AS n, SUM(D1) AS d FROM ") + kR +
           " WHERE V1 > 20 AND K1 < 20 AND D1 >= 3 AND S1 <> 's3' GROUPBY K1"},
      {"conjunctive scan", std::string("SELECT K1, V1 FROM ") + kR +
                               " WHERE V1 <= 70 AND K1 <> 3 AND D1 = 4"},
  };
  for (int round = 0; round < 3; ++round) {
    uint64_t seed = TestSeed(23000) + static_cast<uint64_t>(round);
    SCOPED_TRACE(SeedTrace(seed));
    Database db = JoinOracleDatabase(seed);
    for (const Case& c : cases) {
      SCOPED_TRACE(c.what + ": " + c.sql);
      ExpectBatchedMatchesRowEngine(db, c.sql);
    }
  }
}

/// B(K, V) and C(K, V) are 100-row build sides whose INT64 key spans
/// exactly the direct form's limit (4 slots per keyed row: K in [0, 399])
/// and one more (K in [0, 400]); their keys repeat and ~10% are NULL.
/// P(K, D, W) is a 2000-row probe side: K in [-60, 460] (negative, and
/// outside the build range on both ends), D integral doubles and halves,
/// ~10% NULL. G(K, V) and H(K, V) are 300-row group-by inputs whose K spans
/// 1200 and 1201 values from -600, ~10% NULL. X(K, V) and Y(K, W) hold
/// INT64_MIN and INT64_MAX keys, inserted as SQL literals.
Database KeyTableOracleDatabase(uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto payload = [&] {
    return Value::Double(static_cast<double>(rng() % 100000) / 7.0);
  };
  auto key = [&](int64_t lo, int64_t hi) {
    return rng() % 10 == 0
               ? Value::Null()
               : Value::Int64(lo + static_cast<int64_t>(
                                       rng() % static_cast<uint64_t>(hi - lo + 1)));
  };
  // A build side: 40 distinct keys pinned to min and max, drawn with
  // repeats.
  auto build = [&](int64_t max) {
    std::vector<int64_t> pool{0, max};
    while (pool.size() < 40) {
      pool.push_back(static_cast<int64_t>(rng() % static_cast<uint64_t>(max)));
    }
    Table t({"K", "V"});
    for (size_t r = 0; r < 100; ++r) {
      Value k = r < 2 ? Value::Int64(pool[r])
                : rng() % 10 == 0 ? Value::Null()
                                  : Value::Int64(pool[rng() % pool.size()]);
      t.AddRowOrDie(Row{std::move(k), payload()});
    }
    return t;
  };
  auto groups = [&](int64_t span) {
    Table t({"K", "V"});
    for (size_t r = 0; r < 300; ++r) {
      Value k = r == 0   ? Value::Int64(-600)
                : r == 1 ? Value::Int64(-600 + span - 1)
                         : key(-600, -600 + span - 1);
      t.AddRowOrDie(Row{std::move(k), payload()});
    }
    return t;
  };
  Database db;
  db.Put("B", build(399));
  db.Put("C", build(400));
  Table p({"K", "D", "W"});
  for (size_t r = 0; r < 2000; ++r) {
    Value d = rng() % 10 == 0
                  ? Value::Null()
                  : Value::Double(static_cast<double>(rng() % 410) - 5.0 +
                                  (rng() % 4 == 0 ? 0.5 : 0.0));
    p.AddRowOrDie(Row{key(-60, 460), std::move(d), payload()});
  }
  db.Put("P", std::move(p));
  db.Put("G", groups(1200));
  db.Put("H", groups(1201));
  auto from_sql = [](std::vector<std::string> columns, const std::string& sql) {
    Table t(std::move(columns));
    Result<InsertStatement> ins = ParseInsert(sql);
    EXPECT_TRUE(ins.ok()) << ins.status().ToString();
    if (ins.ok()) {
      for (Row& row : ins->rows) t.AddRowOrDie(std::move(row));
    }
    return t;
  };
  db.Put("X", from_sql({"K", "V"},
                       "INSERT INTO X VALUES (-9223372036854775808, 1.5), "
                       "(9223372036854775807, 2.25), (0, 3.125), (NULL, 4.0), "
                       "(-9223372036854775808, 5.5), (-1, 6.75), "
                       "(9223372036854775807, 7.0), (1, 8.5)"));
  db.Put("Y", from_sql({"K", "W"},
                       "INSERT INTO Y VALUES (9223372036854775807, 0.1), "
                       "(-9223372036854775808, 0.2), (NULL, 0.3), (1, 0.4), "
                       "(-9223372036854775807, 0.5), (0, 0.6), "
                       "(9223372036854775806, 0.7), (-9223372036854775808, 0.8), "
                       "(9223372036854775807, 0.9), (-1, 1.1), (2, 1.2), "
                       "(0, 1.3)"));
  return db;
}

/// The key table in both forms against the row engine: each case names the
/// form its HashJoin or HashAggregate must report in EXPLAIN ANALYZE.
TEST(VectorizedDifferentialTest, KeyTableFormsMatchRowEngineBitForBit) {
  const char* kB = "B(K1, V1)";
  const char* kC = "C(K1, V1)";
  const char* kP = "P(K2, D2, W2)";
  struct Case {
    std::string what;
    std::string sql;
    std::string keys;  // expected in the profile's labels
  };
  const std::string bp = std::string(" FROM ") + kB + ", " + kP;
  const std::vector<Case> cases = {
      {"join key span at the direct limit, probe keys negative and outside",
       "SELECT K1, SUM(W2) AS s, COUNT(V1) AS n" + bp +
           " WHERE K1 = K2 GROUPBY K1",
       "HashJoin(K1 = K2; keys: direct[400])"},
      {"join key span one past the direct limit",
       std::string("SELECT K1, SUM(W2) AS s, COUNT(V1) AS n FROM ") + kC +
           ", " + kP + " WHERE K1 = K2 GROUPBY K1",
       "HashJoin(K1 = K2; keys: hashed)"},
      {"duplicate build keys sum in insertion order",
       "SELECT K2, SUM(V1) AS s, MIN(V1) AS lo, MAX(V1) AS hi" + bp +
           " WHERE K1 = K2 GROUPBY K2",
       "keys: direct[400]"},
      {"INT64 build keys against integral and fractional DOUBLE probes",
       "SELECT K1, COUNT(D2) AS n, SUM(W2) AS s" + bp +
           " WHERE K1 = D2 GROUPBY K1",
       "HashJoin(K1 = D2; keys: hashed)"},
      {"empty build side",
       "SELECT K1, SUM(W2) AS s" + bp + " WHERE K1 = K2 AND V1 > 1e9 GROUPBY K1",
       "HashJoin(K1 = K2; keys: hashed)"},
      {"empty build side, global aggregate",
       "SELECT COUNT(W2) AS n, SUM(W2) AS s" + bp +
           " WHERE K1 = K2 AND V1 > 1e9",
       "HashJoin(K1 = K2; keys: hashed)"},
      {"INT64 extremes overflow the span: hashed join and group-by",
       "SELECT K1, SUM(W2) AS s, COUNT(V1) AS n FROM X(K1, V1), Y(K2, W2) "
       "WHERE K1 = K2 AND K1 > -9223372036854775808 GROUPBY K1",
       "HashJoin(K1 = K2; keys: hashed)"},
      {"INT64 extremes group-by, NULL its own group",
       "SELECT K2, SUM(W2) AS s, COUNT(K2) AS n FROM Y(K2, W2) GROUPBY K2",
       "keys: hashed)"},
      {"group-by key span at the direct limit, negative keys, NULL group",
       "SELECT K1, SUM(V1) AS s, COUNT(V1) AS n, MAX(V1) AS hi FROM G(K1, V1) "
       "GROUPBY K1",
       "keys: direct[1200])"},
      {"group-by key span one past the direct limit",
       "SELECT K1, SUM(V1) AS s, COUNT(V1) AS n, MAX(V1) AS hi FROM H(K1, V1) "
       "GROUPBY K1",
       "keys: hashed)"},
  };
  // Conjunctive joins, compared in order: probe order, then build
  // insertion order.
  const std::vector<Case> ordered = {
      {"direct join projection", "SELECT K1, V1, W2" + bp + " WHERE K1 = K2",
       "keys: direct[400]"},
      {"hashed join projection",
       std::string("SELECT K1, V1, W2 FROM ") + kC + ", " + kP +
           " WHERE K1 = K2",
       "keys: hashed"},
      {"INT64 extremes join projection",
       "SELECT K1, V1, W2 FROM X(K1, V1), Y(K2, W2) WHERE K1 = K2",
       "keys: hashed"},
  };
  for (int round = 0; round < 3; ++round) {
    uint64_t seed = TestSeed(24000) + static_cast<uint64_t>(round);
    SCOPED_TRACE(SeedTrace(seed));
    Database db = KeyTableOracleDatabase(seed);
    for (bool in_order : {false, true}) {
      for (const Case& c : in_order ? ordered : cases) {
        SCOPED_TRACE(c.what + ": " + c.sql);
        std::string labels = ExpectBatchedMatchesRowEngine(db, c.sql, in_order);
        EXPECT_NE(labels.find(c.keys), std::string::npos) << labels;
      }
    }

    // Groups come out first-encountered, with NULL one group at its first
    // position.
    ASSERT_OK_AND_ASSIGN(Query q,
                         ParseQuery("SELECT K1, COUNT(V1) AS n FROM G(K1, V1) "
                                    "GROUPBY K1"));
    Evaluator eval(&db);
    ASSERT_OK_AND_ASSIGN(Table grouped, eval.Execute(q));
    std::vector<std::string> want;
    std::set<std::string> seen;
    for (const Row& row : db.GetShared("G")->rows()) {
      std::string k = TypedRow({row[0]});
      if (seen.insert(k).second) want.push_back(k);
    }
    std::vector<std::string> got;
    for (const Row& row : grouped.rows()) got.push_back(TypedRow({row[0]}));
    EXPECT_EQ(got, want);
    EXPECT_TRUE(seen.count("N|") == 1);
  }
}

TEST(VectorizedDifferentialTest, NullKeysNeverJoin) {
  Table r({"K", "V"});
  Table t({"K", "W"});
  for (int i = 0; i < 200; ++i) {
    r.AddRowOrDie(Row{i % 2 == 0 ? Value::Null() : Value::Int64(i % 3),
                      Value::Int64(i)});
    t.AddRowOrDie(Row{i % 3 == 0 ? Value::Null() : Value::Double(i % 3),
                      Value::Int64(i)});
  }
  Database db;
  db.Put("R", std::move(r));
  db.Put("T", std::move(t));
  ASSERT_OK_AND_ASSIGN(
      Query q, ParseQuery("SELECT COUNT(V1) AS n FROM R(K1, V1), T(K2, W2) "
                          "WHERE K1 = K2"));
  Evaluator vec_eval(&db);
  ASSERT_OK_AND_ASSIGN(Table vec, vec_eval.Execute(q));
  EXPECT_GE(vec_eval.stats().vectorized_ops, 3u);
  // Non-NULL keys: R has 100 rows with K in {1, 2, 0} (i odd), T has 133
  // with K in {1.0, 2.0}; each R key 1/2 meets every equal T key.
  int64_t want = 0;
  for (int i = 1; i < 200; i += 2) {
    int k = i % 3;
    if (k == 0) continue;
    for (int j = 0; j < 200; ++j) {
      if (j % 3 == k) ++want;
    }
  }
  ASSERT_EQ(vec.num_rows(), 1u);
  EXPECT_EQ(vec.rows()[0][0], Value::Int64(want));
  Evaluator row_eval(&db, nullptr, RowOptions());
  ASSERT_OK_AND_ASSIGN(Table row, row_eval.Execute(q));
  EXPECT_TRUE(TypedRows(vec) == TypedRows(row));
}

}  // namespace
}  // namespace aqv
