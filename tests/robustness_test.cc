// Robustness: malformed inputs must produce Status errors, never crashes;
// cyclic view definitions are cut off; the parser survives fuzzed inputs;
// the governed service (PR 4) holds the same "clean Status, no crash"
// contract for fuzzed statements and fuzzed failpoint specs.

#include <limits>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "base/failpoint.h"
#include "exec/evaluator.h"
#include "ir/builder.h"
#include "parser/parser.h"
#include "rewrite/rewriter.h"
#include "service/query_service.h"
#include "tests/test_util.h"

namespace aqv {
namespace {

TEST(RobustnessTest, ParserSurvivesTruncations) {
  const std::string full =
      "SELECT A1, SUM(B1 * C1) AS s, SUM(B1) / SUM(C1) AS r "
      "FROM R1(A1, B1, C1), R2(D1, E1) WHERE A1 = D1 AND B1 <> 'x' "
      "GROUPBY A1 HAVING SUM(B1) >= 2.5";
  // Every prefix must either parse or fail cleanly.
  for (size_t len = 0; len <= full.size(); ++len) {
    Result<Query> r = ParseQuery(full.substr(0, len));
    if (len == full.size()) {
      EXPECT_TRUE(r.ok()) << r.status();
    }
  }
}

TEST(RobustnessTest, ParserSurvivesMutations) {
  const std::string base =
      "SELECT A1, COUNT(B1) AS n FROM R1(A1, B1) WHERE A1 < 5 GROUPBY A1";
  const char kNoise[] = "()=<>,.*/'\"xyz019 ";
  std::mt19937_64 rng(4242);
  int parsed = 0;
  for (int i = 0; i < 500; ++i) {
    std::string mutated = base;
    int edits = 1 + static_cast<int>(rng() % 4);
    for (int e = 0; e < edits; ++e) {
      size_t pos = rng() % mutated.size();
      mutated[pos] = kNoise[rng() % (sizeof(kNoise) - 1)];
    }
    Result<Query> r = ParseQuery(mutated);  // must not crash
    parsed += r.ok();
  }
  // Some mutations still parse (e.g. digit swaps); most fail cleanly.
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, 500);
}

TEST(RobustnessTest, CyclicViewDefinitionsCutOff) {
  // V_a is defined over V_b and vice versa; materialization must terminate
  // with an error rather than recursing forever. (Registration itself
  // cannot catch it: each definition is valid in isolation.)
  ViewRegistry views;
  ASSERT_OK(views.Register(ViewDef{
      "V_a", QueryBuilder().From("V_b", {"X1"}).Select("X1").BuildOrDie()}));
  ASSERT_OK(views.Register(ViewDef{
      "V_b", QueryBuilder().From("V_a", {"Y1"}).Select("Y1").BuildOrDie()}));
  Database db;
  Evaluator eval(&db, &views);
  Result<Table> r = eval.MaterializeView("V_a");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(RobustnessTest, SelfReferentialViewCutOff) {
  ViewRegistry views;
  ASSERT_OK(views.Register(ViewDef{
      "V", QueryBuilder().From("V", {"X1"}).Select("X1").BuildOrDie()}));
  Database db;
  Evaluator eval(&db, &views);
  EXPECT_FALSE(eval.MaterializeView("V").ok());
}

TEST(RobustnessTest, DeepButAcyclicViewChainWorks) {
  // A chain of 10 stacked views is within the depth limit.
  ViewRegistry views;
  Database db;
  Table t({"a"});
  t.AddRowOrDie({Value::Int64(1)});
  db.Put("T", std::move(t));
  std::string below = "T";
  for (int i = 0; i < 10; ++i) {
    std::string name = "L" + std::to_string(i);
    ASSERT_OK(views.Register(ViewDef{
        name, QueryBuilder().From(below, {"X1"}).Select("X1").BuildOrDie()}));
    below = name;
  }
  Evaluator eval(&db, &views);
  ASSERT_OK_AND_ASSIGN(Table result, eval.MaterializeView("L9"));
  EXPECT_EQ(result.num_rows(), 1u);
}

TEST(RobustnessTest, RewriterRejectsMalformedInputs) {
  ViewRegistry views;
  ASSERT_OK(views.Register(ViewDef{
      "V", QueryBuilder().From("T", {"X1"}).Select("X1").BuildOrDie()}));
  Rewriter rewriter(&views);
  Query bad;  // empty query
  EXPECT_FALSE(rewriter.RewritingsUsingView(bad, "V").ok());
  Query q = QueryBuilder().From("T", {"A1"}).Select("A1").BuildOrDie();
  EXPECT_EQ(rewriter.RewritingsUsingView(q, "NoSuchView").status().code(),
            StatusCode::kNotFound);
}

TEST(RobustnessTest, EvaluatorDetectsArityDrift) {
  // A view whose stored materialization has the wrong arity is rejected
  // rather than read out of bounds.
  Database db;
  Table wrong({"only_one"});
  wrong.AddRowOrDie({Value::Int64(1)});
  db.Put("V", std::move(wrong));
  Query q = QueryBuilder().From("V", {"A1", "B1"}).Select("A1").BuildOrDie();
  Evaluator eval(&db, nullptr);
  EXPECT_EQ(eval.Execute(q).status().code(), StatusCode::kInvalidArgument);
}

TEST(RobustnessTest, FailpointSpecParserSurvivesFuzz) {
  // Mutated failpoint specs either parse or fail with InvalidArgument; a
  // bad spec never arms the site (a local registry keeps the fuzz away
  // from the process-global one).
  const std::string kBases[] = {"off", "error", "error(25)", "error(100,3)",
                                "delay(500)", "delay(500,50,2)"};
  const char kNoise[] = "(),0123456789errodlayf %-";
  std::mt19937_64 rng(TestSeed(4243));
  int accepted = 0;
  for (int i = 0; i < 500; ++i) {
    FailpointRegistry reg;
    std::string spec = kBases[rng() % (sizeof(kBases) / sizeof(kBases[0]))];
    int edits = 1 + static_cast<int>(rng() % 3);
    for (int e = 0; e < edits; ++e) {
      size_t pos = rng() % spec.size();
      spec[pos] = kNoise[rng() % (sizeof(kNoise) - 1)];
    }
    Status s = reg.Set("site", spec);  // must not crash
    if (s.ok()) {
      ++accepted;
    } else {
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << spec;
      EXPECT_FALSE(reg.any_armed()) << spec;
    }
  }
  // Some mutations still parse (digit swaps inside numbers); most fail.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 500);
}

TEST(RobustnessTest, ServiceRefusesUnrepresentableNumerals) {
  // Numerals that used to abort the process (an uncaught std::out_of_range)
  // or be half-read now fail the statement and leave the table unchanged.
  QueryService service;
  ASSERT_OK(service.Execute("CREATE TABLE T(K, X)").status());
  ASSERT_OK(service.Execute("INSERT INTO T VALUES (1, 2)").status());
  for (const char* sql :
       {"SELECT K_1 FROM T WHERE K_1 = 99999999999999999999",
        "INSERT INTO T VALUES (1, 1e309)", "INSERT INTO T VALUES (1.2.3, 4)",
        "DELETE FROM T WHERE X = 1e400", "UPDATE T SET X = 1e309"}) {
    Result<StatementResult> r = service.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << sql << ": " << r.status().ToString();
  }
  ASSERT_OK_AND_ASSIGN(Table rows, service.Select("SELECT K_1, X_1 FROM T"));
  ASSERT_EQ(rows.num_rows(), 1u);
  EXPECT_EQ(rows.rows()[0][1], Value::Int64(2));
}

TEST(RobustnessTest, ServiceTakesInt64MinLiteralsAndRefusesOnePast) {
  // INT64_MIN is written as a minus and the magnitude 2^63: INSERT, WHERE
  // and UPDATE SET take it; one past it, or the bare magnitude, is refused
  // and leaves the table unchanged.
  QueryService service;
  ASSERT_OK(service.Execute("CREATE TABLE T(K, X)").status());
  ASSERT_OK(
      service.Execute("INSERT INTO T VALUES (-9223372036854775808, 1), (2, 3)")
          .status());
  ASSERT_OK(service
                .Execute("UPDATE T SET X = -9223372036854775808 "
                         "WHERE K = -9223372036854775808")
                .status());
  ASSERT_OK_AND_ASSIGN(
      Table hit,
      service.Select("SELECT K_1, X_1 FROM T WHERE K_1 = -9223372036854775808"));
  ASSERT_EQ(hit.num_rows(), 1u);
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(hit.rows()[0][0], Value::Int64(kMin));
  EXPECT_EQ(hit.rows()[0][1], Value::Int64(kMin));
  for (const char* sql :
       {"INSERT INTO T VALUES (-9223372036854775809, 1)",
        "INSERT INTO T VALUES (9223372036854775808, 1)",
        "SELECT K_1 FROM T WHERE K_1 = -9223372036854775809",
        "SELECT K_1 FROM T WHERE K_1 = 9223372036854775808",
        "UPDATE T SET X = -9223372036854775809 WHERE K = 2",
        "UPDATE T SET X = 9223372036854775808 WHERE K = 2"}) {
    Result<StatementResult> r = service.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << sql << ": " << r.status().ToString();
  }
  ASSERT_OK_AND_ASSIGN(Table rows,
                       service.Select("SELECT K_1, X_1 FROM T WHERE K_1 = 2"));
  ASSERT_EQ(rows.num_rows(), 1u);
  EXPECT_EQ(rows.rows()[0][1], Value::Int64(3));
  ASSERT_OK_AND_ASSIGN(Table all, service.Select("SELECT K_1 FROM T"));
  EXPECT_EQ(all.num_rows(), 2u);
}

// Statement keywords must end at a word boundary, and a trailing count must
// be a count: each input below used to run a statement it only resembles.
class KeywordBoundaryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(service_.Execute("CREATE TABLE T(A, B)").status());
    ASSERT_OK(service_.Execute("CREATE MATERIALIZED VIEW V AS SELECT A_1, "
                               "SUM(B_1) FROM T GROUPBY A_1")
                  .status());
  }

  void ExpectRefused(const std::string& sql) {
    Result<StatementResult> r = service_.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql << " ran: " << r->message;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << sql << ": " << r.status().ToString();
  }

  QueryService service_;
};

TEST_F(KeywordBoundaryTest, RefreshGluedToAViewNameIsRefused) {
  ExpectRefused("REFRESHV");
}

TEST_F(KeywordBoundaryTest, WhyGluedToAWordIsRefused) {
  ExpectRefused("WHYNOT SELECT A_1 FROM T");
}

TEST_F(KeywordBoundaryTest, MonitorWithASuffixIsRefused) {
  ExpectRefused("MONITORING");
}

TEST_F(KeywordBoundaryTest, StatsHistoryWithASuffixIsRefused) {
  ExpectRefused("STATS HISTORYX");
}

TEST_F(KeywordBoundaryTest, StatsAttributionRefusesANonCountTail) {
  ExpectRefused("STATS ATTRIBUTION abc");
  EXPECT_OK(service_.Execute("STATS ATTRIBUTION 5").status());
}

TEST(RobustnessTest, GovernedServiceSurvivesFuzzedStatements) {
  // Fuzzed statements through a service running with every governance
  // limit tightened (statement cap, row budget, short deadline) must all
  // return a clean Status; the service must still answer correctly after.
  ServiceOptions options;
  options.max_statement_bytes = 96;
  options.statement_row_budget = 64;
  options.statement_deadline_micros = 1000000;
  QueryService service(options);
  Result<StatementResult> create = service.Execute("CREATE TABLE R(A, B)");
  ASSERT_TRUE(create.ok()) << create.status().ToString();
  Result<StatementResult> insert =
      service.Execute("INSERT INTO R VALUES (1, 2), (3, 4)");
  ASSERT_TRUE(insert.ok()) << insert.status().ToString();

  const std::string base = "SELECT A_1, COUNT(B_1) AS n FROM R GROUPBY A_1";
  const char kNoise[] = "()=<>,.*/'\"xyz019 ;%";
  std::mt19937_64 rng(TestSeed(4244));
  int succeeded = 0;
  for (int i = 0; i < 300; ++i) {
    std::string mutated = base;
    int edits = 1 + static_cast<int>(rng() % 5);
    for (int e = 0; e < edits; ++e) {
      size_t pos = rng() % mutated.size();
      mutated[pos] = kNoise[rng() % (sizeof(kNoise) - 1)];
    }
    // Occasionally blow past the statement cap too.
    if (i % 17 == 0) mutated += std::string(128, ' ');
    Result<StatementResult> r = service.Execute(mutated);  // must not crash
    succeeded += r.ok();
  }
  EXPECT_LT(succeeded, 300);

  Result<StatementResult> ok = service.Execute(base);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  ASSERT_TRUE(ok->table.has_value());
  EXPECT_EQ(ok->table->num_rows(), 2u);
}

}  // namespace
}  // namespace aqv
