#include <limits>

#include <gtest/gtest.h>

#include "ir/printer.h"
#include "parser/lexer.h"
#include "parser/parser.h"
#include "tests/test_util.h"

namespace aqv {
namespace {

TEST(LexerTest, TokenKinds) {
  ASSERT_OK_AND_ASSIGN(std::vector<Token> tokens,
                       Tokenize("SELECT a_1, 42 3.5 'str' <= <> != ( ) * / ."));
  std::vector<TokenKind> kinds;
  for (const Token& t : tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds, (std::vector<TokenKind>{
                       TokenKind::kIdentifier, TokenKind::kIdentifier,
                       TokenKind::kComma, TokenKind::kInteger,
                       TokenKind::kFloat, TokenKind::kString, TokenKind::kLe,
                       TokenKind::kNe, TokenKind::kNe, TokenKind::kLParen,
                       TokenKind::kRParen, TokenKind::kStar, TokenKind::kSlash,
                       TokenKind::kDot, TokenKind::kEnd}));
  EXPECT_EQ(tokens[3].int_value, 42);
  EXPECT_DOUBLE_EQ(tokens[4].float_value, 3.5);
  EXPECT_EQ(tokens[5].text, "str");
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  ASSERT_OK_AND_ASSIGN(std::vector<Token> tokens, Tokenize("select SeLeCt"));
  EXPECT_TRUE(tokens[0].IsKeyword("SELECT"));
  EXPECT_TRUE(tokens[1].IsKeyword("select"));
}

TEST(LexerTest, RejectsBadInput) {
  EXPECT_FALSE(Tokenize("SELECT 'unterminated").ok());
  EXPECT_FALSE(Tokenize("a ! b").ok());
  EXPECT_FALSE(Tokenize("a @ b").ok());
}

TEST(LexerTest, RefusesOutOfRangeAndMalformedNumerals) {
  // Each numeral is parsed whole: an out-of-range value or a token that is
  // not one numeral is a clean kInvalidArgument, never a thrown exception
  // and never a half-read prefix.
  for (const char* sql : {"SELECT K_1 FROM T WHERE K_1 = 99999999999999999999",
                          "INSERT INTO T VALUES (1, 1e309)",
                          "INSERT INTO T VALUES (1.2.3, 4)", "SELECT 1e",
                          "SELECT 2e+", "SELECT 1..5"}) {
    Result<std::vector<Token>> tokens = Tokenize(sql);
    ASSERT_FALSE(tokens.ok()) << sql;
    EXPECT_EQ(tokens.status().code(), StatusCode::kInvalidArgument) << sql;
  }
  // The extremes that do fit still lex exactly.
  ASSERT_OK_AND_ASSIGN(std::vector<Token> tokens,
                       Tokenize("9223372036854775807 1.5e308 2.5E-3"));
  EXPECT_EQ(tokens[0].int_value, INT64_MAX);
  EXPECT_EQ(tokens[1].float_value, 1.5e308);
  EXPECT_EQ(tokens[2].float_value, 2.5e-3);
  // Parsers surface the lexer's refusal instead of inserting a prefix.
  EXPECT_EQ(ParseInsert("INSERT INTO T VALUES (1.2.3, 4)").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(LexerTest, Int64MinLiteralNeedsItsMinus) {
  // A sign is its own token, so INT64_MIN is a minus and the magnitude
  // 2^63: accepted under a minus in every literal position, refused bare
  // or one past it.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  ASSERT_OK_AND_ASSIGN(
      InsertStatement ins,
      ParseInsert("INSERT INTO T VALUES (-9223372036854775808, 1)"));
  ASSERT_EQ(ins.rows.size(), 1u);
  EXPECT_EQ(ins.rows[0][0], Value::Int64(kMin));

  ASSERT_OK_AND_ASSIGN(
      Query q, ParseQuery("SELECT A1 FROM R1(A1, B1) "
                          "WHERE A1 = -9223372036854775808"));
  ASSERT_EQ(q.where.size(), 1u);
  EXPECT_EQ(q.where[0].rhs.constant, Value::Int64(kMin));

  Catalog catalog;
  ASSERT_OK(catalog.AddTable(TableDef("T", {"A", "B"})));
  ASSERT_OK_AND_ASSIGN(
      UpdateStatement upd,
      ParseUpdate("UPDATE T SET B = -9223372036854775808 WHERE A = 1",
                  &catalog));
  ASSERT_EQ(upd.sets.size(), 1u);
  EXPECT_EQ(upd.sets[0].expr.literal, Value::Int64(kMin));

  for (const char* sql : {"INSERT INTO T VALUES (9223372036854775808, 1)",
                          "INSERT INTO T VALUES (+9223372036854775808, 1)",
                          "INSERT INTO T VALUES (-9223372036854775809, 1)"}) {
    EXPECT_EQ(ParseInsert(sql).status().code(), StatusCode::kInvalidArgument)
        << sql;
  }
  for (const char* sql :
       {"SELECT A1 FROM R1(A1, B1) WHERE A1 = 9223372036854775808",
        "SELECT A1 FROM R1(A1, B1) WHERE A1 = -9223372036854775809"}) {
    EXPECT_EQ(ParseQuery(sql).status().code(), StatusCode::kInvalidArgument)
        << sql;
  }
  for (const char* sql : {"UPDATE T SET B = 9223372036854775808",
                          "UPDATE T SET B = A - 9223372036854775808",
                          "UPDATE T SET B = -9223372036854775809"}) {
    EXPECT_EQ(ParseUpdate(sql, &catalog).status().code(),
              StatusCode::kInvalidArgument)
        << sql;
  }
}

TEST(ParserTest, PaperNotationRoundTrips) {
  const char* sql =
      "SELECT A1, SUM(B1) AS SUM_B1 FROM R1(A1, B1), R2(C1, D1) "
      "WHERE A1 = C1 AND B1 = 6 AND D1 = 6 GROUPBY A1";
  ASSERT_OK_AND_ASSIGN(Query q, ParseQuery(sql));
  EXPECT_EQ(ToSql(q), sql);
  ASSERT_OK_AND_ASSIGN(Query q2, ParseQuery(ToSql(q)));
  EXPECT_TRUE(q == q2);
}

TEST(ParserTest, HavingAndDistinct) {
  ASSERT_OK_AND_ASSIGN(
      Query q,
      ParseQuery("SELECT DISTINCT A1 FROM R1(A1, B1) WHERE B1 > 2 "
                 "GROUP BY A1 HAVING COUNT(B1) >= 3"));
  EXPECT_TRUE(q.distinct);
  ASSERT_EQ(q.having.size(), 1u);
  EXPECT_EQ(q.having[0].lhs.agg, AggFn::kCount);
  EXPECT_EQ(q.having[0].op, CmpOp::kGe);
}

TEST(ParserTest, ScaledAggregateAndRatio) {
  ASSERT_OK_AND_ASSIGN(
      Query q, ParseQuery("SELECT A1, SUM(S1 * N1) AS t, SUM(S1) / SUM(N1) AS r "
                          "FROM V(A1, S1, N1) GROUPBY A1"));
  ASSERT_EQ(q.select.size(), 3u);
  EXPECT_EQ(q.select[1].arg.multiplier, "N1");
  EXPECT_EQ(q.select[2].kind, SelectItem::Kind::kRatio);
  EXPECT_EQ(q.select[2].den.column, "N1");
  // Round trip.
  ASSERT_OK_AND_ASSIGN(Query q2, ParseQuery(ToSql(q)));
  EXPECT_TRUE(q == q2);
}

TEST(ParserTest, CatalogBoundFromUsesRenamingConvention) {
  Catalog catalog;
  ASSERT_OK(catalog.AddTable(TableDef("R", {"A", "B"})));
  ASSERT_OK(catalog.AddTable(TableDef("S", {"A", "C"})));
  ASSERT_OK_AND_ASSIGN(
      Query q, ParseQuery("SELECT R.A, S.C FROM R, S WHERE R.A = S.A AND B = 1",
                          &catalog));
  // Section 2 convention: occurrence k's columns become <Col>_<k>.
  EXPECT_EQ(q.from[0].columns, (std::vector<std::string>{"A_1", "B_1"}));
  EXPECT_EQ(q.from[1].columns, (std::vector<std::string>{"A_2", "C_2"}));
  EXPECT_EQ(q.select[0].column, "A_1");
  EXPECT_EQ(q.select[1].column, "C_2");
  // Unqualified B resolves uniquely; unqualified A would be ambiguous.
  EXPECT_EQ(q.where[1].lhs.column, "B_1");
  EXPECT_FALSE(
      ParseQuery("SELECT A FROM R, S WHERE R.A = S.A", &catalog).ok());
}

TEST(ParserTest, SelfJoinWithAliases) {
  Catalog catalog;
  ASSERT_OK(catalog.AddTable(TableDef("R", {"A", "B"})));
  ASSERT_OK_AND_ASSIGN(
      Query q,
      ParseQuery("SELECT x.A, y.B FROM R x, R y WHERE x.B = y.A", &catalog));
  EXPECT_EQ(q.from[0].columns, (std::vector<std::string>{"A_1", "B_1"}));
  EXPECT_EQ(q.from[1].columns, (std::vector<std::string>{"A_2", "B_2"}));
  EXPECT_EQ(q.where[0].lhs.column, "B_1");
  EXPECT_EQ(q.where[0].rhs.column, "A_2");
}

TEST(ParserTest, CreateView) {
  ASSERT_OK_AND_ASSIGN(
      ViewDef v, ParseView("CREATE VIEW V1 AS SELECT C2, D2 FROM "
                           "R1(A2, B2), R2(C2, D2) WHERE A2 = C2 AND B2 = D2"));
  EXPECT_EQ(v.name, "V1");
  EXPECT_EQ(v.query.from.size(), 2u);
  EXPECT_EQ(v.OutputColumns(), (std::vector<std::string>{"C2", "D2"}));
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("FROM R(A)").ok());
  EXPECT_FALSE(ParseQuery("SELECT A FROM R(A) WHERE").ok());
  EXPECT_FALSE(ParseQuery("SELECT A FROM R(A) trailing junk").ok());
  EXPECT_FALSE(ParseQuery("SELECT Z FROM R(A)").ok());       // unknown column
  EXPECT_FALSE(ParseQuery("SELECT A FROM R").ok());          // needs catalog
  EXPECT_FALSE(ParseQuery("SELECT MIN(A) / SUM(A) AS r FROM R(A)").ok());
}

TEST(ParserTest, ValidatesSemanticRules) {
  // Non-aggregate select column missing from GROUP BY.
  EXPECT_FALSE(
      ParseQuery("SELECT A1, SUM(B1) FROM R1(A1, B1)").ok());
  // HAVING on a non-grouped query.
  EXPECT_FALSE(
      ParseQuery("SELECT A1 FROM R1(A1, B1) HAVING A1 = 2").ok());
}

TEST(ParserTest, StringAndFloatConstants) {
  ASSERT_OK_AND_ASSIGN(
      Query q,
      ParseQuery("SELECT A1 FROM R1(A1, B1) WHERE A1 = 'x' AND B1 < 2.75"));
  EXPECT_EQ(q.where[0].rhs.constant, Value::String("x"));
  EXPECT_EQ(q.where[1].rhs.constant, Value::Double(2.75));
}

TEST(ParserTest, TelephonyExampleParses) {
  // Example 1.1's Q in catalog-bound form.
  Catalog catalog;
  TableDef plans("Calling_Plans", {"Plan_Id", "Plan_Name"});
  TableDef calls("Calls", {"Call_Id", "Cust_Id", "Plan_Id", "Day", "Month",
                           "Year", "Charge"});
  ASSERT_OK(catalog.AddTable(plans));
  ASSERT_OK(catalog.AddTable(calls));
  ASSERT_OK_AND_ASSIGN(
      Query q,
      ParseQuery("SELECT Calling_Plans.Plan_Id, Plan_Name, SUM(Charge) "
                 "FROM Calls, Calling_Plans "
                 "WHERE Calls.Plan_Id = Calling_Plans.Plan_Id AND Year = 1995 "
                 "GROUPBY Calling_Plans.Plan_Id, Plan_Name "
                 "HAVING SUM(Charge) < 1000000",
                 &catalog));
  EXPECT_EQ(q.group_by.size(), 2u);
  EXPECT_EQ(q.having.size(), 1u);
  EXPECT_EQ(q.select[2].arg.column, "Charge_1");
}

TEST(ParserTest, SignedConstantsInWhere) {
  ASSERT_OK_AND_ASSIGN(
      Query q, ParseQuery("SELECT A1 FROM R1(A1, B1) WHERE A1 > -5 AND "
                          "B1 <= +2.5"));
  EXPECT_EQ(q.where[0].rhs.constant, Value::Int64(-5));
  EXPECT_EQ(q.where[1].rhs.constant, Value::Double(2.5));
  // A sign must be followed by a number, not a column or string.
  EXPECT_FALSE(ParseQuery("SELECT A1 FROM R1(A1, B1) WHERE A1 > -B1").ok());
  EXPECT_FALSE(ParseQuery("SELECT A1 FROM R1(A1, B1) WHERE A1 > -'x'").ok());
}

TEST(ParseInsertTest, MultiRowTuplesWithAllLiteralKinds) {
  ASSERT_OK_AND_ASSIGN(
      InsertStatement insert,
      ParseInsert("INSERT INTO T VALUES (1, 2.5, 'x', NULL), (-3, +4.5, "
                  "'y', 7)"));
  EXPECT_EQ(insert.table, "T");
  ASSERT_EQ(insert.rows.size(), 2u);
  EXPECT_EQ(insert.rows[0],
            (Row{Value::Int64(1), Value::Double(2.5), Value::String("x"),
                 Value::Null()}));
  EXPECT_EQ(insert.rows[1],
            (Row{Value::Int64(-3), Value::Double(4.5), Value::String("y"),
                 Value::Int64(7)}));
}

TEST(ParseInsertTest, RejectsDegenerateStatements) {
  // Zero tuples used to be acked as "0 row(s) inserted".
  Result<InsertStatement> empty = ParseInsert("INSERT INTO T VALUES");
  ASSERT_FALSE(empty.ok());
  EXPECT_NE(empty.status().message().find("at least one"), std::string::npos);
  // Trailing garbage after the last tuple used to be silently ignored.
  EXPECT_FALSE(ParseInsert("INSERT INTO T VALUES (1) garbage").ok());
  EXPECT_FALSE(ParseInsert("INSERT INTO T VALUES (1), (2) (3)").ok());
  // Structural errors.
  EXPECT_FALSE(ParseInsert("INSERT INTO T VALUES (1,").ok());
  EXPECT_FALSE(ParseInsert("INSERT INTO T VALUES ()").ok());
  EXPECT_FALSE(ParseInsert("INSERT INTO T VALUES (1), ").ok());
  EXPECT_FALSE(ParseInsert("INSERT INTO T (1)").ok());
  EXPECT_FALSE(ParseInsert("INSERT T VALUES (1)").ok());
  // A bare sign or a sign on a non-number is not a literal.
  EXPECT_FALSE(ParseInsert("INSERT INTO T VALUES (-)").ok());
  EXPECT_FALSE(ParseInsert("INSERT INTO T VALUES (-'x')").ok());
  EXPECT_FALSE(ParseInsert("INSERT INTO T VALUES (A)").ok());
}

}  // namespace
}  // namespace aqv
