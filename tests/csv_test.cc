#include <cstdio>

#include <gtest/gtest.h>

#include "exec/csv.h"
#include "tests/test_util.h"

namespace aqv {
namespace {

Table SampleTable() {
  Table t({"id", "name", "score"});
  t.AddRowOrDie({Value::Int64(1), Value::String("ana"), Value::Double(2.5)});
  t.AddRowOrDie({Value::Int64(2), Value::String("bo\"b"), Value::Null()});
  t.AddRowOrDie({Value::Int64(3), Value::String("line,comma"), Value::Int64(7)});
  return t;
}

TEST(CsvTest, RendersHeaderAndRows) {
  std::string csv = ToCsv(SampleTable());
  EXPECT_NE(csv.find("id,name,score\n"), std::string::npos);
  EXPECT_NE(csv.find("1,\"ana\",2.5\n"), std::string::npos);
  EXPECT_NE(csv.find("\"bo\"\"b\""), std::string::npos);   // doubled quote
  EXPECT_NE(csv.find("\"line,comma\""), std::string::npos);  // comma kept
}

TEST(CsvTest, RoundTripsExactly) {
  Table original = SampleTable();
  ASSERT_OK_AND_ASSIGN(Table parsed, FromCsv(ToCsv(original)));
  EXPECT_EQ(parsed.columns(), original.columns());
  EXPECT_TRUE(MultisetEqual(parsed, original))
      << DescribeMultisetDifference(parsed, original);
}

TEST(CsvTest, FieldTyping) {
  ASSERT_OK_AND_ASSIGN(Table t, FromCsv("a,b,c,d\n42,3.5,\"42\",\n"));
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.rows()[0][0], Value::Int64(42));
  EXPECT_EQ(t.rows()[0][1], Value::Double(3.5));
  EXPECT_EQ(t.rows()[0][2], Value::String("42"));  // quoted stays a string
  EXPECT_TRUE(t.rows()[0][3].is_null());            // empty field is NULL
}

TEST(CsvTest, UnquotedTextBecomesString) {
  ASSERT_OK_AND_ASSIGN(Table t, FromCsv("x\nhello\n12abc\n"));
  EXPECT_EQ(t.rows()[0][0], Value::String("hello"));
  EXPECT_EQ(t.rows()[1][0], Value::String("12abc"));
}

TEST(CsvTest, SkipsBlankLinesAndHandlesCrLf) {
  ASSERT_OK_AND_ASSIGN(Table t, FromCsv("a,b\r\n1,2\r\n\r\n3,4\r\n"));
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(CsvTest, RefusesNonFiniteNumbers) {
  // strtod reads these as inf/NaN; no column holds them faithfully, so the
  // load is refused with the record and field named.
  for (const char* csv : {"a,b\n1,nan\n", "a,b\n1,inf\n", "a,b\n1,-Infinity\n",
                          "a,b\n1,1e999\n", "a,b\n1,2\nNAN,3\n"}) {
    Result<Table> t = FromCsv(csv);
    ASSERT_FALSE(t.ok()) << csv;
    EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument) << csv;
    EXPECT_NE(t.status().ToString().find("non-finite"), std::string::npos)
        << t.status().ToString();
  }
  // Quoted, they are plain strings; finite extremes still load as numbers.
  ASSERT_OK_AND_ASSIGN(Table t, FromCsv("a,b\n\"nan\",1.5e308\n"));
  EXPECT_EQ(t.rows()[0][0], Value::String("nan"));
  EXPECT_EQ(t.rows()[0][1], Value::Double(1.5e308));
}

TEST(CsvTest, Errors) {
  EXPECT_FALSE(FromCsv("").ok());
  EXPECT_FALSE(FromCsv("a,b\n1\n").ok());          // arity mismatch
  EXPECT_FALSE(FromCsv("a\n\"unterminated\n").ok());
  EXPECT_EQ(ReadCsvFile("/nonexistent/path.csv").status().code(),
            StatusCode::kNotFound);
}

TEST(CsvTest, FileRoundTrip) {
  Table original = SampleTable();
  std::string path = ::testing::TempDir() + "/aqv_csv_test.csv";
  ASSERT_OK(WriteCsvFile(original, path));
  ASSERT_OK_AND_ASSIGN(Table parsed, ReadCsvFile(path));
  EXPECT_TRUE(MultisetEqual(parsed, original));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace aqv
