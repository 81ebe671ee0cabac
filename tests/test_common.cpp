// Unit tests for common utilities: error macros, numeric helpers, the
// table printer, the CSV writer, and JSON number formatting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/numeric.hpp"
#include "common/table.hpp"

namespace esched {
namespace {

TEST(Error, CheckThrowsWithMessage) {
  try {
    ESCHED_CHECK(false, "something went wrong");
    FAIL() << "expected esched::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("something went wrong"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("precondition"), std::string::npos);
  }
}

TEST(Error, AssertThrowsWithInvariantKind) {
  try {
    ESCHED_ASSERT(1 == 2, "broken invariant");
    FAIL() << "expected esched::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("invariant"), std::string::npos);
  }
}

TEST(Error, PassingCheckDoesNotThrow) {
  EXPECT_NO_THROW(ESCHED_CHECK(true, "fine"));
  EXPECT_NO_THROW(ESCHED_ASSERT(true, "fine"));
}

TEST(Numeric, RelativeError) {
  EXPECT_NEAR(relative_error(1.1, 1.0), 0.1, 1e-12);
  EXPECT_NEAR(relative_error(0.9, 1.0), 0.1, 1e-12);
  // Near-zero reference falls back to absolute error.
  EXPECT_NEAR(relative_error(1e-3, 0.0), 1e-3, 1e-15);
}

TEST(Numeric, ApproxEqual) {
  EXPECT_TRUE(approx_equal(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(approx_equal(1.0, 1.001));
  EXPECT_TRUE(approx_equal(1.0, 1.001, 1e-2));
  EXPECT_TRUE(approx_equal(0.0, 1e-13));
}

TEST(Numeric, Clamp) {
  EXPECT_DOUBLE_EQ(clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(clamp(0.5, 0.0, 1.0), 0.5);
}

TEST(Table, PrintsAlignedRows) {
  Table t({"a", "long_header"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("long_header"), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, RejectsBadArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, FormatDouble) {
  EXPECT_EQ(format_double(1.23456789, 3), "1.23");
  EXPECT_EQ(format_double(100.0), "100");
}

TEST(Table, FormatDoubleMatchesOstreamAtEverySetPrecision) {
  // Reports were written through an ostream at setprecision(digits); the
  // report bytes (and the goldens) depend on format_double printing the
  // same text, including for signed zero, the subnormal minimum, the
  // fixed/scientific switch and the non-finite values.
  const double values[] = {0.0,
                           -0.0,
                           1e21,
                           5e-324,
                           1.23456789,
                           -0.000123456789,
                           123456.789,
                           1.0 / 3.0,
                           100.0,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN()};
  for (int digits : {3, 4, 5, 12}) {
    for (double value : values) {
      std::ostringstream reference;
      reference << std::setprecision(digits) << value;
      EXPECT_EQ(format_double(value, digits), reference.str())
          << "digits=" << digits;
    }
  }
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = testing::TempDir() + "esched_test.csv";
  {
    CsvWriter csv(path, {"x", "y"});
    csv.add_row({"1", "2"});
    csv.add_row({"3", "4"});
    EXPECT_EQ(csv.num_rows(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::remove(path.c_str());
}

TEST(Csv, RejectsBadArity) {
  const std::string path = testing::TempDir() + "esched_test2.csv";
  CsvWriter csv(path, {"x", "y"});
  EXPECT_THROW(csv.add_row({"1"}), Error);
  std::remove(path.c_str());
}

TEST(Csv, Rfc4180QuotingRoundTrips) {
  // Plain fields stay unquoted (canonical form)...
  EXPECT_EQ(csv_encode_field("1.25"), "1.25");
  EXPECT_EQ(csv_encode_row({"a", "b"}), "a,b");
  // ...fields with commas/quotes/newlines get quoted and escaped.
  EXPECT_EQ(csv_encode_field("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_encode_field("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_encode_field("two\nlines"), "\"two\nlines\"");

  const std::vector<std::string> cells = {"plain", "with,comma",
                                          "with \"quotes\"", "multi\nline",
                                          ""};
  EXPECT_EQ(csv_decode_row(csv_encode_row(cells)), cells);
}

TEST(Csv, WriterQuotesFieldsThatNeedIt) {
  const std::string path = testing::TempDir() + "esched_test3.csv";
  {
    CsvWriter csv(path, {"label", "value"});
    csv.add_row({"policy, with comma", "1"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "label,value");
  std::getline(in, line);
  EXPECT_EQ(line, "\"policy, with comma\",1");
  EXPECT_EQ(csv_decode_row(line),
            (std::vector<std::string>{"policy, with comma", "1"}));
  std::remove(path.c_str());
}

TEST(Csv, ParseRecordReportsTornLines) {
  // A complete record, then one cut off mid-write (no trailing newline):
  // the torn record must read as incomplete so a resuming streamer drops
  // and rewrites it.
  const std::string text = "a,\"b,1\"\nc,d";
  std::size_t offset = 0;
  std::vector<std::string> cells;
  bool complete = false;
  ASSERT_TRUE(csv_parse_record(text, &offset, &cells, &complete));
  EXPECT_TRUE(complete);
  EXPECT_EQ(cells, (std::vector<std::string>{"a", "b,1"}));
  ASSERT_TRUE(csv_parse_record(text, &offset, &cells, &complete));
  EXPECT_FALSE(complete);
  EXPECT_EQ(cells, (std::vector<std::string>{"c", "d"}));
  EXPECT_FALSE(csv_parse_record(text, &offset, &cells, &complete));

  // An unterminated quote is torn too, even mid-cell.
  offset = 0;
  ASSERT_TRUE(csv_parse_record("x,\"unclosed", &offset, &cells, &complete));
  EXPECT_FALSE(complete);

  // CRLF terminators are stripped for quoted and unquoted final cells
  // alike; a newline inside quotes is field content, not a terminator.
  offset = 0;
  ASSERT_TRUE(csv_parse_record("p,\"a,b\"\r\nq,r\r\n", &offset, &cells,
                               &complete));
  EXPECT_TRUE(complete);
  EXPECT_EQ(cells, (std::vector<std::string>{"p", "a,b"}));
  ASSERT_TRUE(csv_parse_record("p,\"a,b\"\r\nq,r\r\n", &offset, &cells,
                               &complete));
  EXPECT_EQ(cells, (std::vector<std::string>{"q", "r"}));
  offset = 0;
  ASSERT_TRUE(csv_parse_record("\"em\nbed\",2\n", &offset, &cells,
                               &complete));
  EXPECT_TRUE(complete);
  EXPECT_EQ(cells, (std::vector<std::string>{"em\nbed", "2"}));

  EXPECT_THROW(csv_decode_row("a,\"unclosed"), Error);
}

TEST(Json, IntegralNumbersPrintAsPlainIntegers) {
  // Counters in metrics, traces and queue records are integral doubles;
  // they must read "30", not the shorter round-trip form "3e+01".
  const std::vector<std::pair<double, std::string>> cases = {
      {30.0, "30"},  {100.0, "100"}, {39200.0, "39200"},
      {-0.0, "-0"},  {0.1, "0.1"},   {1e300, "1e+300"},
      {9007199254740991.0, "9007199254740991"},
      {9007199254740992.0, "9007199254740992"},
  };
  for (const auto& [value, text] : cases) {
    EXPECT_EQ(json_number_to_string(value), text);
    const double parsed = parse_json(text).as_number("n");
    EXPECT_EQ(parsed, value) << text;
    EXPECT_EQ(std::signbit(parsed), std::signbit(value)) << text;
  }
}

}  // namespace
}  // namespace esched
