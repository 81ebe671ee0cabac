// Unit tests for common utilities: error macros, numeric helpers, the
// table printer, CSV encoding and parsing, JSON number formatting, and the
// file module (atomic publication, the stale-temp reaper, whole-file reads).
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/atomic_file.hpp"
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
  const std::string record = csv_encode_row(cells) + "\n";
  std::size_t offset = 0;
  std::vector<std::string> decoded;
  bool complete = false;
  ASSERT_TRUE(csv_parse_record(record, &offset, &decoded, &complete));
  EXPECT_TRUE(complete);
  EXPECT_EQ(offset, record.size());
  EXPECT_EQ(decoded, cells);
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

/// Caps the size of any file this process writes at `bytes` and ignores
/// SIGXFSZ, so a write past the cap fails with EFBIG instead of killing
/// the process. For death-test children only: the cap is permanent.
void limit_file_size(rlim_t bytes) {
  const rlimit limit{bytes, bytes};
  if (::setrlimit(RLIMIT_FSIZE, &limit) != 0) std::exit(3);
  std::signal(SIGXFSZ, SIG_IGN);
}

TEST(AtomicFile, FailedFinalFlushPublishesNothing) {
  // 1,000 bytes fit in the stream buffer, so they reach the temp file only
  // at the final flush, which a 100-byte size cap makes fail. The write
  // must throw and leave neither the destination nor the temp behind.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "atomic_fsize";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string dest = (dir / "out.txt").string();
  EXPECT_EXIT(
      {
        limit_file_size(100);
        try {
          atomic_write_file(dest, std::string(1000, 'x'));
        } catch (const Error&) {
          std::exit(0);
        }
        std::fprintf(stderr, "atomic_write_file returned normally\n");
        std::exit(1);
      },
      ::testing::ExitedWithCode(0), "");
  EXPECT_TRUE(fs::is_empty(dir));
  fs::remove_all(dir);
}

TEST(AtomicFile, StreamingWriterPublishesNothingWhenTheBodyThrows) {
  // A body that throws halfway leaves the old file untouched and no temp
  // behind; the body's own exception reaches the caller.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "atomic_throw";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string dest = (dir / "out.txt").string();
  atomic_write_file(dest, "old\n");
  EXPECT_THROW(atomic_write_file(dest,
                                 [](std::ostream& out) {
                                   out << "half a body";
                                   throw std::runtime_error("body failed");
                                 }),
               std::runtime_error);
  EXPECT_EQ(read_file(dest), std::optional<std::string>("old\n"));
  EXPECT_EQ(std::distance(fs::directory_iterator(dir),
                          fs::directory_iterator()),
            1);
  atomic_write_file(dest, [](std::ostream& out) { out << "new" << 1 << '\n'; });
  EXPECT_EQ(read_file(dest), std::optional<std::string>("new1\n"));
  EXPECT_FALSE(read_file((dir / "absent.txt").string()).has_value());
  fs::remove_all(dir);
}

TEST(AtomicFile, ReaperRemovesOnlyStaleTemps) {
  // Temps older than an hour are debris of dead writers; a young temp may
  // be a live publish, and files that are not temps are never touched,
  // however old.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "atomic_reaper";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto write_aged = [&](const std::string& name, std::chrono::hours age) {
    const std::string path = (dir / name).string();
    atomic_write_file(path, "x");
    fs::last_write_time(path, fs::file_time_type::clock::now() - age);
  };
  write_aged("stale.csv.tmp.7.8", std::chrono::hours(2));
  write_aged("stale.result.tmp.1.2", std::chrono::hours(2));
  write_aged("young.csv.tmp.3.4", std::chrono::hours(0));
  write_aged("old.csv", std::chrono::hours(48));
  write_aged("old.result", std::chrono::hours(48));
  EXPECT_TRUE(is_tmp_file_name("young.csv.tmp.3.4"));
  EXPECT_FALSE(is_tmp_file_name("old.csv"));

  EXPECT_EQ(remove_stale_tmp_files(dir.string()), 2u);
  std::vector<std::string> left;
  for (const auto& entry : fs::directory_iterator(dir)) {
    left.push_back(entry.path().filename().string());
  }
  std::sort(left.begin(), left.end());
  EXPECT_EQ(left, (std::vector<std::string>{"old.csv", "old.result",
                                            "young.csv.tmp.3.4"}));
  EXPECT_EQ(remove_stale_tmp_files(dir.string()), 0u);
  EXPECT_EQ(remove_stale_tmp_files((dir / "absent").string()), 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace esched
