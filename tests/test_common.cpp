// Unit tests for common utilities: error macros, numeric helpers, the
// table printer, the CSV writer, and atomic file publication.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#if __has_include(<sys/resource.h>)
#include <sys/resource.h>
#endif
#if __has_include(<sys/stat.h>) && __has_include(<fcntl.h>)
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "common/atomic_file.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
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

TEST(AtomicFile, FailedFinalFlushPublishesNothing) {
#if __has_include(<sys/resource.h>) && defined(SIGXFSZ)
  // 1000 bytes fit the stream buffer, so they reach the temp file only in
  // the final flush; a 100-byte file-size limit on this process makes
  // that flush come up short. Nothing may be published.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "atomic_flush";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "report.csv").string();

  rlimit saved{};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit lowered = saved;
  lowered.rlim_cur = 100;
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &lowered), 0);
  bool threw = false;
  try {
    atomic_write_file(path, std::string(1000, 'x'));
  } catch (const Error&) {
    threw = true;
  }
  setrlimit(RLIMIT_FSIZE, &saved);
  std::signal(SIGXFSZ, old_handler);

  EXPECT_TRUE(threw) << "a short final flush was published";
  EXPECT_FALSE(fs::exists(path));
  for (const auto& entry : fs::directory_iterator(dir)) {
    ADD_FAILURE() << "left behind: " << entry.path();
  }
  fs::remove_all(dir);
#else
  GTEST_SKIP() << "needs RLIMIT_FSIZE and SIGXFSZ";
#endif
}

TEST(AtomicFile, WritesThroughANonRegularFileInPlace) {
#if __has_include(<sys/stat.h>) && __has_include(<fcntl.h>)
  // A FIFO stands in for /dev/null or a pipe: renaming over it would
  // replace the node, so the text must go through it instead. The read
  // end is opened non-blocking first, so the write cannot block and a
  // wrong rename shows as an empty read and a regular file, not a hang.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "atomic_fifo";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "report.json").string();
  ASSERT_EQ(mkfifo(path.c_str(), 0600), 0);
  const int reader = open(path.c_str(), O_RDONLY | O_NONBLOCK);
  ASSERT_GE(reader, 0);

  atomic_write_file(path, "{\"points\": []}\n");
  char buffer[64] = {};
  const ssize_t got = read(reader, buffer, sizeof buffer);
  close(reader);

  EXPECT_EQ(std::string(buffer, got > 0 ? static_cast<std::size_t>(got) : 0),
            "{\"points\": []}\n");
  EXPECT_TRUE(fs::is_fifo(path)) << "the FIFO was replaced";
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().string(), path) << "left behind: " << entry.path();
  }
  fs::remove_all(dir);
#else
  GTEST_SKIP() << "needs mkfifo";
#endif
}

}  // namespace
}  // namespace esched
