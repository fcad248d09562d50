// Tests for esched-lint: every rule gets a fail fixture (the violation
// fires, with the right rule id and line) and a pass fixture (the
// approved idiom stays clean), plus the suppression grammar, the README
// vocabulary parser, the runner's exit codes, and — the check CI leans
// on — the real src/ tree staying lint-clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.hpp"

namespace esched {
namespace {

namespace fs = std::filesystem;

std::string read_fixture(const std::string& name) {
  const fs::path path = fs::path(ESCHED_LINT_FIXTURE_DIR) / name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::size_t count_rule(const std::vector<lint::Finding>& findings,
                       const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const lint::Finding& f) { return f.rule == rule; }));
}

std::vector<std::size_t> lines_of_rule(const std::vector<lint::Finding>& fs,
                                       const std::string& rule) {
  std::vector<std::size_t> lines;
  for (const lint::Finding& f : fs) {
    if (f.rule == rule) lines.push_back(f.line);
  }
  return lines;
}

lint::LintContext plain_context() { return lint::LintContext{}; }

lint::LintContext vocab_context() {
  lint::LintContext ctx;
  ctx.vocabulary = {"sweep.points.total", "solver.<backend>.points",
                    "sweep.point.seconds"};
  return ctx;
}

// --- raw-file-io -----------------------------------------------------------

TEST(LintRawFileIo, FiresOnEveryRawPrimitiveInsideTheZone) {
  for (const char* path : {"src/dist/fixture.cpp", "src/engine/report.cpp"}) {
    const auto findings = lint::lint_file(
        path, read_fixture("raw_file_io_fail.cpp"), plain_context());
    EXPECT_EQ(lines_of_rule(findings, "raw-file-io"),
              (std::vector<std::size_t>{8, 10, 12}))
        << path;
  }
}

TEST(LintRawFileIo, ZoneIsPathScoped) {
  // The identical content outside src/dist//src/obs//shm_cache//report
  // is legal: only the queue/cache/observability protocols and the
  // reports need atomic publication.
  const auto findings = lint::lint_file(
      "src/core/fixture.cpp", read_fixture("raw_file_io_fail.cpp"),
      plain_context());
  EXPECT_EQ(count_rule(findings, "raw-file-io"), 0u);
}

TEST(LintRawFileIo, AtomicHelpersAndReadsPass) {
  const auto findings = lint::lint_file(
      "src/dist/fixture.cpp", read_fixture("raw_file_io_pass.cpp"),
      plain_context());
  EXPECT_TRUE(findings.empty()) << findings.front().message;
}

TEST(LintRawFileIo, InlineAndCommentBlockSuppressionsSilence) {
  const auto findings = lint::lint_file(
      "src/obs/fixture.cpp", read_fixture("raw_file_io_suppressed.cpp"),
      plain_context());
  EXPECT_TRUE(findings.empty()) << findings.front().message;
}

// --- nondeterminism --------------------------------------------------------

TEST(LintNondeterminism, FiresOnEntropyAndWallClockSources) {
  const auto findings = lint::lint_file(
      "src/core/fixture.cpp", read_fixture("nondeterminism_fail.cpp"),
      plain_context());
  // random_device, rand, srand, system_clock, std::time, clock.
  EXPECT_EQ(lines_of_rule(findings, "nondeterminism"),
            (std::vector<std::size_t>{10, 12, 13, 15, 16, 17}));
}

TEST(LintNondeterminism, SteadyClockAndMtimeClockAreExempt) {
  const auto findings = lint::lint_file(
      "src/core/fixture.cpp", read_fixture("nondeterminism_pass.cpp"),
      plain_context());
  EXPECT_TRUE(findings.empty()) << findings.front().message;
}

// --- stream-output ---------------------------------------------------------

TEST(LintStreamOutput, FiresOnTerminalWritesFromLibraryCode) {
  const auto findings = lint::lint_file(
      "src/core/fixture.cpp", read_fixture("stream_output_fail.cpp"),
      plain_context());
  EXPECT_EQ(lines_of_rule(findings, "stream-output"),
            (std::vector<std::size_t>{7, 8, 9, 10, 11}));
}

TEST(LintStreamOutput, CallerStreamsAndSnprintfPass) {
  const auto findings = lint::lint_file(
      "src/core/fixture.cpp", read_fixture("stream_output_pass.cpp"),
      plain_context());
  EXPECT_TRUE(findings.empty()) << findings.front().message;
}

// --- metric-vocabulary -----------------------------------------------------

TEST(LintMetricVocabulary, FiresOnNamesOutsideTheVocabulary) {
  const auto findings = lint::lint_file(
      "src/core/fixture.cpp", read_fixture("metric_vocab_fail.cpp"),
      vocab_context());
  EXPECT_EQ(lines_of_rule(findings, "metric-vocabulary"),
            (std::vector<std::size_t>{10, 11}));
}

TEST(LintMetricVocabulary, DocumentedNamesPlaceholdersAndConcatsPass) {
  const auto findings = lint::lint_file(
      "src/core/fixture.cpp", read_fixture("metric_vocab_pass.cpp"),
      vocab_context());
  EXPECT_TRUE(findings.empty()) << findings.front().message;
}

TEST(LintMetricVocabulary, EmptyVocabularyIsLoudNotSilent) {
  // With no README block every literal metric name is reported — a
  // missing vocabulary must not read as "everything documented".
  const auto findings = lint::lint_file(
      "src/core/fixture.cpp", read_fixture("metric_vocab_pass.cpp"),
      plain_context());
  EXPECT_EQ(count_rule(findings, "metric-vocabulary"), 3u);
}

// --- include-hygiene -------------------------------------------------------

TEST(LintIncludeHygiene, FiresOnKitchenSinkAndRelativePaths) {
  const auto findings = lint::lint_file(
      "src/core/fixture.cpp", read_fixture("include_hygiene_fail.cpp"),
      plain_context());
  EXPECT_EQ(lines_of_rule(findings, "include-hygiene"),
            (std::vector<std::size_t>{3, 4, 5}));
}

TEST(LintIncludeHygiene, RootRelativeIncludesPass) {
  const auto findings = lint::lint_file(
      "src/core/fixture.cpp", read_fixture("include_hygiene_pass.cpp"),
      plain_context());
  EXPECT_TRUE(findings.empty()) << findings.front().message;
}

TEST(LintIncludeHygiene, ResolutionCheckUsesTheRealSrcRoot) {
  lint::LintContext ctx;
  ctx.src_root = (fs::path(ESCHED_REPO_ROOT) / "src").string();
  const std::string good = "#include \"common/error.hpp\"\n";
  EXPECT_TRUE(lint::lint_file("src/core/a.cpp", good, ctx).empty());
  const std::string bad = "#include \"common/no_such_header.hpp\"\n";
  const auto findings = lint::lint_file("src/core/a.cpp", bad, ctx);
  EXPECT_EQ(count_rule(findings, "include-hygiene"), 1u);
}

// --- header-guard ----------------------------------------------------------

TEST(LintHeaderGuard, FiresWhenPragmaOnceIsNotTheFirstCodeLine) {
  const auto findings = lint::lint_file(
      "src/core/fixture.hpp", read_fixture("header_guard_fail.hpp"),
      plain_context());
  EXPECT_EQ(count_rule(findings, "header-guard"), 1u);
  EXPECT_EQ(findings.front().line, 1u);
}

TEST(LintHeaderGuard, CommentsThenPragmaOncePasses) {
  const auto findings = lint::lint_file(
      "src/core/fixture.hpp", read_fixture("header_guard_pass.hpp"),
      plain_context());
  EXPECT_TRUE(findings.empty()) << findings.front().message;
}

TEST(LintHeaderGuard, RuleOnlyAppliesToHeaders) {
  const auto findings = lint::lint_file(
      "src/core/fixture.cpp", "int x = 0;\n", plain_context());
  EXPECT_EQ(count_rule(findings, "header-guard"), 0u);
}

// --- suppression grammar ---------------------------------------------------

TEST(LintSuppression, UnknownRuleNameIsItselfDiagnosed) {
  const auto findings = lint::lint_file(
      "src/core/fixture.cpp", read_fixture("unknown_suppression.cpp"),
      plain_context());
  EXPECT_EQ(count_rule(findings, "unknown-suppression"), 1u);
}

TEST(LintSuppression, InterveningCodeLineBreaksTheCommentBlockScope) {
  // An allow() above an unrelated code line must not leak past it to a
  // violation further down.
  const std::string content =
      "#include <iostream>\n"
      "void f() {\n"
      "  // esched-lint: allow(stream-output): covers only the next line\n"
      "  int unrelated = 0;\n"
      "  std::cout << unrelated;\n"
      "}\n";
  const auto findings =
      lint::lint_file("src/core/fixture.cpp", content, plain_context());
  EXPECT_EQ(count_rule(findings, "stream-output"), 1u);
}

TEST(LintSuppression, OneAllowCanNameSeveralRules) {
  const std::string content =
      "#include <cstdio>\n"
      "void f(int n) {\n"
      "  // esched-lint: allow(stream-output, nondeterminism): CLI-side\n"
      "  printf(\"%d %u\\n\", n, static_cast<unsigned>(rand()));\n"
      "}\n";
  const auto findings =
      lint::lint_file("src/core/fixture.cpp", content, plain_context());
  EXPECT_TRUE(findings.empty()) << findings.front().message;
}

TEST(LintSuppression, SuppressionIsPerRuleNotPerLine) {
  const std::string content =
      "#include <cstdio>\n"
      "void f(int n) {\n"
      "  // esched-lint: allow(stream-output): printf is acknowledged\n"
      "  printf(\"%u\\n\", static_cast<unsigned>(rand()) + n);\n"
      "}\n";
  const auto findings =
      lint::lint_file("src/core/fixture.cpp", content, plain_context());
  EXPECT_EQ(count_rule(findings, "stream-output"), 0u);
  EXPECT_EQ(count_rule(findings, "nondeterminism"), 1u);
}

// --- comment/string masking ------------------------------------------------

TEST(LintMasking, CommentsAndStringsNeverFire) {
  const std::string content =
      "// rand() and std::cout in a line comment\n"
      "/* fopen(\"x\") printf() in a\n"
      "   block comment spanning lines */\n"
      "const char* s = \"rand() std::cout fopen printf\";\n"
      "const char* r = R\"(std::random_device printf)\";\n";
  const auto findings =
      lint::lint_file("src/dist/fixture.cpp", content, plain_context());
  EXPECT_TRUE(findings.empty()) << findings.front().message;
}

// --- README vocabulary parsing and matching --------------------------------

TEST(LintVocabulary, ParsesTheFencedBlockSkippingCommentsAndBlanks) {
  const std::string readme =
      "# Title\n"
      "```metrics-vocabulary\n"
      "# per-backend counters\n"
      "solver.<backend>.points\n"
      "\n"
      "sweep.points.total\n"
      "```\n"
      "```text\n"
      "not.a.metric\n"
      "```\n";
  const auto vocab = lint::metric_vocabulary_from_readme(readme);
  EXPECT_EQ(vocab, (std::vector<std::string>{"solver.<backend>.points",
                                             "sweep.points.total"}));
}

TEST(LintVocabulary, RealReadmeContainsTheVocabularyBlock) {
  std::ifstream in(fs::path(ESCHED_REPO_ROOT) / "README.md");
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  const auto vocab = lint::metric_vocabulary_from_readme(text.str());
  EXPECT_GE(vocab.size(), 20u);
  EXPECT_TRUE(std::find(vocab.begin(), vocab.end(), "sweep.points.total") !=
              vocab.end());
}

TEST(LintVocabulary, PlaceholderMatchesExactlyOneDotFreeSegment) {
  EXPECT_TRUE(lint::metric_name_matches("sweep.points.total",
                                        "sweep.points.total"));
  EXPECT_TRUE(lint::metric_name_matches("solver.mc.points",
                                        "solver.<backend>.points"));
  EXPECT_TRUE(lint::metric_name_matches("solver.block-gth.points",
                                        "solver.<backend>.points"));
  // A placeholder cannot span a dot, be empty, or absorb a suffix.
  EXPECT_FALSE(lint::metric_name_matches("solver.a.b.points",
                                         "solver.<backend>.points"));
  EXPECT_FALSE(lint::metric_name_matches("solver..points",
                                         "solver.<backend>.points"));
  EXPECT_FALSE(lint::metric_name_matches("solver.mc.points.extra",
                                         "solver.<backend>.points"));
  EXPECT_FALSE(lint::metric_name_matches("solver.mc.errors",
                                         "solver.<backend>.points"));
  EXPECT_FALSE(lint::metric_name_matches("sweep.points", "sweep.points.total"));
}

// --- runner + exit codes ---------------------------------------------------

class LintRunner : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() / "esched_lint_test_tree";
    fs::remove_all(root_);
    fs::create_directories(root_ / "src" / "core");
    std::ofstream(root_ / "README.md")
        << "```metrics-vocabulary\nsweep.points.total\n```\n";
  }
  void TearDown() override { fs::remove_all(root_); }

  void write_src(const std::string& rel, const std::string& text) {
    std::ofstream(root_ / "src" / "core" / rel) << text;
  }

  fs::path root_;
};

TEST_F(LintRunner, CleanTreeExitsZero) {
  write_src("ok.cpp", "int f() { return 1; }\n");
  lint::Options options;
  options.root = root_.string();
  std::ostringstream out;
  EXPECT_EQ(lint::lint_main(options, out), 0);
  EXPECT_NE(out.str().find("esched-lint: clean"), std::string::npos);
}

TEST_F(LintRunner, FindingsExitOneWithFileLineRuleDiagnostics) {
  write_src("bad.cpp", "#include <iostream>\nvoid f() { std::cout << 1; }\n");
  lint::Options options;
  options.root = root_.string();
  std::ostringstream out;
  EXPECT_EQ(lint::lint_main(options, out), 1);
  EXPECT_NE(out.str().find("src/core/bad.cpp:2: [stream-output]"),
            std::string::npos);
}

TEST_F(LintRunner, MissingReadmeExitsTwo) {
  fs::remove(root_ / "README.md");
  lint::Options options;
  options.root = root_.string();
  std::ostringstream out;
  EXPECT_EQ(lint::lint_main(options, out), 2);
}

TEST_F(LintRunner, MissingPathExitsTwo) {
  lint::Options options;
  options.root = root_.string();
  options.paths = {"src/core/absent.cpp"};
  std::ostringstream out;
  EXPECT_EQ(lint::lint_main(options, out), 2);
}

TEST_F(LintRunner, ExplicitFileListScansOnlyThoseFiles) {
  write_src("bad.cpp", "#include <cstdio>\nvoid f() { puts(\"x\"); }\n");
  write_src("ok.cpp", "int f() { return 1; }\n");
  lint::Options options;
  options.root = root_.string();
  options.paths = {"src/core/ok.cpp"};
  std::ostringstream out;
  EXPECT_EQ(lint::lint_main(options, out), 0);
}

// The invariant CI enforces: the real library tree is lint-clean against
// the real README vocabulary.
TEST(LintRepo, RealSrcTreeIsClean) {
  lint::Options options;
  options.root = ESCHED_REPO_ROOT;
  const auto findings = lint::run_lint(options);
  for (const lint::Finding& f : findings) {
    ADD_FAILURE() << f.file << ":" << f.line << ": [" << f.rule << "] "
                  << f.message;
  }
}

}  // namespace
}  // namespace esched
