// Golden tests for tools/skylint: every fixture under tests/skylint_fixtures
// declares its expected diagnostics inline with marker comments, and the
// analyzer's output must match them exactly (same lines, same rules, and —
// when the marker gives one — a message substring).
//
// Marker forms, anywhere in a line:
//   // expect(<rule>)[: <message substring>]       diagnostic on THIS line
//   // expect-next(<rule>)[: <message substring>]  diagnostic on the NEXT line
//
// Files without markers (the *_fixed / *_ok variants) must analyze clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/skylint/analysis.h"
#include "tools/skylint/lexer.h"

namespace {

namespace fs = std::filesystem;

struct Expectation {
  int line = 0;
  std::string rule;
  std::string substr;  // empty => any message
  bool matched = false;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Scans one fixture's raw text for expect()/expect-next() markers.
std::vector<Expectation> ParseExpectations(const std::string& text) {
  std::vector<Expectation> out;
  std::istringstream lines(text);
  std::string line;
  for (int lineno = 1; std::getline(lines, line); lineno++) {
    for (const auto& [tag, offset] :
         {std::pair<const char*, int>{"expect-next(", 1}, {"expect(", 0}}) {
      const std::size_t at = line.find(tag);
      if (at == std::string::npos) continue;
      const std::size_t open = at + std::string(tag).size();
      const std::size_t close = line.find(')', open);
      if (close == std::string::npos) continue;
      Expectation e;
      e.line = lineno + offset;
      e.rule = line.substr(open, close - open);
      if (close + 2 < line.size() && line[close + 1] == ':') {
        e.substr = line.substr(close + 2);
        while (!e.substr.empty() && e.substr.front() == ' ') e.substr.erase(0, 1);
      }
      out.push_back(std::move(e));
      break;  // one marker per line
    }
  }
  return out;
}

std::vector<skylint::Diagnostic> Analyze(const std::string& path, const std::string& text) {
  skylint::Analyzer analyzer;
  analyzer.AddFile(skylint::Lex(path, text));
  return analyzer.Run();
}

class SkylintFixtureTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SkylintFixtureTest, MatchesGolden) {
  const std::string path = std::string(SKYLINT_FIXTURE_DIR) + "/" + GetParam();
  const std::string text = ReadFile(path);
  ASSERT_FALSE(text.empty()) << "cannot read fixture " << path;

  std::vector<Expectation> expected = ParseExpectations(text);
  const std::vector<skylint::Diagnostic> diags = Analyze(path, text);

  for (const skylint::Diagnostic& d : diags) {
    bool matched = false;
    for (Expectation& e : expected) {
      if (e.matched || e.line != d.line || e.rule != d.rule) continue;
      if (!e.substr.empty() && d.message.find(e.substr) == std::string::npos) continue;
      e.matched = true;
      matched = true;
      break;
    }
    EXPECT_TRUE(matched) << "unexpected diagnostic in " << GetParam() << ":\n  line " << d.line
                         << ": " << d.rule << ": " << d.message;
  }
  for (const Expectation& e : expected) {
    EXPECT_TRUE(e.matched) << "missing diagnostic in " << GetParam() << ":\n  expected line "
                           << e.line << ": " << e.rule
                           << (e.substr.empty() ? "" : " (message containing '" + e.substr + "')");
  }
}

std::vector<std::string> FixtureNames() {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(SKYLINT_FIXTURE_DIR)) {
    if (entry.path().extension() == ".cpp") {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

INSTANTIATE_TEST_SUITE_P(Corpus, SkylintFixtureTest, ::testing::ValuesIn(FixtureNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return name;
                         });

// The three PR 2 regressions must stay in the corpus, in bad AND fixed form:
// they are the incidents this tool exists to prevent.
TEST(SkylintCorpus, Pr2RegressionsPresent) {
  const std::set<std::string> names = [] {
    std::set<std::string> s;
    for (const std::string& n : FixtureNames()) s.insert(n);
    return s;
  }();
  for (const char* base : {"regress_errno_across_switch", "regress_preempt_unbalanced",
                           "regress_signal_malloc"}) {
    EXPECT_TRUE(names.count(std::string(base) + ".cpp")) << base;
    EXPECT_TRUE(names.count(std::string(base) + "_fixed.cpp")) << base;
  }
}

// The runtime updates preempt-disable depths through PreemptDepthInc/Dec;
// R2 must keep seeing an unbalanced pair of them.
TEST(SkylintCorpus, PreemptDepthHelperPairPresent) {
  const std::vector<std::string> names = FixtureNames();
  for (const char* name : {"preempt_depth_helpers.cpp", "preempt_depth_helpers_fixed.cpp"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end()) << name;
  }
}

// The lock-discipline rules (skylint v2) must keep their bad AND fixed
// exemplars in the corpus — one pair per rule — plus the #ifdef coverage
// fixture proving io_uring-only code is analyzed in the epoll config too.
TEST(SkylintCorpus, LockDisciplinePairsPresent) {
  const std::set<std::string> names = [] {
    std::set<std::string> s;
    for (const std::string& n : FixtureNames()) s.insert(n);
    return s;
  }();
  for (const char* base : {"lock_held_across_switch", "lock_order_cycle", "blocking_on_worker",
                           "lock_requires_unheld"}) {
    EXPECT_TRUE(names.count(std::string(base) + ".cpp")) << base;
    EXPECT_TRUE(names.count(std::string(base) + "_fixed.cpp")) << base;
  }
  EXPECT_TRUE(names.count("uring_ifdef_seen.cpp"));
}

// The bad fixtures must also fail at the CLI contract level: nonzero exit is
// what gates CI. Exercised via the library (exit code mirrors !diags.empty()).
TEST(SkylintCorpus, BadVariantsHaveFindings) {
  for (const std::string& name : FixtureNames()) {
    const std::string path = std::string(SKYLINT_FIXTURE_DIR) + "/" + name;
    const std::string text = ReadFile(path);
    const bool expect_findings = !ParseExpectations(text).empty();
    const bool has_findings = !Analyze(path, text).empty();
    EXPECT_EQ(expect_findings, has_findings) << name;
  }
}

}  // namespace
