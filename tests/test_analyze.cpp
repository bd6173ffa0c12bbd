// Tests for dpz_analyze (tools/analyze/): the planted-violation corpus
// in tests/analyze_fixtures/bad must produce exactly the expected
// file:line diagnostics, the compliant counterparts in clean/ must
// produce none, and the real tree must scan clean. The lexer tests pin
// the parts malformed input is most likely to break (comments, raw
// strings, line accounting).
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/checks.h"
#include "analyze/lexer.h"

namespace {

using dpz::analyze::Finding;
using dpz::analyze::Options;
using dpz::analyze::run_checks;

std::vector<Finding> analyze(const std::string& root, bool golden) {
  Options options;
  options.root = root;
  options.golden_check = golden;
  std::string fatal;
  std::vector<Finding> findings = run_checks(options, &fatal);
  EXPECT_EQ(fatal, "") << "run_checks failed on root " << root;
  return findings;
}

std::string describe(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const Finding& f : findings)
    out << "  " << f.file << ":" << f.line << ": [" << f.check << "] "
        << f.message << "\n";
  return out.str();
}

struct Expected {
  const char* check;
  const char* file;
  int line;
  // A distinctive fragment of the message, so the test survives
  // wording tweaks but still pins which contract fired.
  const char* fragment;
};

TEST(Analyze, BadTreeEveryPlantedViolationFlagged) {
  // Sorted by (file, line, check), matching run_checks output order.
  const Expected expected[] = {
      {"single-stage", "src/baselines/restage.cpp", 7, "DCT forward"},
      {"single-stage", "src/baselines/restage.cpp", 8, "DCT inverse"},
      {"single-stage", "src/baselines/restage.cpp", 10, "component_scale"},
      {"status-exhaustive", "src/capi/dpz_c.h", 1, "StatusCode::kLost"},
      {"status-exhaustive", "src/capi/dpz_c.h", 6, "DPZ_ERR_STALE"},
      {"require-in-reader", "src/codec/bytes.h", 14, "inside ByteReader"},
      {"raw-memcpy", "src/codec/copy.cpp", 6, "memcpy"},
      {"reinterpret-cast", "src/core/cast.cpp", 6, "reinterpret_cast"},
      {"unguarded-inflate", "src/core/inflate.cpp", 10, "zlib_decompress"},
      {"telemetry-name", "src/core/log_site.cpp", 6,
       "\"decode_abort\""},
      {"single-stage", "src/core/rechoose.cpp", 7, "detect_knee"},
      {"single-stage", "src/core/rechoose.cpp", 8, "k_for_tve"},
      {"single-stage", "src/core/rechoose.cpp", 12, "sampled_vif"},
      {"telemetry-name", "src/core/record.cpp", 6, "\"bytes_in\""},
      {"single-stage", "src/core/redecode.cpp", 8, "pca_back_project"},
      {"single-stage", "src/core/redecode.cpp", 10, "from_blocks"},
      {"single-parser", "src/core/reparse.cpp", 7, "check_header_crc"},
      {"single-parser", "src/core/rewrite.cpp", 7, "kChunkedMagicV3"},
      {"single-parser", "src/core/rewrite.cpp", 8, "kDpzFlagStoredRaw"},
      {"single-parser", "src/core/rewrite.cpp", 9, "put_header_crc"},
      {"simd-isolated", "src/core/vector.cpp", 1, "immintrin"},
      {"simd-isolated", "src/core/vector.cpp", 6, "__m256d"},
      {"simd-isolated", "src/core/vector.cpp", 6, "_mm256_loadu_pd"},
      {"simd-isolated", "src/core/vector.cpp", 8, "_mm256_storeu_pd"},
      {"raw-thread", "src/linalg/bands.cpp", 7, "thread_count()"},
      {"raw-thread", "src/linalg/bands.cpp", 8, "team_width()"},
      {"telemetry-dup", "src/obs/names.h", 12, "\"encode_plan\""},
      {"single-span", "src/simd/dispatch.cpp", 7, "span_push"},
      {"single-span", "src/simd/dispatch.cpp", 9, "span_pop"},
      {"single-span", "src/simd/dispatch.cpp", 10, "TraceRecorder record"},
      {"status-exhaustive", "src/tools/cli_app.cpp", 6,
       "StatusCode::kBoom"},
      {"single-stage", "src/tools/probe.cpp", 7, "run_sampling"},
      {"status-exhaustive", "src/util/error.h", 8, "StatusCode::kLost"},
      {"naked-mutex", "src/util/worker.cpp", 6, "std::mutex"},
      {"raw-thread", "src/util/worker.cpp", 9, "std::thread"},
      {"raw-thread", "src/util/worker.cpp", 10, ".detach()"},
      {"naked-mutex", "src/util/worker.cpp", 14, "std::lock_guard"},
      {"naked-mutex", "src/util/worker.cpp", 14, "std::mutex"},
  };

  const std::vector<Finding> findings =
      analyze(std::string(DPZ_ANALYZE_FIXTURES) + "/bad", false);
  ASSERT_EQ(findings.size(), std::size(expected))
      << "findings were:\n"
      << describe(findings);
  for (std::size_t i = 0; i < findings.size(); ++i) {
    SCOPED_TRACE("finding " + std::to_string(i));
    EXPECT_EQ(findings[i].check, expected[i].check);
    EXPECT_EQ(findings[i].file, expected[i].file);
    EXPECT_EQ(findings[i].line, expected[i].line);
    EXPECT_NE(findings[i].message.find(expected[i].fragment),
              std::string::npos)
        << "message was: " << findings[i].message;
  }
}

TEST(Analyze, CleanTreeHasNoFindings) {
  const std::vector<Finding> findings =
      analyze(std::string(DPZ_ANALYZE_FIXTURES) + "/clean", false);
  EXPECT_TRUE(findings.empty()) << "findings were:\n"
                                << describe(findings);
}

// The gate CI enforces: the real tree must stay clean. If this fails,
// fix the violation (or, for a deliberate new exemption, adjust the
// check in tools/analyze/checks.cpp and document it in
// docs/STATIC_ANALYSIS.md).
TEST(Analyze, RealTreeIsClean) {
  const std::vector<Finding> findings =
      analyze(DPZ_ANALYZE_SOURCE_DIR, true);
  EXPECT_TRUE(findings.empty()) << "findings were:\n"
                                << describe(findings);
}

TEST(Analyze, CheckRegistryNamesAreUniqueAndExercised) {
  std::set<std::string> registered;
  for (const dpz::analyze::CheckInfo& check : dpz::analyze::kChecks)
    EXPECT_TRUE(registered.insert(check.name).second)
        << "duplicate check name " << check.name;

  // Every check except the git-backed golden-tracked one fires in the
  // bad tree; a check that can never fire is dead weight.
  std::set<std::string> fired;
  for (const Finding& f :
       analyze(std::string(DPZ_ANALYZE_FIXTURES) + "/bad", false))
    fired.insert(f.check);
  for (const std::string& name : registered) {
    if (name == "golden-tracked") continue;
    EXPECT_TRUE(fired.count(name) != 0)
        << "check " << name << " never fires in the bad fixture tree";
  }
}

// The check table in docs/STATIC_ANALYSIS.md ("| `name` | contract |"
// rows under the "| check | contract |" header) names exactly the
// registered checks, so neither side can gain or lose one silently.
TEST(Analyze, EveryCheckIsDocumented) {
  std::ifstream doc(std::string(DPZ_ANALYZE_SOURCE_DIR) +
                    "/docs/STATIC_ANALYSIS.md");
  ASSERT_TRUE(doc.good());
  std::set<std::string> documented;
  bool in_table = false;
  for (std::string line; std::getline(doc, line);) {
    if (line.rfind("| check | contract |", 0) == 0) {
      in_table = true;
      continue;
    }
    if (!in_table || line.rfind("|---", 0) == 0) continue;
    if (line.rfind("| `", 0) != 0) {
      in_table = false;
      continue;
    }
    const std::size_t end = line.find('`', 3);
    ASSERT_NE(end, std::string::npos) << line;
    EXPECT_TRUE(documented.insert(line.substr(3, end - 3)).second)
        << "check documented twice: " << line.substr(3, end - 3);
  }
  std::set<std::string> registered;
  for (const dpz::analyze::CheckInfo& check : dpz::analyze::kChecks)
    registered.insert(check.name);
  EXPECT_EQ(documented, registered);
}

TEST(Analyze, MissingRootIsFatalNotEmpty) {
  Options options;
  options.root = std::string(DPZ_ANALYZE_FIXTURES) + "/no_such_tree";
  options.golden_check = false;
  std::string fatal;
  const std::vector<Finding> findings = run_checks(options, &fatal);
  EXPECT_TRUE(findings.empty());
  EXPECT_NE(fatal.find("no src/ directory"), std::string::npos)
      << "fatal was: " << fatal;
}

TEST(AnalyzeLexer, StripsCommentsAndTracksLines) {
  const dpz::analyze::SourceFile file = dpz::analyze::lex(
      "t.cpp",
      "int a; // reinterpret_cast in a comment\n"
      "/* memcpy\n   spanning lines */\n"
      "int b;\n");
  std::vector<std::string> idents;
  for (const dpz::analyze::Token& t : file.tokens)
    if (t.kind == dpz::analyze::TokKind::kIdent)
      idents.push_back(t.text + ":" + std::to_string(t.line));
  EXPECT_EQ(idents,
            (std::vector<std::string>{"int:1", "a:1", "int:4", "b:4"}));
}

TEST(AnalyzeLexer, RawStringsAndEscapesStayOneToken) {
  const dpz::analyze::SourceFile file = dpz::analyze::lex(
      "t.cpp",
      "const char* a = R\"(no \"memcpy\" here)\";\n"
      "const char* b = \"esc\\\"aped\";\n");
  std::vector<std::string> strings;
  for (const dpz::analyze::Token& t : file.tokens)
    if (t.kind == dpz::analyze::TokKind::kString)
      strings.push_back(t.text);
  ASSERT_EQ(strings.size(), 2u);
  EXPECT_EQ(strings[0], "no \"memcpy\" here");
  EXPECT_NE(strings[1].find("esc"), std::string::npos);
}

}  // namespace
