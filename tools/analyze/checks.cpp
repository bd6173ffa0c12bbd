#include "analyze/checks.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "analyze/lexer.h"

namespace dpz::analyze {

const std::vector<CheckInfo> kChecks = {
    {"reinterpret-cast",
     "reinterpret_cast is banned in src/ outside codec/zlib_codec.cpp "
     "and the dsp std::complex<->double reinterpretations (fft.cpp, "
     "dct.cpp); archive bytes flow through ByteReader/BitReader"},
    {"raw-memcpy",
     "memcpy is banned in src/core and src/codec outside codec/bytes.h; "
     "bulk copies out of an archive use the checked get_bytes paths"},
    {"require-in-reader",
     "DPZ_REQUIRE is banned inside ByteReader/BitReader; readers throw "
     "FormatError so malformed input stays a recoverable status"},
    {"golden-tracked",
     "every file under tests/golden/ must be tracked by git; the "
     "format-stability tests read fixtures from a fresh clone"},
    {"unguarded-inflate",
     "zlib_decompress is banned in src/core outside layout.cpp; sections "
     "inflate only behind detail::get_section's CRC32C gate"},
    {"single-parser",
     "container magics, kDpzFlag* bits and the header seal "
     "(check_header_crc, put_header_crc) appear in src/core only in the "
     "layout module (core/layout.{h,cpp}); every reader parses through "
     "detail::parse_layout and every writer through detail::put_header"},
    {"single-span",
     "TraceRecorder::...record( and detail::span_push/span_pop appear "
     "in src/ only under src/obs/ (plus util/thread_pool.cpp, whose "
     "pool_task span carries queue-wait); everything else times through "
     "obs::ScopedSpan"},
    {"single-stage",
     "DCT row calls (.forward(/.inverse( on a plan) and component_scale( "
     "appear in src/ only in the stage home (core/archive_detail.h, "
     "defined in core/dpz.cpp) and under src/dsp/; .k_for_tve( and "
     "detect_knee( only there and under src/stats/ and src/linalg/; "
     "sampled_vif( only there, under src/stats/ and in core/sampling.cpp; "
     "run_sampling( only there and in core/sampling.{h,cpp}. Decode "
     "likewise: from_blocks( only there and in core/blocking.*, "
     "pca_back_project( only there and under src/linalg/. Every pipeline "
     "calls dct_rows, detail::stage1_inverse, detail::stage3_forward, "
     "detail::select_k, dpz_probe and detail::reconstruct instead of "
     "re-writing a stage"},
    {"telemetry-dup",
     "span/counter/histogram display names in obs/names.h must be "
     "unique; duplicates merge silently in every JSON artifact"},
    {"telemetry-name",
     "telemetry name literals appear only in the obs/names.h registry; "
     "production code records through the interned enums"},
    {"status-exhaustive",
     "every StatusCode enumerator is mapped in status_code_name, the "
     "CLI exit_code_for switch, and the dpz_c.h status constants"},
    {"naked-mutex",
     "std::mutex/locks/condition_variable appear only inside "
     "util/annotated_mutex.h; everything else uses the capability-"
     "annotated wrappers"},
    {"raw-thread",
     "std::thread/std::async/.detach() and thread_count() appear only "
     "inside util/thread_pool.{h,cpp}, team_width() also in "
     "linalg/eigen_sym.cpp (the Householder team gate); parallelism "
     "and its partition go through the pool"},
    {"simd-isolated",
     "vector intrinsics (_mm*/__m*, NEON v*q_* and float{32,64}x*) "
     "appear only under src/simd/; everything else reaches them "
     "through the dispatched simd::kernels() table"},
};

namespace {

namespace fs = std::filesystem;

using FileMap = std::map<std::string, SourceFile>;

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

void add(std::vector<Finding>* out, const char* check,
         const std::string& file, int line, std::string message) {
  out->push_back(Finding{check, file, line, std::move(message)});
}

// ---- rule 1: reinterpret_cast allowlist --------------------------------

void check_reinterpret_cast(const FileMap& files,
                            std::vector<Finding>* out) {
  // zlib_codec owns the byte-stream casts; fft.cpp/dct.cpp reinterpret
  // std::complex<double> arrays as interleaved doubles, which the
  // standard's array-oriented access guarantee sanctions (see the
  // comment atop fft.cpp).
  const std::set<std::string> allowlist = {
      "src/codec/zlib_codec.cpp", "src/dsp/fft.cpp", "src/dsp/dct.cpp"};
  for (const auto& [path, file] : files) {
    if (allowlist.count(path) != 0) continue;
    for (const Token& t : file.tokens)
      if (t.kind == TokKind::kIdent && t.text == "reinterpret_cast")
        add(out, "reinterpret-cast", path, t.line,
            "reinterpret_cast outside the allowlist; read archive "
            "bytes through ByteReader/BitReader instead");
  }
}

// ---- rule: SIMD intrinsics stay under src/simd/ ------------------------

// The dispatch design (docs/SIMD.md) funnels every vectorized primitive
// through simd::kernels(); an intrinsic anywhere else either bypasses
// the runtime CPU check (illegal-instruction risk on older hosts) or
// forks the sixteen-lane reduction contract. Matches the x86 vector
// vocabulary (_mm*/..., __m128/__m256/__m512 types), the NEON one
// (float64x2_t and the v...q_ intrinsic families), and the header names
// so an unused include is flagged too.
bool is_intrinsic_ident(const std::string& t) {
  if (t.rfind("_mm", 0) == 0) return true;    // _mm_, _mm256_, _mm512_
  if (t.rfind("__m128", 0) == 0 || t.rfind("__m256", 0) == 0 ||
      t.rfind("__m512", 0) == 0)
    return true;
  if (t == "immintrin" || t == "arm_neon") return true;
  if (t.rfind("float64x", 0) == 0 || t.rfind("float32x", 0) == 0)
    return true;
  static const char* const kNeonFamilies[] = {
      "vld1q", "vst1q", "vdupq", "vaddq", "vsubq", "vmulq",
      "vfmaq", "vfmsq", "vnegq", "vgetq", "vsetq", "vcombine",
      "vpaddq", "vaddvq"};
  for (const char* prefix : kNeonFamilies)
    if (t.rfind(prefix, 0) == 0) return true;
  return false;
}

void check_simd_isolated(const FileMap& files, std::vector<Finding>* out) {
  for (const auto& [path, file] : files) {
    if (starts_with(path, "src/simd/")) continue;
    for (const Token& t : file.tokens)
      if (t.kind == TokKind::kIdent && is_intrinsic_ident(t.text))
        add(out, "simd-isolated", path, t.line,
            "vector intrinsic '" + t.text +
                "' outside src/simd/; call through the dispatched "
                "simd::kernels() table instead");
  }
}

// ---- rule 2: raw memcpy near the decode path ---------------------------

void check_raw_memcpy(const FileMap& files, std::vector<Finding>* out) {
  for (const auto& [path, file] : files) {
    if (!starts_with(path, "src/core/") &&
        !starts_with(path, "src/codec/"))
      continue;
    if (path == "src/codec/bytes.h") continue;
    for (const Token& t : file.tokens)
      if (t.kind == TokKind::kIdent && t.text == "memcpy")
        add(out, "raw-memcpy", path, t.line,
            "memcpy in the decode path outside codec/bytes.h; use "
            "the checked ByteReader accessors");
  }
}

// ---- rule 3: DPZ_REQUIRE inside reader classes -------------------------

void check_require_in_reader(const FileMap& files,
                             std::vector<Finding>* out) {
  const struct {
    const char* path;
    const char* klass;
  } readers[] = {{"src/codec/bytes.h", "ByteReader"},
                 {"src/codec/bitstream.h", "BitReader"}};
  for (const auto& reader : readers) {
    const auto it = files.find(reader.path);
    if (it == files.end()) continue;
    const std::vector<Token>& toks = it->second.tokens;
    const std::optional<TokenRange> body =
        find_class_body(toks, reader.klass);
    if (!body) continue;
    for (std::size_t i = body->begin; i < body->end; ++i)
      if (toks[i].kind == TokKind::kIdent &&
          toks[i].text == "DPZ_REQUIRE")
        add(out, "require-in-reader", it->first, toks[i].line,
            std::string("DPZ_REQUIRE inside ") + reader.klass +
                "; readers must throw FormatError for malformed "
                "input (DPZ_REQUIRE is for caller contracts only)");
  }
}

// ---- rule 4: golden fixtures must be tracked ---------------------------

void check_golden_tracked(const std::string& root,
                          std::vector<Finding>* out) {
  if (!fs::is_directory(fs::path(root) / "tests" / "golden")) return;
  const std::string command =
      "git -C '" + root + "' ls-files --others tests/golden 2>/dev/null";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return;
  std::string output;
  char buffer[512];
  while (std::fgets(buffer, sizeof buffer, pipe) != nullptr)
    output += buffer;
  if (::pclose(pipe) != 0) return;  // git unavailable: skip, not fail
  std::istringstream lines(output);
  std::string path;
  while (std::getline(lines, path))
    if (!path.empty())
      add(out, "golden-tracked", path, 1,
          "untracked file in tests/golden/ (git add -f it, or extend "
          "the .gitignore negation; the format-stability tests read "
          "fixtures from a fresh clone)");
}

// ---- rule 5: inflate only behind the checksum gate ---------------------

void check_unguarded_inflate(const FileMap& files,
                             std::vector<Finding>* out) {
  for (const auto& [path, file] : files) {
    if (!starts_with(path, "src/core/") || path == "src/core/layout.cpp")
      continue;
    for (const Token& t : file.tokens)
      if (t.kind == TokKind::kIdent && t.text == "zlib_decompress")
        add(out, "unguarded-inflate", path, t.line,
            "zlib_decompress in src/core outside layout.cpp; route "
            "section reads through detail::get_section so the CRC "
            "is verified before inflation");
  }
}

// ---- single-parser: each container format is stated once --------------

// The layout module reads and writes every container header and section
// frame. A magic, a DPZ flag bit or a header seal (checked or appended)
// anywhere else in src/core is a second statement of some format, free
// to drift from the one that verify and decode parse.
bool is_format_ident(const std::string& t) {
  return t == "check_header_crc" || t == "put_header_crc" ||
         starts_with(t, "kDpzFlag") ||
         (starts_with(t, "k") && t.find("Magic") != std::string::npos);
}

void check_single_parser(const FileMap& files, std::vector<Finding>* out) {
  for (const auto& [path, file] : files) {
    if (!starts_with(path, "src/core/") || path == "src/core/layout.h" ||
        path == "src/core/layout.cpp")
      continue;
    for (const Token& t : file.tokens)
      if (t.kind == TokKind::kIdent && is_format_ident(t.text))
        add(out, "single-parser", path, t.line,
            t.text + " outside the layout module; read a container "
            "with detail::parse_layout and write its header with "
            "detail::put_header (core/layout.h)");
  }
}

// ---- single-span: one span scope feeds stats, trace and breadcrumbs ---

// A direct TraceRecorder record or breadcrumb push outside src/obs/ is a
// second span mechanism: it can record with telemetry off, skip the
// breadcrumb, or time apart from the DpzStats sink. The thread pool keeps
// its own record because its pool_task span carries queue-wait.
void check_single_span(const FileMap& files, std::vector<Finding>* out) {
  for (const auto& [path, file] : files) {
    if (starts_with(path, "src/obs/") || path == "src/util/thread_pool.cpp")
      continue;
    const std::vector<Token>& toks = file.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdent || toks[i + 1].text != "(")
        continue;
      if (toks[i].text == "span_push" || toks[i].text == "span_pop")
        add(out, "single-span", path, toks[i].line,
            toks[i].text +
                " outside src/obs/; obs::ScopedSpan maintains the "
                "breadcrumb stack");
      if (toks[i].text != "record") continue;
      // Walk the call chain back to its head: obs::TraceRecorder::
      // instance().record( names TraceRecorder within the statement.
      for (std::size_t j = i; j-- > 0;) {
        const std::string& t = toks[j].text;
        if (t == ";" || t == "{" || t == "}") break;
        if (t == "TraceRecorder") {
          add(out, "single-span", path, toks[i].line,
              "TraceRecorder record outside src/obs/; time the scope "
              "with obs::ScopedSpan (optionally into a StageTimes sink)");
          break;
        }
      }
    }
  }
}

// ---- single-stage: each pipeline stage is written once -----------------

// A DCT row loop or a score normalization outside the stage home
// (core/archive_detail.h, defined in core/dpz.cpp) is a second copy of
// Stage 1 or Stage 3, free to drift from the archive that ships
// (DpzAnalysis once predicted sizes from such a copy). The transforms
// themselves live in src/dsp/. Likewise Stage 2's k rule (a TVE
// threshold or a knee on the TVE curve) lives in detail::select_k, and
// Algorithm 2's VIF probe and its run_sampling call in compress's Stage 1
// and dpz_probe: a hand copy once silently ignored fixed_k, and another
// skipped the DCT truncation, so the probe's k was not compress's. The
// curve primitives live in src/stats/ and src/linalg/; run_sampling's
// probe of an unprobed matrix (core/sampling.cpp) is the one sanctioned
// sampled_vif caller outside the stage home. Decode is the same
// chain inverted: a back-projection or a de-blocking outside
// detail::reconstruct/stage1_inverse is a second decoder (the
// shared-basis codec once carried one).
void check_single_stage(const FileMap& files, std::vector<Finding>* out) {
  for (const auto& [path, file] : files) {
    if (path == "src/core/archive_detail.h" || path == "src/core/dpz.cpp")
      continue;
    const bool dsp = starts_with(path, "src/dsp/");
    const bool stats = starts_with(path, "src/stats/");
    const bool k_rule_ok = stats || starts_with(path, "src/linalg/");
    const bool vif_ok = stats || path == "src/core/sampling.cpp";
    const bool sampling_ok = starts_with(path, "src/core/sampling.");
    const bool deblock_ok = starts_with(path, "src/core/blocking.");
    const bool backproject_ok = starts_with(path, "src/linalg/");
    const std::vector<Token>& toks = file.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdent || toks[i + 1].text != "(")
        continue;
      const std::string& t = toks[i].text;
      // "->" lexes as two punctuators.
      const bool member_call =
          i > 0 && (toks[i - 1].text == "." ||
                    (i > 1 && toks[i - 1].text == ">" &&
                     toks[i - 2].text == "-"));
      if (!dsp && member_call && (t == "forward" || t == "inverse"))
        add(out, "single-stage", path, toks[i].line,
            "DCT " + t + " call outside the stage home; run Stage 1 "
            "through dct_rows/detail::stage1_inverse");
      if (!dsp && t == "component_scale")
        add(out, "single-stage", path, toks[i].line,
            "component_scale outside the stage home; normalize and "
            "quantize through detail::stage3_forward");
      if (!k_rule_ok &&
          ((member_call && t == "k_for_tve") || t == "detect_knee"))
        add(out, "single-stage", path, toks[i].line,
            t + " outside the stage home; choose k through "
            "detail::select_k");
      if (!vif_ok && t == "sampled_vif")
        add(out, "single-stage", path, toks[i].line,
            "sampled_vif outside the stage home; probe through "
            "dpz_probe, which runs compress's own Stage 1");
      if (!sampling_ok && t == "run_sampling")
        add(out, "single-stage", path, toks[i].line,
            "run_sampling outside the stage home; estimate k through "
            "dpz_probe, which runs compress's own Stage 1");
      if (!deblock_ok && t == "from_blocks")
        add(out, "single-stage", path, toks[i].line,
            "from_blocks outside the stage home; invert Stage 1 "
            "through detail::stage1_inverse");
      if (!backproject_ok && t == "pca_back_project")
        add(out, "single-stage", path, toks[i].line,
            "pca_back_project outside the stage home; decode through "
            "detail::reconstruct");
    }
  }
}

// ---- rule 6: telemetry names live only in obs/names.h ------------------

bool is_telemetry_name(const std::string& s) {
  if (s.empty()) return false;
  for (const char c : s)
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_'))
      return false;
  return true;
}

// Display-name string tokens inside the brace initializer of variable
// `name`. In a nested aggregate ({"name", "category"} rows of
// kSpanInfo) only the first string of each inner group is the display
// name; trailing fields (categories) are a separate namespace and may
// repeat.
std::vector<const Token*> table_strings(const std::vector<Token>& toks,
                                        const std::string& name) {
  std::vector<const Token*> strings;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || toks[i].text != name)
      continue;
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      if (toks[j].kind != TokKind::kPunct) continue;
      if (toks[j].text == ";") break;
      if (toks[j].text == "{") {
        const std::size_t close = match_brace(toks, j);
        if (close == std::string::npos) break;
        bool group_has_name = false;
        for (std::size_t k = j + 1; k < close; ++k) {
          if (toks[k].kind == TokKind::kPunct && toks[k].text == "{")
            group_has_name = false;
          if (toks[k].kind == TokKind::kString && !group_has_name) {
            strings.push_back(&toks[k]);
            group_has_name = true;
          }
        }
        return strings;
      }
    }
    break;
  }
  return strings;
}

void check_telemetry_names(const FileMap& files,
                           std::vector<Finding>* out) {
  const char* kRegistry = "src/obs/names.h";
  const auto it = files.find(kRegistry);
  if (it == files.end()) return;  // tree without telemetry: nothing to do

  std::set<std::string> names;
  std::size_t extracted = 0;
  for (const char* table :
       {"kSpanInfo", "kCounterNames", "kHistNames", "kEventNames"}) {
    for (const Token* t : table_strings(it->second.tokens, table)) {
      if (!is_telemetry_name(t->text)) continue;
      ++extracted;
      if (!names.insert(t->text).second)
        add(out, "telemetry-dup", kRegistry, t->line,
            "duplicate telemetry name \"" + t->text +
                "\" (every span/metric needs a distinct display "
                "name)");
    }
  }
  if (extracted == 0) {
    add(out, "telemetry-name", kRegistry, 1,
        "could not extract telemetry names from the registry tables "
        "(kSpanInfo/kCounterNames/kHistNames/kEventNames renamed?)");
    return;
  }
  for (const auto& [path, file] : files) {
    if (path == kRegistry) continue;
    for (const Token& t : file.tokens)
      if (t.kind == TokKind::kString && names.count(t.text) != 0)
        add(out, "telemetry-name", path, t.line,
            "telemetry name literal \"" + t.text +
                "\" outside obs/names.h; record through the obs "
                "enums (names are declared once in the registry)");
  }
}

// ---- status-exhaustive: StatusCode switch/table coverage ---------------

struct Enumerator {
  std::string name;
  long value = 0;
  int line = 0;
};

// Enumerators of `enum class <name>` with their (decimal) values.
std::vector<Enumerator> enum_values(const std::vector<Token>& toks,
                                    const std::string& name) {
  std::vector<Enumerator> values;
  const std::optional<TokenRange> body = find_enum_body(toks, name);
  if (!body) return values;
  long next = 0;
  bool expect_name = true;
  for (std::size_t i = body->begin; i < body->end; ++i) {
    const Token& t = toks[i];
    if (expect_name && t.kind == TokKind::kIdent) {
      long value = next;
      if (i + 2 < body->end && toks[i + 1].text == "=" &&
          toks[i + 2].kind == TokKind::kNumber)
        value = std::strtol(toks[i + 2].text.c_str(), nullptr, 0);
      values.push_back(Enumerator{t.text, value, t.line});
      next = value + 1;
      expect_name = false;
    } else if (t.kind == TokKind::kPunct && t.text == ",") {
      expect_name = true;
    }
  }
  return values;
}

// `case StatusCode::<name>` labels inside a token range.
std::set<std::string> case_labels(const std::vector<Token>& toks,
                                  const TokenRange& range) {
  std::set<std::string> labels;
  for (std::size_t i = range.begin; i + 3 < range.end; ++i)
    if (toks[i].kind == TokKind::kIdent && toks[i].text == "case" &&
        toks[i + 1].text == "StatusCode" && toks[i + 2].text == "::" &&
        toks[i + 3].kind == TokKind::kIdent)
      labels.insert(toks[i + 3].text);
  return labels;
}

void check_status_exhaustive(const FileMap& files,
                             std::vector<Finding>* out) {
  const char* kErrorH = "src/util/error.h";
  const char* kCliCpp = "src/tools/cli_app.cpp";
  const char* kCapiH = "src/capi/dpz_c.h";

  const auto error_it = files.find(kErrorH);
  if (error_it == files.end()) {
    add(out, "status-exhaustive", kErrorH, 1,
        "src/util/error.h not found; cannot enumerate StatusCode");
    return;
  }
  const std::vector<Token>& error_toks = error_it->second.tokens;
  const std::vector<Enumerator> codes =
      enum_values(error_toks, "StatusCode");
  if (codes.empty()) {
    add(out, "status-exhaustive", kErrorH, 1,
        "could not find enum class StatusCode in src/util/error.h");
    return;
  }

  // (1) status_code_name in error.h covers every enumerator.
  const std::optional<TokenRange> name_fn =
      find_function_body(error_toks, "status_code_name");
  if (!name_fn) {
    add(out, "status-exhaustive", kErrorH, 1,
        "no status_code_name(StatusCode) definition found");
  } else {
    const std::set<std::string> covered =
        case_labels(error_toks, *name_fn);
    for (const Enumerator& e : codes)
      if (covered.count(e.name) == 0)
        add(out, "status-exhaustive", kErrorH, e.line,
            "StatusCode::" + e.name +
                " has no case in status_code_name; every status "
                "needs a stable display name");
  }

  // (2) the CLI exit-code switch covers every enumerator.
  const auto cli_it = files.find(kCliCpp);
  if (cli_it == files.end()) {
    add(out, "status-exhaustive", kCliCpp, 1,
        "src/tools/cli_app.cpp not found; cannot check the CLI "
        "exit-code switch");
  } else {
    const std::vector<Token>& cli_toks = cli_it->second.tokens;
    const std::optional<TokenRange> exit_fn =
        find_function_body(cli_toks, "exit_code_for");
    if (!exit_fn) {
      add(out, "status-exhaustive", kCliCpp, 1,
          "no exit_code_for(StatusCode) switch found; CLI exit codes "
          "must be exhaustive over StatusCode");
    } else {
      const std::set<std::string> covered =
          case_labels(cli_toks, *exit_fn);
      const int fn_line = cli_toks[exit_fn->begin].line;
      for (const Enumerator& e : codes)
        if (covered.count(e.name) == 0)
          add(out, "status-exhaustive", kCliCpp, fn_line,
              "StatusCode::" + e.name +
                  " has no case in exit_code_for; a new status "
                  "needs an explicit CLI exit code");
    }
  }

  // (3) dpz_c.h mirrors every value with a DPZ_* constant, and has no
  // constants the C++ enum does not know.
  const auto capi_it = files.find(kCapiH);
  if (capi_it == files.end()) {
    add(out, "status-exhaustive", kCapiH, 1,
        "src/capi/dpz_c.h not found; cannot check the C status "
        "constants");
    return;
  }
  const std::vector<Token>& capi_toks = capi_it->second.tokens;
  std::map<long, Enumerator> c_constants;
  for (std::size_t i = 0; i + 2 < capi_toks.size(); ++i) {
    const Token& t = capi_toks[i];
    if (t.kind != TokKind::kIdent) continue;
    const bool is_status = t.text == "DPZ_OK" || t.text == "DPZ_PARTIAL" ||
                           starts_with(t.text, "DPZ_ERR_");
    if (!is_status) continue;
    if (capi_toks[i + 1].text != "=" ||
        capi_toks[i + 2].kind != TokKind::kNumber)
      continue;
    const long value =
        std::strtol(capi_toks[i + 2].text.c_str(), nullptr, 0);
    c_constants.emplace(value, Enumerator{t.text, value, t.line});
  }
  // Sentinels (trailing Count_ enumerators) have no C mirror; the
  // StatusCode enum has none today, but keep the rule future-proof.
  for (const Enumerator& e : codes) {
    if (e.name.size() > 1 && e.name.back() == '_') continue;
    if (c_constants.count(e.value) == 0)
      add(out, "status-exhaustive", kCapiH, 1,
          "StatusCode::" + e.name + " (value " +
              std::to_string(e.value) +
              ") has no DPZ_* status constant with that value in "
              "dpz_c.h");
  }
  for (const auto& [value, constant] : c_constants) {
    const bool known =
        std::any_of(codes.begin(), codes.end(), [v = value](
                                                    const Enumerator& e) {
          return e.value == v;
        });
    if (!known)
      add(out, "status-exhaustive", kCapiH, constant.line,
          constant.name + " (value " + std::to_string(value) +
              ") has no StatusCode enumerator with that value in "
              "util/error.h");
  }
}

// ---- naked-mutex / raw-thread: concurrency primitives ------------------

const std::set<std::string> kMutexIdents = {
    "mutex",          "timed_mutex",
    "recursive_mutex", "recursive_timed_mutex",
    "shared_mutex",   "shared_timed_mutex",
    "lock_guard",     "unique_lock",
    "scoped_lock",    "shared_lock",
    "condition_variable", "condition_variable_any",
};

const std::set<std::string> kThreadIdents = {"thread", "jthread", "async"};

void check_concurrency_primitives(const FileMap& files,
                                  std::vector<Finding>* out) {
  for (const auto& [path, file] : files) {
    const bool mutex_ok = path == "src/util/annotated_mutex.h";
    const bool thread_ok = path == "src/util/thread_pool.h" ||
                           path == "src/util/thread_pool.cpp";
    const std::vector<Token>& toks = file.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (toks[i].kind == TokKind::kIdent && toks[i].text == "std" &&
          toks[i + 1].text == "::" &&
          toks[i + 2].kind == TokKind::kIdent) {
        const std::string& member = toks[i + 2].text;
        if (!mutex_ok && kMutexIdents.count(member) != 0)
          add(out, "naked-mutex", path, toks[i].line,
              "naked std::" + member +
                  " outside util/annotated_mutex.h; use the "
                  "capability-annotated Mutex/MutexLock/CondVar so "
                  "-Wthread-safety sees the lock");
        if (!thread_ok && kThreadIdents.count(member) != 0)
          add(out, "raw-thread", path, toks[i].line,
              "raw std::" + member +
                  " outside util/thread_pool; parallelism goes "
                  "through the deterministic pool");
      }
      if (!thread_ok && toks[i].kind == TokKind::kPunct &&
          toks[i].text == "." && toks[i + 1].text == "detach" &&
          toks[i + 2].text == "(")
        add(out, "raw-thread", path, toks[i].line,
            ".detach() outside util/thread_pool; detached threads "
            "outlive their pool and break the join contract");
      // The pool is the one partitioner: code that reads its width to
      // cut its own bands splits work a second way.
      if (!thread_ok && toks[i].kind == TokKind::kIdent &&
          toks[i + 1].text == "(" &&
          (toks[i].text == "thread_count" ||
           (toks[i].text == "team_width" &&
            path != "src/linalg/eigen_sym.cpp")))
        add(out, "raw-thread", path, toks[i].line,
            toks[i].text +
                "() outside util/thread_pool; split work with "
                "parallel_chunks instead of partitioning by the pool "
                "width");
    }
  }
}

}  // namespace

std::vector<Finding> run_checks(const Options& options,
                                std::string* fatal) {
  std::vector<Finding> findings;
  const fs::path root(options.root);
  const fs::path src = root / "src";
  std::error_code ec;
  if (!fs::is_directory(src, ec)) {
    *fatal = "no src/ directory under root '" + options.root + "'";
    return findings;
  }

  std::vector<fs::path> paths;
  for (auto it = fs::recursive_directory_iterator(src, ec);
       it != fs::recursive_directory_iterator(); ++it) {
    if (!it->is_regular_file()) continue;
    const std::string ext = it->path().extension().string();
    if (ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc")
      paths.push_back(it->path());
  }
  std::sort(paths.begin(), paths.end());

  FileMap files;
  for (const fs::path& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      *fatal = "cannot read " + path.string();
      return findings;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string rel =
        fs::relative(path, root, ec).generic_string();
    if (ec) rel = path.generic_string();
    files.emplace(rel, lex(rel, text.str()));
  }

  check_reinterpret_cast(files, &findings);
  check_simd_isolated(files, &findings);
  check_raw_memcpy(files, &findings);
  check_require_in_reader(files, &findings);
  if (options.golden_check)
    check_golden_tracked(options.root, &findings);
  check_unguarded_inflate(files, &findings);
  check_single_parser(files, &findings);
  check_single_span(files, &findings);
  check_single_stage(files, &findings);
  check_telemetry_names(files, &findings);
  check_status_exhaustive(files, &findings);
  check_concurrency_primitives(files, &findings);

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.check != b.check) return a.check < b.check;
              return a.message < b.message;
            });
  return findings;
}

}  // namespace dpz::analyze
