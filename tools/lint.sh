#!/usr/bin/env bash
# Repository-specific lint rules for the decode fault boundary — now a
# thin wrapper around the dpz_analyze binary (tools/analyze/), which
# implements every rule below as a structured check with file:line
# diagnostics and a --json report. See docs/STATIC_ANALYSIS.md.
#
# clang-tidy (.clang-tidy) covers generic C++ hygiene; the rules here
# encode DPZ's archive-parsing policy, which no generic check expresses:
#
#   1. reinterpret_cast is banned in src/ outside an explicit allowlist
#      (codec/zlib_codec.cpp). Archive bytes must be read through
#      ByteReader/BitReader accessors, which bounds-check and
#      byte-assemble; type-punning a byte span is how unaligned and
#      out-of-bounds reads enter a decoder.          [reinterpret-cast]
#   2. memcpy is banned in src/core and src/codec outside codec/bytes.h.
#      Same rationale: bulk copies out of an archive must flow through
#      the checked get_bytes/get_blob paths so a forged length cannot
#      read past the buffer.                              [raw-memcpy]
#   3. DPZ_REQUIRE is banned inside the ByteReader and BitReader
#      classes. DPZ_REQUIRE states a *caller* contract and must never
#      guard values derived from archive bytes — readers throw
#      FormatError so that malformed input stays a recoverable status
#      (docs/FORMAT.md, "Validation and error behavior").
#                                                   [require-in-reader]
#   4. Every file under tests/golden/ must be tracked by git. The
#      format-stability suite reads those archives from a fresh clone,
#      and the repo-wide *.dpz ignore rule can silently swallow a new
#      fixture: it passes every local run, then fails in CI (or for the
#      next clone) with a missing-file error that looks like a format
#      regression. Any file present on disk but unknown to git —
#      untracked OR ignored — is an error here; `git add -f` the
#      fixture or extend the .gitignore negation.     [golden-tracked]
#   5. zlib_decompress is banned in src/core outside layout.cpp. The v2
#      integrity contract is verify-before-inflate: every section blob
#      flows through detail::get_section (layout.cpp), which checks the
#      CRC32C seal before sizing the inflation buffer. A second inflate
#      call site in core would be a path where corrupted bytes reach
#      the allocator unchecked.                     [unguarded-inflate]
#   6. Telemetry span/metric/log-event names are declared once, in the
#      src/obs/names.h tables; production code records through the
#      interned enums. A quoted telemetry name anywhere else in src/ is
#      a stray literal that can drift from the registry, and duplicate
#      display names inside the registry would merge silently in every
#      JSON artifact.              [telemetry-name] [telemetry-dup]
#
# dpz_analyze adds checks with no lint.sh ancestry; this wrapper runs all
# of them. `dpz_analyze --list-checks` prints the registry, and the check
# table in docs/STATIC_ANALYSIS.md names exactly the same set (test
# Analyze.EveryCheckIsDocumented).
#
# Usage: tools/lint.sh [--json] [extra dpz_analyze args]
#   --json is forwarded, so CI can consume structured findings.
#   DPZ_ANALYZE=/path/to/dpz_analyze overrides binary discovery.
#
# Exit status: 0 clean, 1 violations found, 2 environment error.
set -u

cd "$(dirname "$0")/.."

# Locate (or build) the analyzer: an explicit override, any configured
# build tree, else a direct compile — the tool has no dependencies
# beyond a C++20 compiler, so lint works before the first cmake run.
analyze="${DPZ_ANALYZE:-}"
if [ -z "$analyze" ]; then
  for candidate in build*/tools/analyze/dpz_analyze; do
    if [ -x "$candidate" ]; then
      analyze="$candidate"
      break
    fi
  done
fi
if [ -z "$analyze" ]; then
  analyze="$(mktemp -d)/dpz_analyze"
  echo "lint: no built dpz_analyze found; compiling one" >&2
  if ! "${CXX:-c++}" -std=c++20 -O1 -I tools \
      tools/analyze/analyze_main.cpp tools/analyze/checks.cpp \
      tools/analyze/lexer.cpp -o "$analyze"; then
    echo "lint: failed to build dpz_analyze" >&2
    exit 2
  fi
fi

# Preserve the historical "lint: OK" success line (but never inside a
# --json stream, which must stay pure JSON on stdout).
"$analyze" --root=. "$@"
rc=$?
if [ "$rc" -eq 0 ]; then
  case " $* " in
    *" --json "*) ;;
    *) echo "lint: OK" ;;
  esac
fi
exit "$rc"
