#!/usr/bin/env bash
# GCC -fanalyzer sweep over every src/ translation unit
# (docs/STATIC_ANALYSIS.md). A second, independent static-analysis
# opinion next to Clang's thread-safety analysis and dpz_analyze.
#
# Gate: a diagnostic whose PRIMARY location is a file under src/ fails
# the run. Diagnostics anchored elsewhere are reported but non-fatal,
# because with GCC 12 the C++ front of -fanalyzer is young and its
# known false-positive shapes are exactly the ones with no src/ anchor.
# Triaged examples from this tree (kept here so a future bump to a
# fixed GCC can delete the filter and go fully strict):
#
#   * "cc1plus: warning: use of uninitialized value '<unknown>'
#     [-Wanalyzer-use-of-uninitialized-value]" — no file anchor at all;
#     the event trail walks DPZ_REQUIRE's throw helper
#     (src/util/error.h detail::throw_invalid_argument). The analyzer
#     loses track of the std::string temporaries on the
#     exception-unwind path; the "uninitialized" value does not exist
#     in the program. Reproduced by a plain
#     `if (!p) throw std::invalid_argument(std::string(a) + b);`.
#   * "__last.__normal_iterator<...>::_M_current" uninitialized-value
#     warnings against std::sort/std::accumulate calls (src/stats) —
#     anchored at cc1plus, events entirely inside libstdc++'s
#     <bits/stl_algo.h>; the iterator is value-initialized by
#     std::vector::end().
#   * "use of uninitialized value '<unknown>'" WITH a src/ anchor,
#     whose event trail is only "region created on stack here" at the
#     enclosing function's opening brace followed by the read. The
#     region is a compiler temporary (a return slot, or the source of a
#     member-wise move) that GCC 12 never sees written; the objects in
#     the source are fully constructed. src/linalg/pca.cpp showed it on
#     `PcaSpectrum spec;` in fit_pca_spectrum and on
#     `PcaModel model = std::move(spec.model);` in
#     attach_top_components (8 diagnostics) until the projection
#     kernels moved into panel_product; the analyzer now stops
#     exploring that TU inside panel_product's lambdas
#     (-Wanalyzer-too-complex) and reports nothing there. It is the
#     shape behind most of the diagnostics in the TUs this sweep still
#     fails, so it is not suppressed wholesale: each TU needs its own
#     triage.
#   * "-Wanalyzer-malloc-leak" anchored in
#     /usr/include/c++/12/ext/aligned_buffer.h for a std::map copy in
#     src/tools/cli_app.cpp — the analyzer does not model
#     _Rb_tree::_M_copy reclaiming nodes via _Reuse_or_alloc_node.
#
# A true positive in this repo's code carries a src/FILE:LINE primary
# anchor (the analyzer points at the statement it blames), so the gate
# still bites where it matters. The handful of src/-anchored
# diagnostics that are still analyzer artifacts are suppressed one by
# one in SUPPRESSIONS below, each with its triage.
#
# Usage: tools/gcc_analyzer.sh [-jN]   (default: nproc jobs)
# Exit status: 0 clean, 1 src/-anchored diagnostic or compile error,
# 2 environment error.
set -u

cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 4)"
case "${1:-}" in
  -j*) jobs="${1#-j}" ;;
esac

gxx="${GXX:-g++}"
if ! "$gxx" -fanalyzer -fsyntax-only -x c++ /dev/null 2>/dev/null; then
  echo "gcc_analyzer: $gxx does not support -fanalyzer" >&2
  exit 2
fi

logdir="$(mktemp -d)"
trap 'rm -rf "$logdir"' EXIT

# Each TU compiles independently (-c to /dev/null): the analyzer is
# intraprocedural per TU and the sweep parallelizes cleanly.
find src -name '*.cpp' | sort | xargs -P "$jobs" -I {} sh -c '
  out="$1/$(echo "{}" | tr / _).log"
  '"$gxx"' -std=c++20 -O1 -fanalyzer -Isrc -c "{}" -o /dev/null \
    >"$out" 2>&1 || echo "COMPILE_FAILED {}" >>"$out"
' sh "$logdir"

# Triaged false positives WITH a src/ anchor, suppressed individually.
# Keep this list short and each entry justified; when a GCC upgrade
# fixes the underlying modeling bug, delete the entry and let the gate
# re-arm itself.
SUPPRESSIONS=(
  # DPZ_REQUIRE's throw helper builds the message by std::string
  # concatenation and then throws ([[noreturn]]). GCC 12 does not model
  # the temporaries being destroyed during exception unwinding and
  # reports the fully-owned string as leaked at the concatenation in
  # detail::throw_invalid_argument. Nothing leaks: InvalidArgument
  # copies the message and the unwind runs every destructor.
  "^src/util/error\.h:[0-9]+:[0-9]+: warning: leak of .*basic_string.*\[-Wanalyzer-malloc-leak\]"
  # push_back on std::vector<DecodeReport::FrameError>: the event trail
  # sits entirely inside libstdc++'s _M_realloc_insert /
  # __relocate_a_1, where the analyzer models operator new as possibly
  # returning NULL and then flags the placement copy through '__cur'.
  # Hosted operator new throws std::bad_alloc instead; the diagnostic
  # is anchored at the FrameError declaration only because that is the
  # template argument.
  "^src/core/chunked\.h:[0-9]+:[0-9]+: warning: dereference of (possibly-)?NULL '__cur'.*\[-Wanalyzer-(possible-)?null-dereference\]"
)
suppress_re="$(IFS='|'; echo "${SUPPRESSIONS[*]}")"

status=0
for log in "$logdir"/*.log; do
  [ -s "$log" ] || continue
  if grep -q "COMPILE_FAILED" "$log"; then
    echo "gcc_analyzer: compilation failed:" >&2
    cat "$log" >&2
    status=1
    continue
  fi
  # Primary diagnostic lines look like "FILE:LINE:COL: warning: ...";
  # event-trail lines are indented or pipe-prefixed and never match.
  fatal=$(grep -E '^src/[^ ]*: (warning|error):' "$log" |
    grep -vE "$suppress_re" || true)
  if [ -n "$fatal" ]; then
    echo "gcc_analyzer: src/-anchored diagnostic:" >&2
    cat "$log" >&2
    status=1
  elif grep -qE '(warning|error):' "$log"; then
    echo "gcc_analyzer: note: non-fatal diagnostics (triaged" \
         "false-positive shapes — see header comment):"
    grep -E '(warning|error):' "$log" | head -4 | sed 's/^/    /'
  fi
done

if [ "$status" -eq 0 ]; then
  echo "gcc_analyzer: OK ($(find src -name '*.cpp' | wc -l) translation units)"
fi
exit "$status"
