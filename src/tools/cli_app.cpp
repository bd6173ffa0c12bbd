#include "tools/cli_app.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <iostream>

#include <filesystem>
#include <fstream>
#include <map>
#include <new>
#include <optional>

#include "core/blocking.h"
#include "core/dpz.h"
#include "core/chunked.h"
#include "core/layout.h"
#include "core/rate_control.h"
#include "core/sampling.h"
#include "core/verify.h"
#include "data/datasets.h"
#include "io/file_io.h"
#include "metrics/metrics.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "simd/simd.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/format.h"
#include "util/json_mini.h"
#include "util/resource.h"
#include "util/timer.h"

namespace dpz::tools {

namespace {

const char* kUsage = R"(usage:
  dpz compress   <in.f32> <out.dpz> --shape=AxBxC [options]
  dpz decompress <in.dpz> <out.f32> [--components=k] [--threads=N]
                 [--best-effort] [--fill=V]
  dpz info       <in.dpz>
  dpz verify     <archive> [--scrub]
  dpz repair     <archive>
  dpz inspect    <archive>
  dpz probe      <in.f32> --shape=AxBxC [--scheme=l|s] [--tve=...]
                 [--knee[=1d|polyn]]
  dpz datasets   <outdir> [--scale=0.2] [--names=CLDHGH,PHIS] [--seed=N]
  dpz trace-report <trace.json>

decompress options:
  --best-effort       salvage a damaged chunked container: intact frames
                      decode normally, lost frames are filled with --fill
                      (exit 3 when frames were lost, 0 on full recovery)
  --fill=V            fill value for lost frames (default 0)

verify walks an archive's sections and checks every CRC32C (format v2)
without decompressing; inspect dumps the header and section table.
Both exit 0 when the archive is intact, 1 otherwise.

verify --scrub additionally recomputes a parity-carrying container's
Reed-Solomon shards and cross-checks them against the stored parity,
still without decoding any frame. repair rebuilds damaged frames (and
damaged parity shards) from surviving shards and rewrites the archive
in place atomically (temp + fsync + rename); it exits 0 when the
archive ends up intact, 1 when damage exceeds the parity budget.

compress options:
  --scheme=l|s        loose (P=1e-3, 1-byte codes) or strict (default)
  --tve=0.99999       explained-variance threshold for k selection
  --knee[=1d|polyn]   knee-point k selection instead of the TVE threshold
  --sampling          enable the Algorithm-2 sampling strategy
  --error-bound=P     override the scheme's quantizer error bound
  --dct-keep=f        truncate trailing DCT coefficients (keep fraction f)
  --dtype=f32|f64     input element type (default f32)
  --target-cr=R       pick k for a compression ratio of at least R
                      (overrides --tve/--knee; f32 only)
  --target-psnr=D     pick the cheapest k reaching D dB (ditto)
  --chunk=N           chunked container with N values per frame
                      (memory-bounded; f32 only)
  --parity=K+M        (with --chunk) store M Reed-Solomon parity shards
                      per group of K frames; any M damaged frames in a
                      group are rebuilt bit-exactly on decode or by
                      dpz repair (K+M <= 255, e.g. 16+2)
  --threads=N         worker threads for the hot loops (0 = all cores);
                      output bytes are identical for every N
  --isa=NAME          pin the SIMD kernel dispatch (scalar, avx2, neon);
                      output bytes are identical for every choice — see
                      docs/SIMD.md. Overrides DPZ_FORCE_ISA
  --verify            decompress after compressing and report PSNR

resource limits (compress and decompress; see docs/ROBUSTNESS.md):
  --max-memory=N      peak-memory budget for the pipeline's working set
                      (suffix K/M/G/T, e.g. 64M). Decompress prices the
                      header-claimed geometry against the budget before
                      any large allocation, so a forged archive claiming
                      terabytes exits 4 (resource_exhausted) up front
  --deadline-ms=D     wall-clock deadline for the pipeline work; expiry
                      aborts cleanly with exit 5 (deadline_exceeded).
                      Limits never change output bytes

telemetry options (any command; see docs/OBSERVABILITY.md):
  --trace=out.json    record spans and write a Chrome trace-event file
                      (open in ui.perfetto.dev or chrome://tracing)
  --metrics[=json]    print the pipeline metrics registry after the
                      command (Prometheus text exposition by default:
                      counters as dpz_<name>_total, histograms with
                      cumulative buckets; one JSON object with =json);
                      enabling telemetry never changes output bytes

diagnostics options (any command; see docs/OBSERVABILITY.md):
  --log=out.jsonl     stream structured log events to a JSON-lines file
                      (raises the log level to info unless DPZ_LOG_LEVEL
                      says otherwise); logging never changes output bytes
  --diagnose          on failure, print the flight-recorder error report
                      (failing offset/frame/section, active span stack,
                      and breadcrumb events) to stderr

probe runs compress's own Stage 1 and Algorithm 2 on the compress
flags, so its k is the k compress --sampling selects. trace-report
summarizes a --trace file: per-stage wall and self time, pool queue-wait
attribution, a critical-path estimate, and per-frame outliers.
)";

/// Process exit code for a dpz failure class. Exhaustive over
/// StatusCode by contract: dpz_analyze (status-exhaustive) flags a new
/// enumerator that lands here without an explicit row, so the exit-code
/// surface is decided when the status is born, not discovered by a
/// caller's shell script. 0 and 3 mirror the non-exception paths below
/// (success, best-effort decode with lost frames); 2 is reserved for
/// usage errors (unknown command / bad invocation). Resource-governance
/// outcomes get their own codes so a batch driver can tell "raise the
/// budget and retry" (4), "give it more time" (5), and "the operator
/// asked for this" (6) apart from data corruption (1).
int exit_code_for(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kPartial:
      return 3;
    case StatusCode::kResourceExhausted:
      return 4;
    case StatusCode::kDeadlineExceeded:
      return 5;
    case StatusCode::kCancelled:
      return 6;
    case StatusCode::kInvalidArgument:
    case StatusCode::kFormat:
    case StatusCode::kInternal:
    case StatusCode::kIo:
    case StatusCode::kNumerical:
    case StatusCode::kChecksum:
      return 1;
  }
  return 1;
}

unsigned parse_threads(const CliArgs& args) {
  const std::int64_t threads = args.get_int("threads", 0);
  DPZ_REQUIRE(threads >= 0 && threads <= UINT32_MAX,
              "--threads must be in [0, 2^32)");
  return static_cast<unsigned>(threads);
}

// A size-like flag: absent or empty is 0, a negative value is an error
// instead of wrapping to a huge size_t.
std::size_t parse_count(const CliArgs& args, const std::string& name) {
  const std::int64_t value = args.get_int(name, 0);
  DPZ_REQUIRE(value >= 0, "--" + name + " must be >= 0");
  return static_cast<std::size_t>(value);
}

// Reads `text` as an all-digit decimal that fits uint64; anything else,
// overflow included, throws InvalidArgument(`message`). std::stoull
// would throw std::out_of_range, which run_cli does not catch.
std::uint64_t parse_digits(const std::string& text,
                           const std::string& message) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end)
    throw InvalidArgument(message);
  return value;
}

// Parses a byte-size flag value: a decimal count with an optional
// K/M/G/T binary suffix ("64M", "2G", "1048576").
std::uint64_t parse_byte_size(const std::string& text) {
  std::uint64_t mult = 1;
  std::size_t digits = text.size();
  if (!text.empty()) {
    switch (text.back()) {
      case 'K': case 'k': mult = 1ULL << 10; --digits; break;
      case 'M': case 'm': mult = 1ULL << 20; --digits; break;
      case 'G': case 'g': mult = 1ULL << 30; --digits; break;
      case 'T': case 't': mult = 1ULL << 40; --digits; break;
      default: break;
    }
  }
  const std::uint64_t value =
      parse_digits(text.substr(0, digits), "malformed byte size '" + text +
                                               "' (use e.g. 64M or 2G)");
  DPZ_REQUIRE(value <= UINT64_MAX / mult,
              "byte size '" + text + "' overflows");
  return value * mult;
}

// Resolves the resource-governance flags shared by compress and
// decompress. The deadline starts here — flag parsing time — so it
// covers the whole pipeline run that follows.
ResourceLimits limits_from_flags(const CliArgs& args) {
  ResourceLimits limits;
  const std::string memory = args.get_string("max-memory", "");
  if (!memory.empty()) limits.max_memory_bytes = parse_byte_size(memory);
  const double deadline_ms = args.get_double("deadline-ms", 0.0);
  DPZ_REQUIRE(deadline_ms >= 0.0, "--deadline-ms must be >= 0");
  if (deadline_ms > 0.0)
    limits.deadline_ns = ResourceLimits::deadline_after_ms(deadline_ms);
  return limits;
}

DpzConfig config_from_flags(const CliArgs& args) {
  DpzConfig config;
  const std::string scheme = args.get_string("scheme", "s");
  if (scheme == "l" || scheme == "loose") {
    config = DpzConfig::loose();
  } else if (scheme == "s" || scheme == "strict") {
    config = DpzConfig::strict();
  } else {
    throw InvalidArgument("unknown scheme '" + scheme + "' (use l or s)");
  }

  config.tve = args.get_double("tve", config.tve);
  if (args.has("knee")) {
    config.selection = KSelectionMethod::kKneePoint;
    const std::string fit = args.get_string("knee", "1d");
    if (fit == "polyn" || fit == "poly") {
      config.knee_fit = KneeFit::kFitPolyn;
    } else if (fit == "1d" || fit.empty()) {
      config.knee_fit = KneeFit::kFit1D;
    } else {
      throw InvalidArgument("unknown knee fit '" + fit +
                            "' (use 1d or polyn)");
    }
  }
  config.use_sampling = args.get_bool("sampling", false);
  config.error_bound = args.get_double("error-bound", config.error_bound);
  config.dct_keep_fraction =
      args.get_double("dct-keep", config.dct_keep_fraction);
  config.threads = parse_threads(args);
  config.limits = limits_from_flags(args);
  return config;
}

// Parses --parity=K+M into {k, m}; {0, 0} when the flag is absent. The
// geometry bounds mirror chunked_compress (GF(2^8) supports at most 255
// shards per group), so a bad value fails here as a usage error instead
// of deep inside the codec.
std::pair<unsigned, unsigned> parse_parity(const CliArgs& args) {
  const std::string text = args.get_string("parity", "");
  if (text.empty()) return {0, 0};
  const std::size_t plus = text.find('+');
  const std::string malformed =
      "malformed --parity '" + text + "' (use e.g. 16+2)";
  DPZ_REQUIRE(plus != std::string::npos, malformed);
  const std::uint64_t k = parse_digits(text.substr(0, plus), malformed);
  const std::uint64_t m = parse_digits(text.substr(plus + 1), malformed);
  // k and m are bounded before they are added, so k + m cannot wrap.
  DPZ_REQUIRE(k >= 1 && m >= 1 && k <= 255 && m <= 255 && k + m <= 255,
              "--parity needs k >= 1, m >= 1, k+m <= 255");
  return {static_cast<unsigned>(k), static_cast<unsigned>(m)};
}

bool is_f64(const CliArgs& args) {
  const std::string dtype = args.get_string("dtype", "f32");
  if (dtype == "f64" || dtype == "double") return true;
  if (dtype == "f32" || dtype == "float") return false;
  throw InvalidArgument("unknown dtype '" + dtype + "' (use f32 or f64)");
}

int cmd_compress(const CliArgs& args, std::ostream& out) {
  DPZ_REQUIRE(args.positional().size() == 3,
              "compress needs <in.f32> <out.dpz>");
  const std::string in_path = args.positional()[1];
  const std::string out_path = args.positional()[2];
  const std::string shape_text = args.get_string("shape", "");
  DPZ_REQUIRE(!shape_text.empty(), "--shape=AxBxC is required");

  const bool f64 = is_f64(args);
  const DpzConfig config = config_from_flags(args);

  // The f64 path keeps its own array to avoid a lossy down-conversion.
  FloatArray data;
  DoubleArray data64;
  if (f64) {
    data64 = read_f64(in_path, parse_shape(shape_text));
  } else {
    data = read_f32(in_path, parse_shape(shape_text));
  }

  const std::size_t chunk = parse_count(args, "chunk");
  DPZ_REQUIRE(!(f64 && chunk != 0),
              "the chunked container currently supports f32 input only");
  const auto [parity_k, parity_m] = parse_parity(args);
  DPZ_REQUIRE(!(parity_m != 0 && chunk == 0),
              "--parity requires --chunk");
  const double target_cr = args.get_double("target-cr", 0.0);
  const double target_psnr = args.get_double("target-psnr", 0.0);
  DPZ_REQUIRE(!(chunk != 0 && (target_cr > 0.0 || target_psnr > 0.0)),
              "rate targeting and --chunk cannot be combined");
  DPZ_REQUIRE(!(f64 && (target_cr > 0.0 || target_psnr > 0.0)),
              "rate targeting currently supports f32 input only");
  DPZ_REQUIRE(!(target_cr > 0.0 && target_psnr > 0.0),
              "choose one of --target-cr and --target-psnr");

  Timer timer;
  DpzStats stats;
  std::vector<std::uint8_t> archive;
  ChunkedConfig ccfg;
  ccfg.dpz = config;
  ccfg.chunk_values = chunk;
  // The container fans out over frames, so the knob moves to the outer
  // loop; per-frame threading is disabled inside chunked_compress.
  ccfg.threads = config.threads;
  if (chunk != 0) {
    if (parity_m != 0) {
      ccfg.parity_k = parity_k;
      ccfg.parity_m = parity_m;
    }
    ChunkedStats cstats;
    archive = chunked_compress(data, ccfg, &cstats);
    stats.original_bytes = cstats.original_bytes;
    stats.archive_bytes = cstats.archive_bytes;
    stats.stored_raw = cstats.stored_raw_frames == cstats.frame_count &&
                       cstats.frame_count > 0;
    out << "chunked container: " << cstats.frame_count << " frames";
    if (parity_m != 0) out << ", parity " << parity_k << "+" << parity_m;
    out << "\n";
  } else if (target_cr > 0.0 || target_psnr > 0.0) {
    const RateTargetResult result =
        target_cr > 0.0
            ? dpz_compress_target_ratio(data, target_cr, config)
            : dpz_compress_target_psnr(data, target_psnr, config);
    archive = result.archive;
    stats = result.stats;
    if (!result.target_met)
      out << "warning: target not reachable; best effort at k = "
          << result.k << " (CR " << fixed(result.achieved_cr, 2)
          << "X, PSNR " << fixed(result.achieved_psnr_db, 2) << " dB)\n";
  } else {
    archive = f64 ? dpz_compress(data64, config, &stats)
                  : dpz_compress(data, config, &stats);
  }
  const double seconds = timer.elapsed();
  write_bytes(out_path, archive);

  out << in_path << " (" << human_bytes(stats.original_bytes) << ") -> "
      << out_path << " (" << human_bytes(archive.size()) << ")\n"
      << "ratio " << fixed(stats.cr_archive(), 2) << "X, "
      << fixed(seconds, 2) << " s";
  if (chunk != 0) {
    // per-frame details are in the container
  } else if (stats.stored_raw) {
    out << " [stored: input resisted the pipeline]";
  } else {
    out << ", k = " << stats.k << "/" << stats.layout.m;
  }
  out << "\n";

  if (args.get_bool("verify", false)) {
    ErrorStats err;
    if (chunk != 0) {
      const FloatArray back = chunked_decompress(archive, ccfg);
      err = compute_error_stats(data.flat(), back.flat());
    } else if (f64) {
      const DoubleArray back =
          dpz_decompress_f64(archive, 0, config.threads, config.limits);
      err = compute_error_stats(data64.flat(), back.flat());
    } else {
      const FloatArray back =
          dpz_decompress(archive, 0, config.threads, config.limits);
      err = compute_error_stats(data.flat(), back.flat());
    }
    out << "verify: PSNR " << fixed(err.psnr_db, 2) << " dB, max err "
        << scientific(err.max_abs_error, 2) << ", mean theta "
        << scientific(err.mean_rel_error, 2) << "\n";
  }
  return 0;
}

int cmd_decompress(const CliArgs& args, std::ostream& out) {
  DPZ_REQUIRE(args.positional().size() == 3,
              "decompress needs <in.dpz> <out.f32>");
  const std::string in_path = args.positional()[1];
  const std::string out_path = args.positional()[2];
  const std::size_t components = parse_count(args, "components");
  const unsigned threads = parse_threads(args);
  const ResourceLimits limits = limits_from_flags(args);

  const std::vector<std::uint8_t> archive = read_bytes(in_path);

  // Chunked containers carry their own magics; route them directly.
  // Each route rejects the flags only the other one honours.
  const bool chunked =
      detail::format_of(archive) == detail::Format::kChunked;
  for (const std::string flag : {"components", "best-effort", "fill"})
    if (args.has(flag) && chunked == (flag == "components"))
      throw InvalidArgument("--" + flag + " does not apply to a " +
                            (chunked ? "chunked container" : "DPZ archive"));
  if (chunked) {
    ChunkedConfig config;
    config.threads = threads;
    config.dpz.limits = limits;
    if (args.get_bool("best-effort", false))
      config.decode_policy = DecodePolicy::kBestEffort;
    config.fill_value = args.get_double("fill", config.fill_value);

    Timer chunk_timer;
    DecodeReport report;
    const FloatArray data = chunked_decompress(archive, config, &report);
    const double seconds = chunk_timer.elapsed();
    write_f32(out_path, data);
    out << in_path << " -> " << out_path << " ("
        << human_bytes(data.size() * sizeof(float)) << ", "
        << fixed(seconds, 2) << " s, "
        << report.frames_total << " frames)\n";
    if (report.frames_repaired != 0)
      out << "parity: repaired " << report.frames_repaired
          << (report.frames_repaired == 1 ? " damaged frame"
                                          : " damaged frames")
          << " bit-exactly\n";
    if (!report.complete()) {
      out << "best effort: recovered " << report.frames_recovered << "/"
          << report.frames_total << " frames; lost frames filled with "
          << config.fill_value << "\n";
      for (const DecodeReport::FrameError& e : report.lost)
        out << "  frame " << e.frame << ": " << e.message << "\n";
      return 3;
    }
    return 0;
  }

  const DpzArchiveInfo info = dpz_inspect(archive);
  Timer timer;
  std::size_t count = 0;
  double seconds = 0.0;
  if (info.double_precision) {
    const DoubleArray data =
        dpz_decompress_f64(archive, components, threads, limits);
    seconds = timer.elapsed();
    write_f64(out_path, data);
    count = data.size();
  } else {
    const FloatArray data =
        dpz_decompress(archive, components, threads, limits);
    seconds = timer.elapsed();
    write_f32(out_path, data);
    count = data.size();
  }

  out << in_path << " -> " << out_path << " ("
      << human_bytes(count * (info.double_precision ? 8 : 4)) << ", "
      << fixed(seconds, 2) << " s";
  if (components != 0) out << ", first " << components << " components";
  out << ")\n";
  return 0;
}

int cmd_info(const CliArgs& args, std::ostream& out) {
  DPZ_REQUIRE(args.positional().size() == 2, "info needs <in.dpz>");
  const std::vector<std::uint8_t> archive =
      read_bytes(args.positional()[1]);
  const DpzArchiveInfo info = dpz_inspect(archive);

  out << "archive:  " << human_bytes(info.archive_bytes) << "\n";
  out << "shape:    ";
  for (std::size_t d = 0; d < info.shape.size(); ++d)
    out << (d ? " x " : "") << info.shape[d];
  out << "\n";
  if (info.stored_raw) {
    out << "mode:     stored (zlib over raw floats; input resisted the "
           "pipeline)\n";
    return 0;
  }
  out << "dtype:    " << (info.double_precision ? "f64" : "f32") << "\n";
  out << "mode:     DPZ pipeline, " << (info.wide_codes ? "2" : "1")
      << "-byte codes, P = " << scientific(info.error_bound, 1)
      << (info.standardized ? ", standardized" : "") << "\n"
      << "blocks:   " << info.layout.m << " x " << info.layout.n
      << (info.layout.padded ? " (padded)" : "") << "\n"
      << "k:        " << info.k << " components ("
      << fixed(100.0 * static_cast<double>(info.k) /
                   static_cast<double>(info.layout.m),
               1)
      << "% of features)\n"
      << "outliers: " << info.outlier_count << "\n";
  const std::size_t elem = info.double_precision ? 8 : 4;
  const double cr = compression_ratio(
      info.layout.original_total * elem, info.archive_bytes);
  out << "ratio:    " << fixed(cr, 2) << "X ("
      << fixed(static_cast<double>(elem) * 8.0 / std::max(cr, 1e-9), 3)
      << " bits/value)\n";
  return 0;
}

// One section-table row per checksummed unit, e.g.
//   side        offset 75      size 1432    crc ok
void print_section_table(const VerifyReport& rep, std::ostream& out) {
  for (const SectionStatus& s : rep.sections) {
    out << "  " << s.name;
    for (std::size_t pad = s.name.size(); pad < 12; ++pad) out << ' ';
    out << "offset " << s.offset << "  size " << s.size;
    if (s.raw_size != 0) out << "  raw " << s.raw_size;
    if (s.has_crc)
      out << (s.crc_ok ? "  crc ok" : "  crc MISMATCH");
    else
      out << "  crc -";
    out << "\n";
  }
}

// Parity scrub: CRC-sweeps frames and parity shards, then recomputes
// the parity of every fully intact group and compares it against the
// stored shards — proving the redundancy would actually reconstruct,
// without decoding a single frame.
int cmd_scrub(const std::vector<std::uint8_t>& bytes, std::ostream& out) {
  const ScrubReport rep = chunked_scrub(bytes);
  out << "frames:   " << rep.frames_total << "\n";
  if (rep.parity_m == 0) {
    out << "parity:   none (nothing to scrub)\n";
  } else {
    out << "parity:   " << rep.parity_k << "+" << rep.parity_m << " ("
        << rep.groups << (rep.groups == 1 ? " group" : " groups")
        << ")\n";
  }
  if (rep.frames_damaged != 0)
    out << "problem:  " << rep.frames_damaged
        << " frame checksum mismatch(es)\n";
  if (rep.parity_shards_damaged != 0)
    out << "problem:  " << rep.parity_shards_damaged
        << " parity shard checksum mismatch(es)\n";
  if (rep.parity_mismatches != 0)
    out << "problem:  " << rep.parity_mismatches
        << " recomputed parity shard(s) disagree with the stored "
           "parity\n";
  out << (rep.ok() ? "OK" : "CORRUPT") << "\n";
  return rep.ok() ? 0 : 1;
}

int cmd_verify(const CliArgs& args, std::ostream& out) {
  DPZ_REQUIRE(args.positional().size() == 2, "verify needs <archive>");
  const std::vector<std::uint8_t> bytes = read_bytes(args.positional()[1]);
  if (args.get_bool("scrub", false)) return cmd_scrub(bytes, out);
  const VerifyReport rep = verify_archive(bytes);

  out << "kind:     " << rep.kind << "\n"
      << "format:   v" << rep.version
      << (rep.version >= 2 ? " (checksummed)"
                           : " (legacy, no checksums)")
      << "\n";
  print_section_table(rep, out);
  for (const std::string& p : rep.problems) out << "problem:  " << p << "\n";
  out << (rep.ok ? "OK" : "CORRUPT") << "\n";
  return rep.ok ? 0 : 1;
}

int cmd_repair(const CliArgs& args, std::ostream& out) {
  DPZ_REQUIRE(args.positional().size() == 2, "repair needs <archive>");
  const std::string path = args.positional()[1];
  const std::vector<std::uint8_t> bytes = read_bytes(path);
  RepairReport rep;
  const std::vector<std::uint8_t> healed = chunked_repair(bytes, &rep);
  if (rep.clean()) {
    out << path << ": intact, nothing to repair\n";
    return 0;
  }
  // write_bytes lands via temp + fsync + rename, so a crash mid-repair
  // leaves the original archive untouched rather than a torn mix.
  write_bytes(path, healed);
  out << path << ": rebuilt " << rep.frames_repaired.size()
      << (rep.frames_repaired.size() == 1 ? " frame" : " frames")
      << " and " << rep.parity_shards_repaired
      << (rep.parity_shards_repaired == 1 ? " parity shard"
                                          : " parity shards")
      << "\n";
  for (const std::size_t f : rep.frames_repaired)
    out << "  frame " << f << ": rebuilt from parity, checksum ok\n";
  return 0;
}

int cmd_inspect(const CliArgs& args, std::ostream& out) {
  DPZ_REQUIRE(args.positional().size() == 2, "inspect needs <archive>");
  const std::vector<std::uint8_t> bytes = read_bytes(args.positional()[1]);
  const VerifyReport rep = verify_archive(bytes);

  out << "kind:     " << rep.kind << "\n"
      << "format:   v" << rep.version << "\n"
      << "bytes:    " << bytes.size() << "\n";
  // Geometry comes from the parsed layout, so it prints only when the
  // parse succeeded; otherwise the problems list below says why.
  try {
    if (rep.kind == "dpz" || rep.kind == "stored") {
      const DpzArchiveInfo info = dpz_inspect(bytes);
      out << "dtype:    " << (info.double_precision ? "f64" : "f32") << "\n";
      out << "shape:    ";
      for (std::size_t d = 0; d < info.shape.size(); ++d)
        out << (d ? " x " : "") << info.shape[d];
      out << "\n";
      if (!info.stored_raw)
        out << "blocks:   " << info.layout.m << " x " << info.layout.n
            << (info.layout.padded ? " (padded)" : "") << "\n"
            << "k:        " << info.k << "\n"
            << "outliers: " << info.outlier_count << "\n";
    }
  } catch (const Error&) {
  }
  // Header-claimed decode cost: what the archive says it will expand to
  // and the pre-flight working-set estimate a --max-memory budget admits
  // against. Printed from header metadata only — nothing is inflated —
  // so operators can size budgets without attempting the decode.
  if (const std::optional<DecodePreflight> pf = decode_preflight(bytes)) {
    out << "decoded:  " << human_bytes(pf->decoded_bytes)
        << " (header claim)\n"
        << "peak est: " << human_bytes(pf->peak_bytes)
        << " (pre-flight decode working set)\n";
  }
  if (rep.kind == "chunked") {
    // A corrupt header makes the geometry unreadable; the problems list
    // below already explains why, so the line is simply omitted.
    try {
      const ParityInfo parity = chunked_parity_info(bytes);
      if (parity.enabled())
        out << "parity:   " << parity.parity_k << "+" << parity.parity_m
            << " (" << parity.groups
            << (parity.groups == 1 ? " group, " : " groups, ")
            << human_bytes(parity.parity_bytes) << "; any "
            << parity.parity_m
            << " lost frames per group are recoverable)\n";
      else
        out << "parity:   none\n";
    } catch (const Error&) {
    }
  }
  out << "sections:\n";
  print_section_table(rep, out);
  for (const std::string& p : rep.problems) out << "problem:  " << p << "\n";
  return rep.ok ? 0 : 1;
}

int cmd_probe(const CliArgs& args, std::ostream& out) {
  DPZ_REQUIRE(args.positional().size() == 2, "probe needs <in.f32>");
  const std::string shape_text = args.get_string("shape", "");
  DPZ_REQUIRE(!shape_text.empty(), "--shape=AxBxC is required");
  const FloatArray data =
      read_f32(args.positional()[1], parse_shape(shape_text));

  const SamplingReport report = dpz_probe(data, config_from_flags(args));
  const BlockLayout layout = choose_block_layout(data.size());

  out << "blocks:      " << layout.m << " x " << layout.n << "\n"
      << "VIF median:  " << fixed(report.vif_median, 1)
      << (report.low_linearity ? "  (below cutoff 5: poorly compressible "
                                 "by DPZ)"
                               : "  (collinear: good DPZ candidate)")
      << "\n"
      << "estimated k: " << fixed(report.k_estimate, 1)
      << " per subset -> " << report.full_k << " total\n"
      << "CR estimate: " << fixed(report.cr_estimate_low, 1) << "X - "
      << fixed(report.cr_estimate_high, 1)
      << "X (paper accounting, basis excluded)\n";
  return 0;
}

int cmd_datasets(const CliArgs& args, std::ostream& out) {
  DPZ_REQUIRE(args.positional().size() == 2, "datasets needs <outdir>");
  const std::string outdir = args.positional()[1];
  const double scale = args.get_double("scale", 0.2);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2021));

  std::vector<std::string> names = dataset_names();
  const std::string filter = args.get_string("names", "");
  if (!filter.empty()) {
    names.clear();
    std::size_t pos = 0;
    while (pos <= filter.size()) {
      const std::size_t next = filter.find(',', pos);
      const std::string token = filter.substr(
          pos, next == std::string::npos ? next : next - pos);
      if (!token.empty()) names.push_back(token);
      if (next == std::string::npos) break;
      pos = next + 1;
    }
    DPZ_REQUIRE(!names.empty(), "--names produced an empty list");
  }

  std::filesystem::create_directories(outdir);
  std::ofstream manifest(outdir + "/MANIFEST.txt");
  manifest << "# name path shape seed scale\n";
  for (const std::string& name : names) {
    const Dataset ds = make_dataset(name, scale, seed);
    const std::string path = outdir + "/" + name + ".f32";
    write_f32(path, ds.data);

    std::string shape_text;
    for (std::size_t d = 0; d < ds.data.shape().size(); ++d) {
      if (d != 0) shape_text += 'x';
      shape_text += std::to_string(ds.data.shape()[d]);
    }
    manifest << name << " " << name << ".f32 " << shape_text << " " << seed
             << " " << scale << "\n";
    out << name << " -> " << path << " (" << shape_text << ", "
        << human_bytes(ds.data.size() * sizeof(float)) << ")\n";
  }
  out << "manifest: " << outdir << "/MANIFEST.txt\n";
  return 0;
}


// One parsed Chrome trace event ("X" phase complete events only).
struct TraceReportEvent {
  std::string name;
  std::string cat;
  int tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
  double queue_wait_us = -1.0;  // < 0: no attribution recorded
};

// Per-stage accumulation for the trace report.
struct StageTotals {
  std::size_t count = 0;
  double wall_us = 0.0;
  double self_us = 0.0;
};

// `dpz trace-report <trace.json>`: offline summary of a --trace file.
// Wall time per span name is the sum of its durations; self time
// subtracts the durations of immediate children (same thread, nested
// interval), so a stage that mostly waits on sub-spans shows near-zero
// self. Queue-wait attribution comes from the pool_task args; the
// critical-path estimate is the union of top-level span intervals (work
// no other recorded span overlaps on any thread cannot be hidden by
// parallelism).
int cmd_trace_report(const CliArgs& args, std::ostream& out) {
  DPZ_REQUIRE(args.positional().size() == 2,
              "trace-report needs <trace.json>");
  const std::vector<std::uint8_t> bytes = read_bytes(args.positional()[1]);
  json::Value doc;
  try {
    doc = json::parse(std::string(bytes.begin(), bytes.end()));
  } catch (const std::runtime_error& e) {
    throw FormatError(std::string("trace-report: ") + e.what());
  }
  const json::Value* events = doc.find("traceEvents");
  DPZ_REQUIRE(events != nullptr && events->is_array(),
              "trace-report: no traceEvents array in the document");

  std::vector<TraceReportEvent> parsed;
  parsed.reserve(events->items.size());
  for (const json::Value& e : events->items) {
    const json::Value* ph = e.find("ph");
    if (ph == nullptr || !ph->is_string() || ph->text != "X") continue;
    const json::Value* name = e.find("name");
    const json::Value* ts = e.find("ts");
    const json::Value* dur = e.find("dur");
    if (name == nullptr || !name->is_string() || ts == nullptr ||
        !ts->is_number() || dur == nullptr || !dur->is_number())
      continue;
    TraceReportEvent ev;
    ev.name = name->text;
    if (const json::Value* cat = e.find("cat");
        cat != nullptr && cat->is_string())
      ev.cat = cat->text;
    if (const json::Value* tid = e.find("tid");
        tid != nullptr && tid->is_number())
      ev.tid = static_cast<int>(tid->number);
    ev.ts_us = ts->number;
    ev.dur_us = dur->number;
    if (const json::Value* a = e.find("args")) {
      if (const json::Value* w = a->find("queue_wait_us");
          w != nullptr && w->is_number())
        ev.queue_wait_us = w->number;
    }
    parsed.push_back(std::move(ev));
  }
  if (parsed.empty()) {
    out << "trace-report: no complete spans in the trace\n";
    return 0;
  }

  // Sort within each thread by start time (ties: longer span first, so a
  // parent precedes children sharing its start), then sweep a stack of
  // open intervals to attribute child time to the immediate parent.
  std::map<int, std::vector<std::size_t>> by_tid;
  for (std::size_t i = 0; i < parsed.size(); ++i)
    by_tid[parsed[i].tid].push_back(i);

  std::vector<double> child_us(parsed.size(), 0.0);
  std::vector<std::pair<double, double>> top_level;  // [start, end) union
  for (auto& [tid, order] : by_tid) {
    std::sort(order.begin(), order.end(), [&](std::size_t a,
                                              std::size_t b) {
      if (parsed[a].ts_us != parsed[b].ts_us)
        return parsed[a].ts_us < parsed[b].ts_us;
      return parsed[a].dur_us > parsed[b].dur_us;
    });
    std::vector<std::size_t> stack;
    for (const std::size_t i : order) {
      const TraceReportEvent& ev = parsed[i];
      while (!stack.empty() &&
             ev.ts_us >= parsed[stack.back()].ts_us +
                             parsed[stack.back()].dur_us)
        stack.pop_back();
      if (stack.empty())
        top_level.emplace_back(ev.ts_us, ev.ts_us + ev.dur_us);
      else
        child_us[stack.back()] += ev.dur_us;
      stack.push_back(i);
    }
  }

  std::map<std::string, StageTotals> stages;
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    StageTotals& t = stages[parsed[i].name];
    ++t.count;
    t.wall_us += parsed[i].dur_us;
    t.self_us += std::max(0.0, parsed[i].dur_us - child_us[i]);
  }

  out << "stage                  count        wall ms        self ms\n";
  for (const auto& [name, t] : stages) {
    out << "  " << name;
    for (std::size_t pad = name.size(); pad < 20; ++pad) out << ' ';
    const std::string count_text = std::to_string(t.count);
    for (std::size_t pad = count_text.size(); pad < 6; ++pad) out << ' ';
    out << count_text;
    const std::string wall = fixed(t.wall_us / 1000.0, 3);
    for (std::size_t pad = wall.size(); pad < 14; ++pad) out << ' ';
    out << wall;
    const std::string self = fixed(t.self_us / 1000.0, 3);
    for (std::size_t pad = self.size(); pad < 14; ++pad) out << ' ';
    out << self << "\n";
  }

  // Queue-wait vs run attribution from the pool_task args.
  double wait_us = 0.0;
  double run_us = 0.0;
  std::size_t pool_spans = 0;
  for (const TraceReportEvent& ev : parsed) {
    if (ev.queue_wait_us < 0.0) continue;
    ++pool_spans;
    wait_us += ev.queue_wait_us;
    run_us += ev.dur_us;
  }
  if (pool_spans != 0) {
    out << "pool: " << pool_spans << " tasks, queue-wait "
        << fixed(wait_us / 1000.0, 3) << " ms, run "
        << fixed(run_us / 1000.0, 3) << " ms ("
        << fixed(100.0 * wait_us / std::max(wait_us + run_us, 1e-9), 1)
        << "% waiting)\n";
  } else {
    out << "pool: no queue-wait attribution in the trace\n";
  }

  // Critical-path estimate: the union of top-level intervals. Wall span
  // is first start to last end across every thread.
  std::sort(top_level.begin(), top_level.end());
  double union_us = 0.0;
  double cursor = 0.0;
  bool started = false;
  for (const auto& [lo, hi] : top_level) {
    if (!started || lo > cursor) {
      union_us += hi - lo;
      cursor = hi;
      started = true;
    } else if (hi > cursor) {
      union_us += hi - cursor;
      cursor = hi;
    }
  }
  double first = parsed.front().ts_us;
  double last = first;
  for (const TraceReportEvent& ev : parsed) {
    first = std::min(first, ev.ts_us);
    last = std::max(last, ev.ts_us + ev.dur_us);
  }
  out << "critical path: " << fixed(union_us / 1000.0, 3)
      << " ms estimated over a " << fixed((last - first) / 1000.0, 3)
      << " ms wall span\n";

  // Per-frame outliers: frame-category spans more than twice the median
  // duration.
  std::vector<std::size_t> frames;
  for (std::size_t i = 0; i < parsed.size(); ++i)
    if (parsed[i].cat == "frame") frames.push_back(i);
  if (!frames.empty()) {
    std::vector<double> durs;
    durs.reserve(frames.size());
    for (const std::size_t i : frames) durs.push_back(parsed[i].dur_us);
    std::sort(durs.begin(), durs.end());
    const double median = durs[durs.size() / 2];
    std::vector<std::size_t> outliers;
    for (const std::size_t i : frames)
      if (parsed[i].dur_us > 2.0 * median && parsed[i].dur_us > median)
        outliers.push_back(i);
    out << "frame spans: " << frames.size() << ", median "
        << fixed(median / 1000.0, 3) << " ms\n";
    if (outliers.empty()) {
      out << "frame outliers: none (no span over 2x the median)\n";
    } else {
      std::sort(outliers.begin(), outliers.end(),
                [&](std::size_t a, std::size_t b) {
                  return parsed[a].dur_us > parsed[b].dur_us;
                });
      out << "frame outliers (over 2x the median):\n";
      for (const std::size_t i : outliers)
        out << "  " << parsed[i].name << " tid " << parsed[i].tid
            << " at " << fixed(parsed[i].ts_us / 1000.0, 3) << " ms: "
            << fixed(parsed[i].dur_us / 1000.0, 3) << " ms ("
            << fixed(parsed[i].dur_us / std::max(median, 1e-9), 1)
            << "x median)\n";
    }
  }
  return 0;
}

}  // namespace

std::vector<std::size_t> parse_shape(const std::string& text) {
  std::vector<std::size_t> shape;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t next = text.find('x', pos);
    const std::string token =
        text.substr(pos, next == std::string::npos ? next : next - pos);
    shape.push_back(static_cast<std::size_t>(parse_digits(
        token, "malformed shape '" + text + "' (expected e.g. 1800x3600)")));
    if (next == std::string::npos) break;
    pos = next + 1;
  }
  DPZ_REQUIRE(!shape.empty() && shape.size() <= 4,
              "shape must have 1-4 dimensions");
  for (const std::size_t d : shape)
    DPZ_REQUIRE(d > 0, "shape extents must be positive");
  return shape;
}

int run_cli(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err) {
  // Honor DPZ_LOG_LEVEL before any command code can emit an event, and
  // keep the breadcrumb dump decision visible to the catch handler.
  obs::set_log_level_from_env();
  bool diagnose = false;
  try {
    const CliArgs args(argc, argv,
                       {"shape", "scheme", "tve", "knee", "sampling",
                        "error-bound", "dct-keep", "dtype", "verify",
                        "components", "scale", "names", "seed",
                        "target-cr", "target-psnr", "chunk", "parity",
                        "threads", "isa", "best-effort", "fill", "scrub",
                        "trace", "metrics", "max-memory", "deadline-ms",
                        "log", "diagnose", "help"});
    if (args.positional().empty() || args.has("help")) {
      out << kUsage;
      return args.has("help") ? 0 : 2;
    }
    diagnose = args.get_bool("diagnose", false);

    // Structured-log streaming: mirror every captured event to a JSONL
    // file for the lifetime of the command. The flight recorder ring
    // keeps recording either way.
    const std::string log_path = args.get_string("log", "");
    std::optional<obs::LogSinkScope> log_sink;
    if (!log_path.empty()) {
      log_sink.emplace(log_path);
      if (!log_sink->ok())
        throw IoError("cannot open log file: " + log_path);
    }

    // Pin the kernel dispatch before any command touches data. Dispatch
    // is otherwise resolved from the CPU (and DPZ_FORCE_ISA) on first
    // use; an unknown or unexecutable name is a clean usage error.
    const std::string isa_text = args.get_string("isa", "");
    if (!isa_text.empty()) {
      const std::optional<simd::Isa> isa = simd::parse_isa(isa_text);
      if (!isa)
        throw InvalidArgument("unknown --isa '" + isa_text +
                              "' (use scalar, avx2, or neon)");
      simd::set_force_isa(isa);
    }

    // Telemetry flags apply to every command: enable recording before the
    // dispatch, flush the trace / print the metrics after it returns.
    const std::string trace_path = args.get_string("trace", "");
    const bool want_metrics = args.has("metrics");
    std::optional<obs::ScopedTelemetry> telemetry;
    if (!trace_path.empty() || want_metrics) telemetry.emplace(true);

    const std::string& command = args.positional()[0];
    obs::log_event(obs::Event::kCommandStart, obs::LogLevel::kInfo,
                   StatusCode::kOk, {}, command);
    int rc = 2;
    if (command == "compress") {
      rc = cmd_compress(args, out);
    } else if (command == "decompress") {
      rc = cmd_decompress(args, out);
    } else if (command == "info") {
      rc = cmd_info(args, out);
    } else if (command == "verify") {
      rc = cmd_verify(args, out);
    } else if (command == "repair") {
      rc = cmd_repair(args, out);
    } else if (command == "inspect") {
      rc = cmd_inspect(args, out);
    } else if (command == "probe") {
      rc = cmd_probe(args, out);
    } else if (command == "datasets") {
      rc = cmd_datasets(args, out);
    } else if (command == "trace-report") {
      rc = cmd_trace_report(args, out);
    } else {
      err << "unknown command '" << command << "'\n" << kUsage;
      return 2;
    }

    if (!trace_path.empty()) {
      const obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
      if (!recorder.write_file(trace_path))
        throw IoError("cannot write trace file: " + trace_path);
      out << "trace: " << trace_path << " (" << recorder.event_count()
          << " spans)\n";
    }
    if (want_metrics) {
      const obs::MetricsSnapshot snap =
          obs::MetricsRegistry::instance().snapshot();
      if (args.get_string("metrics", "") == "json")
        out << snap.to_json() << "\n";
      else
        out << snap.to_prometheus();
    }
    return rc;
  } catch (const Error& e) {
    obs::log_error(obs::Event::kErrorRaised, e.code(), {}, e.what());
    err << "error: " << e.what() << "\n";
    if (diagnose) err << obs::FlightRecorder::instance().last_error_report();
    return exit_code_for(e.code());
  } catch (const std::bad_alloc&) {
    // The allocator failed before (or without) a configured budget
    // tripping; report it like a budget rejection instead of letting the
    // exception terminate the process.
    err << "error: allocation failed (out of memory)\n";
    return exit_code_for(StatusCode::kResourceExhausted);
  }
}

}  // namespace dpz::tools
