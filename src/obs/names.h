// Single registry of every telemetry name in the system: span ids for
// the trace recorder and counter/histogram ids for the metrics registry.
//
// Policy (enforced by tools/lint.sh rule 6): hot-path telemetry calls
// take these enums, never strings — no per-call allocation, no typo'd
// ad-hoc names, and the whole taxonomy stays greppable in one file. A
// new span or metric starts its life here; the JSON emitters look the
// display name up from these tables at flush time only.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dpz::obs {

// ---- Span taxonomy ------------------------------------------------------
//
// One id per traced scope. Names mirror the paper's stage vocabulary
// (Figure 9) so the Perfetto view lines up with the time-breakdown bench.
enum class Span : std::uint8_t {
  // Compression stages (dpz.cpp, shared_basis.cpp).
  kStage1Dct = 0,     ///< block decomposition + per-block DCT
  kStage2Pca,         ///< PCA / k selection in the DCT domain
  kStage3Quantize,    ///< score normalization + uniform quantization
  kZlibEncode,        ///< serialization + section zlib passes
  // Decompression stages (dpz.cpp, shared_basis.cpp).
  kDecodeSections,    ///< header parse + checksummed section inflation
  kDecodeDequantize,  ///< codes -> scores
  kDecodeBackproject, ///< scores -> block matrix through the basis
  kDecodeIdct,        ///< inverse DCT + de-blocking
  // Container-level work (chunked.cpp).
  kFrameEncode,       ///< one chunked frame compressed
  kFrameDecode,       ///< one chunked frame decoded
  // Integrity (layout.cpp, chunked.cpp).
  kCrcCheck,          ///< one CRC32C verification
  kFrameRepair,       ///< one frame or parity group reconstructed
  kArchiveRepair,     ///< one whole-archive repair or scrub pass
  // Kernel dispatch (simd/dispatch.cpp).
  kSimdDispatch,      ///< one-time CPU detection + ISA selection
  // Thread pool (thread_pool.cpp).
  kPoolTask,          ///< one participant's chunk of a parallel_for
  // Compression, appended so no earlier id moves (dpz.cpp).
  kProject,           ///< block matrix -> scores through the basis
  kSpanCount_,        // sentinel — keep last
};

inline constexpr std::size_t kSpanCount =
    static_cast<std::size_t>(Span::kSpanCount_);

struct SpanInfo {
  const char* name;
  const char* category;
};

/// Display name + Chrome-trace category for every span id, indexed by
/// the enum value. This table is the one place telemetry span names are
/// spelled out (lint rule 6).
inline constexpr SpanInfo kSpanInfo[kSpanCount] = {
    {"stage1_dct", "stage"},
    {"stage2_pca", "stage"},
    {"stage3_quantize", "stage"},
    {"zlib_encode", "stage"},
    {"decode_sections", "stage"},
    {"decode_dequantize", "stage"},
    {"decode_backproject", "stage"},
    {"decode_idct", "stage"},
    {"frame_encode", "frame"},
    {"frame_decode", "frame"},
    {"crc_check", "integrity"},
    {"frame_repair", "integrity"},
    {"archive_repair", "integrity"},
    {"simd_dispatch", "simd"},
    {"pool_task", "pool"},
    {"stage2_project", "stage"},
};

inline constexpr const char* span_name(Span id) {
  return kSpanInfo[static_cast<std::size_t>(id)].name;
}
inline constexpr const char* span_category(Span id) {
  return kSpanInfo[static_cast<std::size_t>(id)].category;
}

// ---- Counter taxonomy ---------------------------------------------------
enum class Counter : std::uint8_t {
  kCompressCalls = 0,    ///< whole-array compressions started
  kDecompressCalls,      ///< whole-array decompressions started
  kBytesIn,              ///< uncompressed bytes entering a compressor
  kBytesArchive,         ///< archive bytes produced
  kBytesDecoded,         ///< uncompressed bytes reconstructed
  kBytesStage12,         ///< paper-accounting stage-1&2 output bytes
  kBytesStage3,          ///< stage-3 output bytes (codes + outliers)
  kBytesZlibPayload,     ///< stage-3 payload after zlib
  kBytesSide,            ///< basis/means/scales side bytes after zlib
  kQuantValues,          ///< values pushed through the quantizer
  kQuantSaturated,       ///< values outside the covered range (escapes)
  kOutliers,             ///< outliers recorded by compressions
  kStoredRawFallbacks,   ///< incompressible-input fallbacks taken
  kCrcChecks,            ///< CRC32C verifications performed
  kCrcFailures,          ///< CRC32C verifications that mismatched
  kIoReadEintr,          ///< read() EINTR retries absorbed
  kIoWriteEintr,         ///< write() EINTR retries absorbed
  kIoShortReads,         ///< short read() transfers continued
  kIoShortWrites,        ///< short write() transfers continued
  kFramesEncoded,        ///< chunked frames compressed
  kFramesDecoded,        ///< chunked frames decoded (intact)
  kFramesRecovered,      ///< best-effort decodes: frames recovered
  kFramesLost,           ///< best-effort decodes: frames lost/filled
  kFramesRepaired,       ///< damaged frames rebuilt from parity
  kRepairFailed,         ///< damaged frames parity could not rebuild
  kAdmissionRejected,    ///< decodes rejected by pre-flight admission
  kCancelledOps,         ///< operations aborted by a CancelToken
  kDeadlineExceededOps,  ///< operations aborted by a deadline
  kCounterCount_,        // sentinel — keep last
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCounterCount_);

/// Display names, indexed by the enum value (lint rule 6: the only place
/// counter names are spelled out).
inline constexpr const char* kCounterNames[kCounterCount] = {
    "compress_calls",
    "decompress_calls",
    "bytes_in",
    "bytes_archive",
    "bytes_decoded",
    "bytes_stage12",
    "bytes_stage3",
    "bytes_zlib_payload",
    "bytes_side",
    "quantizer_values",
    "quantizer_saturated",
    "outlier_count",
    "stored_raw_fallbacks",
    "crc_checks",
    "crc_failures",
    "io_read_eintr",
    "io_write_eintr",
    "io_short_reads",
    "io_short_writes",
    "frames_encoded",
    "frames_decoded",
    "frames_recovered",
    "frames_lost",
    "frames_repaired",
    "repair_failed",
    "admission_rejected",
    "cancelled",
    "deadline_exceeded",
};

inline constexpr const char* counter_name(Counter id) {
  return kCounterNames[static_cast<std::size_t>(id)];
}

// ---- Histogram taxonomy -------------------------------------------------
//
// Fixed power-of-two buckets: bucket 0 counts value 0, bucket i >= 1
// counts values in [2^(i-1), 2^i). 41 buckets cover the full u64 byte /
// count range the pipelines can produce without ever reallocating.
enum class Hist : std::uint8_t {
  kSelectedK = 0,  ///< per-compression (or per-frame) selected k
  kFrameBytes,     ///< encoded size of each chunked frame
  kHistCount_,     // sentinel — keep last
};

inline constexpr std::size_t kHistCount =
    static_cast<std::size_t>(Hist::kHistCount_);
inline constexpr std::size_t kHistBuckets = 41;

/// Display names, indexed by the enum value (lint rule 6).
inline constexpr const char* kHistNames[kHistCount] = {
    "selected_k",
    "frame_bytes",
};

inline constexpr const char* hist_name(Hist id) {
  return kHistNames[static_cast<std::size_t>(id)];
}

// ---- Log-event taxonomy (obs/log.h) -------------------------------------
//
// One id per structured-log event class. Like spans and metrics, log
// sites take these enums, never strings (lint rule 6); the JSONL emitter
// and the breadcrumb report look the display name up at render time.
enum class Event : std::uint8_t {
  kErrorRaised = 0,    ///< an Error crossed a fault boundary (C API, CLI)
  kChecksumMismatch,   ///< a stored CRC32C disagreed with the bytes
  kFrameLost,          ///< best-effort decode gave a frame up as lost
  kFrameRebuilt,       ///< a damaged frame reconstructed bit-exactly
  kFrameRepairFailed,  ///< damage exceeded the parity budget
  kAdmissionDenied,    ///< pre-flight admission rejected an operation
  kOpCancelled,        ///< a CancelToken aborted an operation
  kOpDeadline,         ///< a deadline expiry aborted an operation
  kAllocFault,         ///< an injected allocation fault fired
  kIoFault,            ///< an injected I/O fault fired
  kPoolTaskError,      ///< a pool task propagated an exception
  kCommandStart,       ///< a CLI command began dispatch
  kEventCount_,        // sentinel — keep last
};

inline constexpr std::size_t kEventCount =
    static_cast<std::size_t>(Event::kEventCount_);

/// Display names, indexed by the enum value (lint rule 6: the only place
/// log-event names are spelled out).
inline constexpr const char* kEventNames[kEventCount] = {
    "error_raised",
    "checksum_mismatch",
    "frame_lost",
    "frame_rebuilt",
    "frame_repair_failed",
    "admission_denied",
    "op_cancelled",
    "op_deadline",
    "alloc_fault",
    "io_fault",
    "pool_task_error",
    "command_start",
};

inline constexpr const char* event_name(Event id) {
  return kEventNames[static_cast<std::size_t>(id)];
}

// ---- Prometheus help text -----------------------------------------------
//
// One sentence per counter / histogram for the exposition format's
// `# HELP` lines (obs/metrics.cpp to_prometheus). Kept beside the names
// so a new metric's help is written where the metric is born.
inline constexpr const char* kCounterHelp[kCounterCount] = {
    "Whole-array compressions started.",
    "Whole-array decompressions started.",
    "Uncompressed bytes entering a compressor.",
    "Archive bytes produced.",
    "Uncompressed bytes reconstructed.",
    "Paper-accounting stage-1 and stage-2 output bytes.",
    "Stage-3 output bytes (codes plus outliers).",
    "Stage-3 payload bytes after zlib.",
    "Basis, means, and scales side bytes after zlib.",
    "Values pushed through the quantizer.",
    "Values outside the covered quantizer range (escapes).",
    "Outliers recorded by compressions.",
    "Incompressible-input stored-raw fallbacks taken.",
    "CRC32C verifications performed.",
    "CRC32C verifications that mismatched.",
    "read() EINTR retries absorbed.",
    "write() EINTR retries absorbed.",
    "Short read() transfers continued.",
    "Short write() transfers continued.",
    "Chunked frames compressed.",
    "Chunked frames decoded intact.",
    "Best-effort decodes: frames recovered.",
    "Best-effort decodes: frames lost and filled.",
    "Damaged frames rebuilt bit-exactly from parity.",
    "Damaged frames parity could not rebuild.",
    "Operations rejected by pre-flight memory admission.",
    "Operations aborted by a CancelToken.",
    "Operations aborted by a deadline.",
};

inline constexpr const char* kHistHelp[kHistCount] = {
    "Selected principal components per compression or frame.",
    "Encoded size of each chunked frame in bytes.",
};

inline constexpr const char* counter_help(Counter id) {
  return kCounterHelp[static_cast<std::size_t>(id)];
}
inline constexpr const char* hist_help(Hist id) {
  return kHistHelp[static_cast<std::size_t>(id)];
}

}  // namespace dpz::obs
