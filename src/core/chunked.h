// Chunked container format: DPZ for datasets larger than memory.
//
// The core pipeline holds one M x N block matrix (plus its covariance)
// in memory, which caps practical input size. The chunked container
// splits the flattened input into fixed-size chunks, compresses each
// chunk as an independent DPZ archive frame, and concatenates the frames
// behind a container header. Properties:
//
//   * peak memory is O(chunk) regardless of input size;
//   * frames are independent — a corrupted frame loses only its chunk,
//     and frames can be decompressed selectively (random access at chunk
//     granularity);
//   * each chunk gets its own PCA basis, so slowly varying statistics
//     across a long file do not smear one global basis (the flip side:
//     per-chunk basis overhead — use SharedBasisCodec when the statistics
//     are stationary).
//
// The container's bytes ("DZC2", or "DZC3" with Reed-Solomon parity
// shards that rebuild up to m lost frames per group of k) are written
// and read by core/layout; see docs/FORMAT.md.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/dpz.h"

namespace dpz {

/// What a decoder does when a frame inside an otherwise-parsable
/// container is damaged (bad CRC, malformed frame bytes).
enum class DecodePolicy {
  /// Throw on the first damaged frame (the classic contract: decode
  /// succeeds fully or fails with a FormatError).
  kStrict,
  /// Decode every intact frame, fill lost frames with
  /// ChunkedConfig::fill_value, and report the damage via DecodeReport
  /// instead of throwing. Container-level damage (header, frame table)
  /// still throws — without a trustworthy table there is nothing to
  /// salvage.
  kBestEffort,
};

/// Outcome of a best-effort chunked decode: which frames survived and
/// the first error observed for each lost frame. A damaged frame that
/// Reed-Solomon parity reconstructed byte-exactly counts as *repaired*
/// (and recovered) — only frames whose loss exceeded the parity budget
/// appear in `lost`.
struct DecodeReport {
  struct FrameError {
    std::size_t frame = 0;  ///< 0-based frame index
    std::string message;    ///< first error observed for this frame
  };
  std::size_t frames_total = 0;
  std::size_t frames_recovered = 0;  ///< decoded frames, repaired included
  std::size_t frames_repaired = 0;   ///< subset rebuilt from parity
  std::vector<std::size_t> repaired;  ///< ascending by frame index
  std::vector<FrameError> lost;       ///< ascending by frame index

  [[nodiscard]] bool complete() const { return lost.empty(); }
};

struct ChunkedConfig {
  DpzConfig dpz;
  /// Values per chunk, in [8, 2^40] (the last chunk may be smaller, but
  /// never below the pipeline minimum of 8 values — the tail merges into
  /// the previous chunk when needed).
  std::size_t chunk_values = 1 << 20;
  /// Worker threads for the per-frame fan-out (frames are independent by
  /// design, SS V-C5). 0 = ambient pool. The container bytes are
  /// bit-identical for every value; peak memory grows to O(threads *
  /// chunk) while frames are in flight. Inner pipeline loops run inline
  /// on their frame's worker, so `dpz.threads` is ignored here.
  unsigned threads = 0;
  /// Damage handling for chunked_decompress (see DecodePolicy).
  DecodePolicy decode_policy = DecodePolicy::kStrict;
  /// Value written into every position of a lost frame in best-effort
  /// mode — caller-visible, so "recovered with holes" is distinguishable
  /// from real data (NaN is a deliberate choice for float analysis).
  /// Double so the f64 decode path never narrows the caller's fill.
  double fill_value = 0.0;
  /// Reed-Solomon frame parity (format v3): groups of `parity_k` frames
  /// get `parity_m` parity shards over their compressed payloads, so up
  /// to parity_m lost frames per group reconstruct byte-exactly on
  /// decode. parity_m == 0 (default) disables parity and emits the v2
  /// byte-identical container. Requires 1 <= parity_k and
  /// parity_k + parity_m <= 255 when enabled.
  unsigned parity_k = 16;
  unsigned parity_m = 0;
};

/// Per-container accounting.
struct ChunkedStats {
  std::size_t frame_count = 0;
  std::uint64_t original_bytes = 0;
  std::uint64_t archive_bytes = 0;
  std::size_t stored_raw_frames = 0;  ///< frames that hit the fallback

  [[nodiscard]] double cr() const {
    return archive_bytes == 0 ? 0.0
                              : static_cast<double>(original_bytes) /
                                    static_cast<double>(archive_bytes);
  }
};

/// Compresses a flat f32 sequence chunk by chunk. The shape is recorded
/// for reconstruction but chunking operates on the flattened order.
std::vector<std::uint8_t> chunked_compress(const FloatArray& data,
                                           const ChunkedConfig& config,
                                           ChunkedStats* stats = nullptr);

/// Decompresses a whole chunked container; frames decode in parallel on
/// `threads` workers (0 = ambient pool) with bit-identical output.
FloatArray chunked_decompress(std::span<const std::uint8_t> container,
                              unsigned threads = 0);

/// Policy-aware variant: honors config.decode_policy / fill_value /
/// threads. When `report` is non-null it receives the per-frame outcome
/// (strict decodes that succeed report every frame recovered). In
/// best-effort mode frame damage never throws; intact frames still
/// decode in parallel and are byte-identical to a strict decode.
FloatArray chunked_decompress(std::span<const std::uint8_t> container,
                              const ChunkedConfig& config,
                              DecodeReport* report = nullptr);

/// Double-precision variant of the policy-aware decode: frames decode
/// through the same pipeline and widen into an f64 array (the container
/// stores f32 frames; this is an output-type convenience, not extra
/// precision). Honors decode_policy / fill_value / threads identically.
DoubleArray chunked_decompress_f64(std::span<const std::uint8_t> container,
                                   const ChunkedConfig& config,
                                   DecodeReport* report = nullptr);

/// Outcome of chunked_repair: which frames and parity shards were
/// rewritten. An intact archive repairs to a byte-identical copy with
/// an all-clean report.
struct RepairReport {
  std::size_t frames_total = 0;
  std::vector<std::size_t> frames_repaired;  ///< ascending frame indices
  std::size_t parity_shards_repaired = 0;

  [[nodiscard]] bool clean() const {
    return frames_repaired.empty() && parity_shards_repaired == 0;
  }
};

/// Reconstructs every damaged frame and parity shard of a v3 container
/// from the surviving shards and returns the healed archive — byte
/// identical to the pre-damage container (every rebuilt frame and shard
/// is verified against its stored CRC32C). Throws ChecksumError when
/// damage exceeds the parity budget (or the container has no parity to
/// repair from), FormatError when the header itself is unreadable.
std::vector<std::uint8_t> chunked_repair(
    std::span<const std::uint8_t> container,
    RepairReport* report = nullptr);

/// Outcome of chunked_scrub: parity-consistency audit without decoding.
struct ScrubReport {
  std::size_t frames_total = 0;
  std::size_t parity_k = 0;  ///< 0 when the container carries no parity
  std::size_t parity_m = 0;
  std::size_t groups = 0;
  std::size_t frames_damaged = 0;         ///< frame CRC mismatches
  std::size_t parity_shards_damaged = 0;  ///< parity shard CRC mismatches
  std::size_t parity_mismatches = 0;      ///< stored parity != recomputed

  [[nodiscard]] bool ok() const {
    return frames_damaged == 0 && parity_shards_damaged == 0 &&
           parity_mismatches == 0;
  }
};

/// Validates parity consistency without decoding any frame: checks every
/// frame and parity-shard CRC, then recomputes each fully-intact group's
/// parity from the stored payloads and compares it to the stored shards.
/// Parity-less containers scrub trivially ok (CRC sweep only).
ScrubReport chunked_scrub(std::span<const std::uint8_t> container);

/// Parity geometry from the header alone (for `dpz inspect`).
struct ParityInfo {
  std::size_t parity_k = 0;  ///< 0 when the container carries no parity
  std::size_t parity_m = 0;
  std::size_t groups = 0;
  std::uint64_t parity_bytes = 0;  ///< total parity-section payload

  [[nodiscard]] bool enabled() const { return parity_m != 0; }
};
ParityInfo chunked_parity_info(std::span<const std::uint8_t> container);

/// Decompresses a single frame (0-based). Returns the chunk's values in
/// flattened order along with its offset into the flat dataset. This is
/// the random-access path: only the requested frame is decoded. A
/// CRC-failed frame in a parity-carrying (DZC3) container is first
/// reconstructed from its group's surviving shards — the same
/// self-healing contract as whole-container decode — and only throws
/// ChecksumError when the damage exceeds the parity budget.
struct ChunkView {
  std::size_t frame_index = 0;
  std::size_t value_offset = 0;  ///< position in the flattened dataset
  std::vector<float> values;
};
ChunkView chunked_decompress_frame(std::span<const std::uint8_t> container,
                                   std::size_t frame_index);

/// Number of frames in a container (layout parse; no frame is read).
std::size_t chunked_frame_count(std::span<const std::uint8_t> container);

/// Pre-flight resource estimate for decoding a whole container, from
/// header metadata alone (the container header plus each frame's DPZ
/// header — no payload is inflated). `decoded_bytes` is the
/// reconstructed array; `peak_bytes` adds the most expensive single
/// frame's working set, the serial-decode peak (a parallel decode holds
/// up to `threads` frames in flight; per-allocation charges still
/// enforce the budget exactly at runtime). Throws FormatError on a
/// malformed container or frame header.
DecodePreflight chunked_decode_preflight(
    std::span<const std::uint8_t> container);

}  // namespace dpz
