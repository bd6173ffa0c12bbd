// DPZ: the paper's multi-stage information-retrieval lossy compressor.
//
// Pipeline (Figure 5):
//   Stage 1  block decomposition (blocking.h) + per-block DCT-II (dsp/dct.h)
//   Stage 2  PCA in the DCT domain + k-PCA selection (Algorithm 1)
//   Stage 3  symmetric uniform quantization of the k score streams
//   add-on   zlib over the quantization codes and outliers
//
// Two schemes match the evaluation (SS V-A):
//   DPZ-l (loose):  P = 1e-3, 1-byte bin codes;
//   DPZ-s (strict): P = 1e-4, 2-byte bin codes.
// All scores are divided by one global scale (8 sigma of the first
// component; it travels in the archive) before quantization, so P is a
// bound on the *normalized* score values — exactly the "approximation on
// k-PCA" bound the paper describes, not an end-to-end pointwise bound.
// See detail::kScoreSigmaScale for the calibration rationale.
//
// The optional sampling strategy (Algorithm 2) probes collinearity (VIF)
// and estimates k from T of S feature subsets. It only chooses k (and
// whether to standardize): Stage 2 then runs the same spectrum-first fit
// and top-k solve as the default route, so at equal k both routes write
// the same archive.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/blocking.h"
#include "core/compressor.h"
#include "core/sampling.h"
#include "obs/trace.h"
#include "stats/knee.h"
#include "util/resource.h"

namespace dpz {

enum class DpzScheme {
  kLoose,   ///< DPZ-l: P = 1e-3, 1-byte codes
  kStrict,  ///< DPZ-s: P = 1e-4, 2-byte codes
};

enum class KSelectionMethod {
  kKneePoint,     ///< Method 1: curvature knee of the TVE curve
  kTveThreshold,  ///< Method 2: smallest k reaching the TVE threshold
};

struct DpzConfig {
  DpzScheme scheme = DpzScheme::kStrict;
  KSelectionMethod selection = KSelectionMethod::kTveThreshold;
  /// TVE threshold for Method 2 ("three-nine" 0.999 ... "eight-nine").
  double tve = 0.99999;
  /// Curve fit for Method 1 (1-D interpolation or polynomial).
  KneeFit knee_fit = KneeFit::kFit1D;
  /// When non-zero, bypasses k selection entirely and keeps exactly this
  /// many components (clamped to [1, M]). Rate control (core/rate_control.h)
  /// searches k through DpzAnalysis::evaluate, whose archive is the one
  /// dpz_compress writes at fixed_k = k (the contract core/analysis.h
  /// states).
  std::size_t fixed_k = 0;

  /// Enables the Algorithm 2 sampling strategy (subset k estimation +
  /// VIF-gated standardization); the eigensolve is the default route's.
  bool use_sampling = false;
  std::size_t subset_count = 10;        ///< S
  std::size_t sample_subset_count = 3;  ///< T
  double vif_sampling_rate = 0.01;      ///< SR for the compressibility probe
  std::uint64_t sampling_seed = 2021;

  int zlib_level = 6;

  /// Worker threads for the hot loops (block DCT, PCA/matmul, quantize,
  /// chunked frames). 0 = the ambient pool (an enclosing ScopedThreads,
  /// or hardware concurrency). Archives are bit-identical for every
  /// value — the knob trades wall-clock only (see util/thread_pool.h).
  unsigned threads = 0;

  /// DCT-coefficient truncation before PCA (the paper's future-work
  /// ablation, SS VII): keep only this leading fraction of each block's
  /// DCT coefficients and zero the rest before Stage 2. 1.0 disables it.
  /// Truncation discards high-frequency energy up front, which lowers the
  /// k that a given TVE needs (the covariance no longer has to explain
  /// the tail) at the cost of a reconstruction-accuracy floor.
  double dct_keep_fraction = 1.0;

  /// Overrides; leave at the sentinel to use the scheme defaults.
  double error_bound = 0.0;  ///< 0 = scheme default (1e-3 / 1e-4)
  int standardize = -1;      ///< -1 = auto (VIF probe when sampling), else 0/1

  /// Resource governance for the whole call: a peak-memory budget, an
  /// absolute deadline, and a cooperative cancel token (util/resource.h).
  /// Defaults are "ungoverned". Limits never change archive bytes — a
  /// governed run either produces the identical output or throws
  /// ResourceExhausted / DeadlineExceeded / Cancelled.
  ResourceLimits limits;

  [[nodiscard]] double effective_error_bound() const {
    if (error_bound > 0.0) return error_bound;
    return scheme == DpzScheme::kLoose ? 1e-3 : 1e-4;
  }
  /// 2-byte codes for DPZ-s, 1-byte for DPZ-l.
  [[nodiscard]] bool effective_wide_codes() const {
    return scheme == DpzScheme::kStrict;
  }

  /// The paper's two evaluated schemes.
  static DpzConfig loose() {
    DpzConfig c;
    c.scheme = DpzScheme::kLoose;
    return c;
  }
  static DpzConfig strict() {
    DpzConfig c;
    c.scheme = DpzScheme::kStrict;
    return c;
  }
};

/// Per-compression accounting: the numbers behind Tables III/IV and Fig 9.
struct DpzStats {
  BlockLayout layout;
  std::size_t k = 0;            ///< selected components
  bool standardized = false;
  /// True when the incompressible-input fallback fired: the archive holds
  /// the raw floats behind zlib because the pipeline would have expanded
  /// the input (k ~ M data where the stored basis dominates).
  bool stored_raw = false;
  double vif_median = 0.0;      ///< 0 when the probe did not run
  std::size_t outlier_count = 0;

  std::uint64_t original_bytes = 0;
  /// Stage-1&2 output in the paper's accounting: k score streams kept as
  /// f32 (ignores the basis, like the paper's CR_stage1&2 = M/k).
  std::uint64_t stage12_bytes = 0;
  /// Stage-3 output before zlib: packed codes + escaped outliers.
  std::uint64_t stage3_bytes = 0;
  /// Same payload after zlib.
  std::uint64_t zlib_payload_bytes = 0;
  /// Basis + means + scales after zlib (the paper does not count these).
  std::uint64_t side_bytes = 0;
  /// Full archive size (header + side + payload).
  std::uint64_t archive_bytes = 0;

  /// Compress stage times (stage1_dct .. zlib_encode), written by the
  /// same ScopedSpan scopes that feed the trace.
  obs::StageTimes timers;

  /// Paper-style per-stage factors (Table III rows).
  [[nodiscard]] double cr_stage12() const {
    return k == 0 ? 0.0
                  : static_cast<double>(layout.m) / static_cast<double>(k);
  }
  [[nodiscard]] double cr_stage3() const {
    return stage3_bytes == 0 ? 0.0
                             : static_cast<double>(stage12_bytes) /
                                   static_cast<double>(stage3_bytes);
  }
  [[nodiscard]] double cr_zlib() const {
    return zlib_payload_bytes == 0
               ? 0.0
               : static_cast<double>(stage3_bytes) /
                     static_cast<double>(zlib_payload_bytes);
  }
  /// End-to-end archive compression ratio (includes all side data).
  [[nodiscard]] double cr_archive() const {
    return archive_bytes == 0 ? 0.0
                              : static_cast<double>(original_bytes) /
                                    static_cast<double>(archive_bytes);
  }
};

/// Compresses `data` with the given configuration. When `stats` is
/// non-null it receives the per-stage accounting. Single- and
/// double-precision inputs produce self-describing archives (the element
/// width travels in the header); DCTZ — DPZ's predecessor — targeted f64
/// checkpoints, and this implementation keeps that capability.
std::vector<std::uint8_t> dpz_compress(const FloatArray& data,
                                       const DpzConfig& config,
                                       DpzStats* stats = nullptr);
std::vector<std::uint8_t> dpz_compress(const DoubleArray& data,
                                       const DpzConfig& config,
                                       DpzStats* stats = nullptr);

/// Algorithm 2's estimate before compressing (SS IV-D): dpz_compress's
/// own Stage 1 with the sampling strategy on (the same layout, spatial
/// VIF probe, DCT and dct_keep_fraction truncation), then run_sampling
/// with the CR band calibrated on the config's quantizer. Its full_k is
/// the k dpz_compress(data, config) selects with use_sampling on and
/// fixed_k 0. Throws InvalidArgument when M < 2 * subset_count.
SamplingReport dpz_probe(const FloatArray& data, const DpzConfig& config);

/// Decompresses a DPZ archive; throws FormatError on malformed input.
///
/// `max_components` enables progressive reconstruction: when non-zero and
/// smaller than the stored k, only the leading components are used —
/// DPZ's information-oriented layout stores score streams in component
/// order, so any prefix yields a consistent (coarser) reconstruction
/// ("the reconstruction at any level shows consistency", SS IV-C).
/// `threads` sizes the decode worker pool exactly like DpzConfig::threads
/// does for compression (0 = ambient pool); the reconstruction is
/// bit-identical for every value. `limits` governs the decode: the
/// header-claimed geometry is priced and admitted against the memory
/// budget *before* any payload-sized allocation happens (so a forged
/// header claiming terabytes is rejected with ResourceExhausted up
/// front), and the deadline/cancel token are polled at every stage
/// boundary and between loop strips.
FloatArray dpz_decompress(std::span<const std::uint8_t> archive,
                          std::size_t max_components = 0,
                          unsigned threads = 0,
                          const ResourceLimits& limits = {});

/// Double-precision counterpart of dpz_decompress; throws FormatError when
/// the archive holds single-precision data (and vice versa).
DoubleArray dpz_decompress_f64(std::span<const std::uint8_t> archive,
                               std::size_t max_components = 0,
                               unsigned threads = 0,
                               const ResourceLimits& limits = {});

/// Header-level description of an archive (no payload decoding). It
/// comes from the decoder's own layout parse (core/layout.h), so the
/// header checksum, geometry and section framing are all validated: a
/// damaged or truncated archive throws rather than reporting garbage.
struct DpzArchiveInfo {
  int version = 0;  ///< archive format version (1 legacy, 2 checksummed)
  bool stored_raw = false;
  bool wide_codes = false;
  bool standardized = false;
  bool double_precision = false;
  double error_bound = 0.0;
  std::vector<std::size_t> shape;
  BlockLayout layout;      ///< meaningless when stored_raw
  std::size_t k = 0;       ///< 0 when stored_raw
  std::uint64_t outlier_count = 0;
  std::uint64_t archive_bytes = 0;
};

/// Parses an archive's layout; throws FormatError on malformed input.
DpzArchiveInfo dpz_inspect(std::span<const std::uint8_t> archive);

/// Pre-flight resource estimate for decoding an archive, computed from
/// header metadata alone with saturating arithmetic (the header is
/// untrusted input, so claimed extents must not wrap the estimate back
/// into an "affordable" range). `decoded_bytes` is the reconstructed
/// array; `peak_bytes` adds the dominant transient working set (block and
/// score matrices, basis, inflated sections). The decode path admits
/// `peak_bytes` against the governing memory budget before its first
/// payload-sized allocation.
struct DecodePreflight {
  std::uint64_t decoded_bytes = 0;
  std::uint64_t peak_bytes = 0;
};

/// Prices a decode from its parsed header (see DecodePreflight).
DecodePreflight dpz_decode_preflight(const DpzArchiveInfo& info);

/// Compressor-interface adapter.
class DpzCompressor final : public Compressor {
 public:
  explicit DpzCompressor(DpzConfig config) : config_(config) {}

  std::vector<std::uint8_t> compress(const FloatArray& data) override {
    return dpz_compress(data, config_);
  }
  FloatArray decompress(std::span<const std::uint8_t> archive) override {
    return dpz_decompress(archive, 0, config_.threads, config_.limits);
  }
  [[nodiscard]] std::string name() const override {
    return config_.scheme == DpzScheme::kLoose ? "DPZ-l" : "DPZ-s";
  }

 private:
  DpzConfig config_;
};

}  // namespace dpz
