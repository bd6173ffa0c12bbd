// Internal archive building blocks and the one home of the pipeline's
// stage functions, all defined in dpz.cpp. Not part of the public API.
// The container formats themselves (headers, section framing) live in
// core/layout.h, included here for the section codec. dpz_compress is
// Stage 1 (to_blocks, the spatial VIF probe when sampling runs, dct_rows
// and the dct_keep_fraction truncation, in dpz.cpp's stage1_forward) +
// Stage 2 (fit_pca_spectrum, select_k, attach_top_components; Algorithm
// 2's run_sampling only estimates k) + encode; dpz_probe is that same
// Stage 1 followed by run_sampling. Decode is read_payload + reconstruct
// (stage3_inverse, pca_back_project, stage1_inverse). Every other
// pipeline, the shared-basis codec included, calls the same functions,
// and dpz_analyze's single-stage check keeps the DCT row loops, the score
// normalization, the k rule, the VIF probe, Algorithm 2's entry, the
// back-projection and the de-blocking here.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "codec/bytes.h"
#include "codec/quantizer.h"
#include "core/dpz.h"
#include "core/layout.h"
#include "core/sampling.h"
#include "linalg/pca.h"

namespace dpz {

/// Stage 1: orthonormal DCT-II of every block (row) of an M x N block
/// matrix, in place.
void dct_rows(Matrix& blocks);

}  // namespace dpz

namespace dpz::detail {

/// Stage 2's k rule: `fixed_k` clamped to [1, M], else the knee of the
/// spectrum's TVE curve (Method 1, `knee_fit`), else the smallest k whose
/// TVE reaches `tve` (Method 2). Reads only those four settings.
std::size_t select_k(const PcaModel& spectrum, const DpzConfig& config);

/// Score-normalization calibration: every k-PCA score is divided by ONE
/// global scale — kScoreSigmaScale times the standard deviation of the
/// first (largest) component — before quantization, mirroring the paper's
/// single absolute error bound "designed only for approximation on k-PCA"
/// (SS IV-C). With the DPZ-l parameters (P = 1e-3, B = 255) the covered
/// band is ~2 sigma of the dominant component, so its near-normal stream
/// (the paper's normality argument) leaves only a small tail as verbatim
/// outliers, while later (smaller) components concentrate in the central
/// bins. That concentration is what makes the zlib factor RISE with TVE
/// (Table III) and the quantization loss of DPZ-l blow up at tight TVE
/// (Table IV).
inline constexpr double kScoreSigmaScale = 8.0;

/// Global normalization scale (see kScoreSigmaScale), computed from the
/// first component's scores. Zero-variance streams fall back to max-abs,
/// then to 1.
double component_scale(std::span<const double> scores);

/// Stage 3 output: the global score scale and the quantized stream.
struct Stage3Stream {
  double score_scale = 1.0;
  QuantizedStream qs;
};

/// Stage 3: divides the k x N `scores` (in place) by component_scale of
/// row 0 — rescaled to `sigma_scale` sigmas — and quantizes them.
Stage3Stream stage3_forward(Matrix& scores, const QuantizerConfig& qcfg,
                            double sigma_scale = kScoreSigmaScale);

/// Stage 3 inverse: dequantizes `qs` into a k x n score matrix and
/// multiplies it back by `score_scale`.
Matrix stage3_inverse(const QuantizedStream& qs, const QuantizerConfig& qcfg,
                      double score_scale, std::size_t k, std::size_t n);

/// Everything after Stage 2: Stage 3 on `scores` (the k x N projection of
/// the blocks through `model`, whose components are M x k), the header
/// and the side/code/outlier
/// sections, and the stored-raw fallback when that archive would not be
/// smaller than `data`. Fills every DpzStats field except vif_median and
/// the Stage 1/2 times.
template <typename T>
std::vector<std::uint8_t> encode(const NdArray<T>& data,
                                 const BlockLayout& layout, Matrix scores,
                                 const PcaModel& model, bool standardized,
                                 const QuantizerConfig& qcfg, int zlib_level,
                                 DpzStats& st,
                                 double sigma_scale = kScoreSigmaScale);

/// Payload codec: the codes section, then the outliers cast to T; fills
/// st's outlier_count, stage3_bytes and zlib_payload_bytes. read_payload
/// reads both from the sections a layout parse located, each sized
/// (expected_raw) by the header or, for a snapshot, by the codec.
template <typename T>
void put_payload(ByteWriter& w, const QuantizedStream& qs, int level,
                 DpzStats& st);
template <typename T>
QuantizedStream read_payload(std::span<const std::uint8_t> archive,
                             const Section& codes, const Section& outliers,
                             std::size_t count);

/// Counts a shipped archive's sizes in the metrics registry. encode counts
/// nothing: rate control encodes many probes and ships one.
void count_archive(const DpzStats& st);

/// Side data: everything reconstruction needs besides the quantized scores.
struct SideData {
  std::vector<double> mean;   ///< M
  std::vector<double> scale;  ///< M (meaningful when standardized)
  double score_scale = 1.0;   ///< global score normalization (see above)
  Matrix basis;               ///< M x k, serialized as byte-shuffled f32
};

/// Appends the side section's raw bytes (means, scales when
/// standardized, the score scale, then the put_basis blob) and returns
/// put_basis's byte count, which put_section deflates by plane.
/// serialize_side returns the same bytes on their own.
std::size_t put_side(ByteWriter& w, const SideData& side, bool standardized);
std::vector<std::uint8_t> serialize_side(const SideData& side,
                                         bool standardized);
SideData deserialize_side(std::span<const std::uint8_t> bytes, std::size_t m,
                          std::size_t k, bool standardized);

/// Basis blob: an M x k basis as byte-shuffled f32 (the tail of a DPZ
/// side section; the whole basis section of a shared-basis blob). Returns
/// the bytes it appended, the count its section's put_section takes so
/// that they deflate by plane.
std::size_t put_basis(ByteWriter& w, const Matrix& basis);
Matrix get_basis(std::span<const std::uint8_t> bytes, std::size_t m,
                 std::size_t k);

/// Stage 1 inverse under the decode_idct span: DCT-III of every block
/// (row), then from_blocks into an array of `shape`.
template <typename T>
NdArray<T> stage1_inverse(Matrix blocks, const BlockLayout& layout,
                          const std::vector<std::size_t>& shape);

/// The decode tail, one span and governor poll per stage: stage3_inverse
/// (k = qs.count / n rows), pca_back_project through the leading k columns
/// of `basis`, then stage1_inverse. Counts the decoded bytes.
template <typename T>
NdArray<T> reconstruct(const QuantizedStream& qs, const QuantizerConfig& qcfg,
                       double score_scale, const Matrix& basis,
                       std::span<const double> mean,
                       std::span<const double> scale,
                       const BlockLayout& layout,
                       const std::vector<std::size_t>& shape);

/// dpz_decode_preflight's price, given the side data's bytes per feature.
DecodePreflight decode_price(const DpzArchiveInfo& info,
                             std::uint64_t side_bytes_per_feature);

}  // namespace dpz::detail
