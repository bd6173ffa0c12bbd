// Shared definitions for the golden-archive format-stability suite.
//
// The generator (make_golden.cpp) and the test (test_golden_archive.cpp)
// both include this header so the inputs and configurations can never
// drift apart. Golden inputs are built from Rng::uniform() and plain
// arithmetic only — no libm transcendentals — so regenerating them is
// bit-exact on every platform; the archives they produce are committed
// under tests/golden/ and re-encoding must reproduce them byte for byte.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/chunked.h"
#include "core/dpz.h"
#include "core/shared_basis.h"
#include "util/rng.h"

namespace dpz::golden {

enum class Kind {
  kDpzF32,
  kDpzF64,
  kStoredRaw,     ///< an f32 DPZ archive that falls back to stored-raw
  kChunked,
  kChunkedParity, ///< a DZC3 container: frames plus Reed-Solomon parity
  kSharedBasis,
};

/// The plain <name>.dpz v1 fixtures predate checksums; cases added since
/// (stored-raw, DZC3) exist only in the current format.
inline bool has_v1_fixture(Kind kind) {
  return kind != Kind::kStoredRaw && kind != Kind::kChunkedParity;
}

struct GoldenCase {
  std::string name;          ///< file stem under tests/golden/
  Kind kind = Kind::kDpzF32;
  std::vector<std::size_t> shape;
  std::uint64_t seed = 0;
  DpzScheme scheme = DpzScheme::kStrict;
};

/// The committed corpus: one case per rank/width/container combination
/// the format supports. Adding a case here (plus its generated files) is
/// how a deliberate format change gets recorded; an accidental change
/// fails the byte comparison instead.
inline std::vector<GoldenCase> golden_cases() {
  return {
      {"dpz_1d_f32_loose", Kind::kDpzF32, {4096}, 101, DpzScheme::kLoose},
      {"dpz_2d_f32_strict", Kind::kDpzF32, {96, 80}, 102,
       DpzScheme::kStrict},
      {"dpz_3d_f32_strict", Kind::kDpzF32, {24, 20, 16}, 103,
       DpzScheme::kStrict},
      {"dpz_2d_f64_strict", Kind::kDpzF64, {64, 72}, 104,
       DpzScheme::kStrict},
      {"stored_1d_f32_strict", Kind::kStoredRaw, {3000}, 107,
       DpzScheme::kStrict},
      {"chunked_2d_f32_strict", Kind::kChunked, {128, 96}, 105,
       DpzScheme::kStrict},
      {"chunked_parity_2d_f32_strict", Kind::kChunkedParity, {128, 96}, 108,
       DpzScheme::kStrict},
      {"shared_basis_2d_f32_strict", Kind::kSharedBasis, {96, 96}, 106,
       DpzScheme::kStrict},
  };
}

inline DpzConfig golden_config(const GoldenCase& c) {
  DpzConfig config = c.scheme == DpzScheme::kLoose ? DpzConfig::loose()
                                                   : DpzConfig::strict();
  config.threads = 1;  // the knob must not matter; pin it anyway
  if (c.kind == Kind::kStoredRaw) {
    // k ~ M and every score escapes: the pipeline's archive must lose to
    // plain zlib, so the encoder writes the stored-raw fallback.
    config.tve = 0.9999999;
    config.error_bound = 1e-12;
  }
  return config;
}

/// Smooth-plus-noise field from exact arithmetic: a separable ramp mixed
/// with uniform noise. Collinear enough for a small k, noisy enough to
/// exercise the outlier escape path.
inline std::vector<double> golden_values(const std::vector<std::size_t>& shape,
                                         std::uint64_t seed) {
  std::size_t total = 1;
  for (const std::size_t d : shape) total *= d;
  Rng rng(seed);
  std::vector<double> values(total);
  const std::size_t inner = shape.back();
  for (std::size_t i = 0; i < total; ++i) {
    const std::size_t row = i / inner;
    const std::size_t col = i % inner;
    values[i] = 0.5 * static_cast<double>(row % 29) -
                0.25 * static_cast<double>(col % 23) +
                rng.uniform(-1.0, 1.0);
  }
  return values;
}

inline FloatArray golden_f32(const GoldenCase& c) {
  const std::vector<double> d = golden_values(c.shape, c.seed);
  std::vector<float> v(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) v[i] = static_cast<float>(d[i]);
  return FloatArray(c.shape, std::move(v));
}

inline DoubleArray golden_f64(const GoldenCase& c) {
  return DoubleArray(c.shape, golden_values(c.shape, c.seed));
}

inline ChunkedConfig golden_chunked_config(const GoldenCase& c) {
  ChunkedConfig config;
  config.dpz = golden_config(c);
  config.chunk_values = 2048;
  config.threads = 1;
  if (c.kind == Kind::kChunkedParity) {
    // Six frames in groups of four: a full group and a short final one.
    config.parity_k = 4;
    config.parity_m = 1;
  }
  return config;
}

/// A second snapshot for the shared-basis case (same statistics,
/// different seed) so the golden archive exercises the
/// compress-with-frozen-basis path, not just training.
inline FloatArray golden_snapshot(const GoldenCase& c) {
  GoldenCase shifted = c;
  shifted.seed = c.seed + 1000;
  return golden_f32(shifted);
}

/// FNV-1a over raw bytes — the same digest bench_regression records for
/// decode outputs, reproduced here so the tests stay dependency-free.
inline std::uint64_t fnv1a_bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// FNV-1a of what a fixture of `kind` decodes to; `blob` is the
/// shared-basis case's basis blob (unused otherwise).
inline std::uint64_t decode_fnv1a(Kind kind,
                                  std::span<const std::uint8_t> archive,
                                  std::span<const std::uint8_t> blob = {}) {
  switch (kind) {
    case Kind::kDpzF64: {
      const DoubleArray a = dpz_decompress_f64(archive);
      return fnv1a_bytes(a.flat().data(), a.size() * sizeof(double));
    }
    case Kind::kDpzF32:
    case Kind::kStoredRaw: {
      const FloatArray a = dpz_decompress(archive);
      return fnv1a_bytes(a.flat().data(), a.size() * sizeof(float));
    }
    case Kind::kChunked:
    case Kind::kChunkedParity: {
      const FloatArray a = chunked_decompress(archive);
      return fnv1a_bytes(a.flat().data(), a.size() * sizeof(float));
    }
    case Kind::kSharedBasis: {
      const FloatArray a =
          SharedBasisCodec::deserialize(blob).decompress(archive);
      return fnv1a_bytes(a.flat().data(), a.size() * sizeof(float));
    }
  }
  return 0;
}

/// Committed digests of the reconstructions the FROZEN v1 fixtures decode
/// to. This pins the READER bit-exactly: the decode path is elementwise
/// (dequantize, inverse transform, inverse DCT), so these bytes must never
/// move unless the decoder itself deliberately changes. The digests are
/// tied to the CI platform's libm, exactly like the re-encode byte
/// comparison above them: the DCT's shift factors and the FFT's stage
/// twiddles come from cos/sin (the radix-3 and radix-5 butterfly
/// constants do not; they are double literals). After a deliberate
/// decoder change, tests/make_golden prints the fresh values to paste
/// here.
inline std::uint64_t v1_reconstruction_fnv1a(const std::string& name) {
  if (name == "dpz_1d_f32_loose") return 12702031586422114287ULL;
  if (name == "dpz_2d_f32_strict") return 17925043515637843999ULL;
  if (name == "dpz_3d_f32_strict") return 10252479896664810560ULL;
  if (name == "dpz_2d_f64_strict") return 11119993746352575344ULL;
  if (name == "chunked_2d_f32_strict") return 11548042134086490847ULL;
  if (name == "shared_basis_2d_f32_strict") return 18244997559596584113ULL;
  return 0ULL;
}

/// Committed digests of the reconstructions the current .v2 fixtures
/// decode to. The deflate streams inside a section are not normative (any
/// conforming zlib stream is valid), so a writer change that only moves
/// deflate bytes regenerates the .v2 files and must leave these alone;
/// they move only with a deliberate change to what the encoder stores or
/// to the decoder.
inline std::uint64_t v2_reconstruction_fnv1a(const std::string& name) {
  if (name == "dpz_1d_f32_loose") return 12702031586422114287ULL;
  if (name == "dpz_2d_f32_strict") return 17925043515637843999ULL;
  if (name == "dpz_3d_f32_strict") return 10252479896664810560ULL;
  if (name == "dpz_2d_f64_strict") return 17781620894397923287ULL;
  if (name == "stored_1d_f32_strict") return 12732830581261279437ULL;
  if (name == "chunked_2d_f32_strict") return 17643384632270704656ULL;
  if (name == "chunked_parity_2d_f32_strict") return 1534697022322165831ULL;
  if (name == "shared_basis_2d_f32_strict") return 18244997559596584113ULL;
  return 0ULL;
}

}  // namespace dpz::golden
