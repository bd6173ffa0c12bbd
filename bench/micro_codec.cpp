// Substrate micro-benchmarks: quantizer, Huffman, and zlib throughput on
// score-like and code-like data, and the basis section's deflate (whole
// section at level 6 vs by byte plane) at an Isotropic side's shape
// (500 x 500), a small chunked frame's (128 x 14), and 128 x 32, the
// 4096-byte exponent plane where the two-candidate trial starts.
#include <benchmark/benchmark.h>

#include <cmath>

#include "codec/bytes.h"
#include "codec/huffman.h"
#include "codec/quantizer.h"
#include "codec/shuffle.h"
#include "codec/zlib_codec.h"
#include "util/rng.h"

namespace {

using namespace dpz;

std::vector<double> gaussian_scores(std::size_t n, double sigma,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.normal(0.0, sigma);
  return v;
}

void BM_Quantize(benchmark::State& state) {
  QuantizerConfig cfg;
  cfg.wide_codes = state.range(0) != 0;
  cfg.error_bound = cfg.wide_codes ? 1e-4 : 1e-3;
  // Scores normalized the DPZ way: ~N(0, 1/8) inside the quantizer band.
  const std::vector<double> values =
      gaussian_scores(1 << 20, 1.0 / 8.0, 1);
  for (auto _ : state) {
    const QuantizedStream qs = quantize(values, cfg);
    benchmark::DoNotOptimize(qs.codes.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.size()) * 8);
}
BENCHMARK(BM_Quantize)->Arg(0)->Arg(1);

void BM_Dequantize(benchmark::State& state) {
  QuantizerConfig cfg;
  cfg.wide_codes = true;
  cfg.error_bound = 1e-4;
  const std::vector<double> values =
      gaussian_scores(1 << 20, 1.0 / 8.0, 2);
  const QuantizedStream qs = quantize(values, cfg);
  std::vector<double> out(values.size());
  for (auto _ : state) {
    dequantize(qs, cfg, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Dequantize);

void BM_HuffmanEncode(benchmark::State& state) {
  Rng rng(3);
  std::vector<std::uint32_t> symbols(1 << 18);
  for (auto& s : symbols) {
    // SZ-like residual distribution: strongly peaked at the center code.
    const double g = rng.normal(0.0, 30.0);
    s = static_cast<std::uint32_t>(
        std::clamp(32768.0 + g, 0.0, 65535.0));
  }
  for (auto _ : state) {
    const auto bytes = huffman_encode(symbols, 65536);
    benchmark::DoNotOptimize(bytes.data());
  }
}
BENCHMARK(BM_HuffmanEncode);

void BM_HuffmanDecode(benchmark::State& state) {
  Rng rng(4);
  std::vector<std::uint32_t> symbols(1 << 18);
  for (auto& s : symbols)
    s = static_cast<std::uint32_t>(
        std::clamp(32768.0 + rng.normal(0.0, 30.0), 0.0, 65535.0));
  const auto bytes = huffman_encode(symbols, 65536);
  for (auto _ : state) {
    const auto out = huffman_decode(bytes);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_HuffmanDecode);

void BM_ZlibCompress(benchmark::State& state) {
  Rng rng(5);
  std::vector<std::uint8_t> data(1 << 20);
  for (auto& b : data)
    b = static_cast<std::uint8_t>(rng.uniform_index(32));
  const int level = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto z = zlib_compress(data, level);
    benchmark::DoNotOptimize(z.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_ZlibCompress)->Arg(1)->Arg(6);

// A DPZ side section for an m x k basis: m f64 means, the score scale,
// then the byte-shuffled f32 basis. Orthonormal columns have entries of
// size ~1/sqrt(m), so Gaussian entries at that scale give the exponent
// plane its real spread and the mantissa planes their noise.
struct SideSection {
  std::vector<std::uint8_t> bytes;
  std::size_t basis_bytes = 0;
};

SideSection side_section(std::size_t m, std::size_t k) {
  Rng rng(6);
  ByteWriter w;
  for (std::size_t i = 0; i <= m; ++i) w.put_f64(rng.normal(0.0, 1.0));
  ByteWriter basis;
  const double sigma = 1.0 / std::sqrt(static_cast<double>(m));
  for (std::size_t i = 0; i < m * k; ++i)
    basis.put_f32(static_cast<float>(rng.normal(0.0, sigma)));
  w.put_bytes(shuffle_bytes(basis.bytes(), sizeof(float)));
  return {w.take(), m * k * sizeof(float)};
}

// Times `encode` on the side section of an m x k basis (Args: m, k).
template <typename Encode>
void side_section_bench(benchmark::State& state, Encode encode) {
  const SideSection s = side_section(static_cast<std::size_t>(state.range(0)),
                                     static_cast<std::size_t>(state.range(1)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::vector<std::uint8_t> z = encode(s);
    bytes = z.size();
    benchmark::DoNotOptimize(z.data());
  }
  state.counters["out_bytes"] = static_cast<double>(bytes);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.bytes.size()));
}

// The reference: the whole side section through one level-6 deflate.
void BM_ZlibCompressSection(benchmark::State& state) {
  side_section_bench(state, [](const SideSection& s) {
    return zlib_compress(s.bytes, 6);
  });
}
BENCHMARK(BM_ZlibCompressSection)
    ->Args({500, 500})
    ->Args({128, 32})
    ->Args({128, 14});

void BM_ZlibCompressPlanes(benchmark::State& state) {
  side_section_bench(state, [](const SideSection& s) {
    return zlib_compress_planes(s.bytes, s.bytes.size() - s.basis_bytes, 6);
  });
}
BENCHMARK(BM_ZlibCompressPlanes)
    ->Args({500, 500})
    ->Args({128, 32})
    ->Args({128, 14});

}  // namespace

BENCHMARK_MAIN();
