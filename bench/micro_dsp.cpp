// Substrate micro-benchmarks: FFT and DCT throughput across the lengths
// the compressor actually uses (block sizes from the divisor-pair layout).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <vector>

#include "dsp/dct.h"
#include "dsp/fft.h"
#include "simd/simd.h"
#include "util/rng.h"

namespace {

using namespace dpz;

void BM_FftPow2(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const FftPlan plan(n);
  Rng rng(1);
  std::vector<std::complex<double>> data(n);
  for (auto& v : data) v = {rng.normal(), rng.normal()};
  for (auto _ : state) {
    plan.execute(data, false);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FftPow2)->Arg(256)->Arg(2048)->Arg(16384);

// 2·3·5-smooth lengths run the mixed-radix stages: the half-length
// transforms of the CESM block rows (N = 720, 1440, 1800, 3600).
void BM_FftSmooth(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const FftPlan plan(n);
  Rng rng(2);
  std::vector<std::complex<double>> data(n);
  for (auto& v : data) v = {rng.normal(), rng.normal()};
  for (auto _ : state) {
    plan.execute(data, false);
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FftSmooth)->Arg(360)->Arg(720)->Arg(900)->Arg(1800);

// Lengths with a prime factor above 5 run Bluestein: 343 = 7^3 is the
// half row of turbulence3d-sampling's N = 686, 682 = 2·11·31 a HACC row.
void BM_FftBluestein(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const FftPlan plan(n);
  Rng rng(2);
  std::vector<std::complex<double>> data(n);
  for (auto& v : data) v = {rng.normal(), rng.normal()};
  for (auto _ : state) {
    plan.execute(data, false);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FftBluestein)->Arg(343)->Arg(682);

void BM_DctForward(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const DctPlan plan(n);
  Rng rng(3);
  std::vector<double> data(n);
  for (auto& v : data) v = rng.normal();
  for (auto _ : state) {
    plan.forward(data, data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DctForward)->Arg(1440)->Arg(1800)->Arg(2048)->Arg(3600);

void BM_DctInverse(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const DctPlan plan(n);
  Rng rng(5);
  std::vector<double> data(n);
  for (auto& v : data) v = rng.normal();
  for (auto _ : state) {
    plan.inverse(data, data);
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
// The Stage 1 row lengths of the benchmark workloads (686, 1440, 1800)
// and a power of two.
BENCHMARK(BM_DctInverse)->Arg(686)->Arg(1440)->Arg(1800)->Arg(2048);

void BM_DctRoundTrip(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const DctPlan plan(n);
  Rng rng(4);
  std::vector<double> data(n);
  for (auto& v : data) v = rng.normal();
  for (auto _ : state) {
    plan.forward(data, data);
    plan.inverse(data, data);
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_DctRoundTrip)->Arg(2048);

// ---- per-kernel, per-ISA rows ------------------------------------------
// The complex kernels the FFT/DCT plans dispatch through, one row per
// ISA tier, so a dispatch regression pins to a specific kernel instead
// of showing up as a diffuse plan slowdown. Unavailable ISAs skip.

bool isa_ready(benchmark::State& state, simd::Isa isa) {
  const std::vector<simd::Isa> avail = simd::available_isas();
  if (std::find(avail.begin(), avail.end(), isa) != avail.end())
    return true;
  state.SkipWithError("ISA unavailable on this host");
  return false;
}

void BM_KernelCmul(benchmark::State& state) {
  const auto isa = static_cast<simd::Isa>(state.range(0));
  if (!isa_ready(state, isa)) return;
  const std::size_t n = 2048;  // complex values; 2n doubles
  Rng rng(6);
  std::vector<double> a(2 * n), b(2 * n), out(2 * n);
  for (double& v : a) v = rng.normal();
  for (double& v : b) v = rng.normal();
  const simd::KernelTable& ops = simd::kernel_table(isa);
  for (auto _ : state) {
    ops.cmul(a.data(), b.data(), out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(simd::isa_name(isa));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_KernelCmul)
    ->Arg(static_cast<int>(simd::Isa::kScalar))
    ->Arg(static_cast<int>(simd::Isa::kAvx2))
    ->Arg(static_cast<int>(simd::Isa::kNeon));

void BM_KernelRadix2Stage(benchmark::State& state) {
  const auto isa = static_cast<simd::Isa>(state.range(0));
  if (!isa_ready(state, isa)) return;
  const std::size_t n = 2048;   // complex values
  const std::size_t len = 512;  // one mid-tree butterfly stage
  Rng rng(7);
  std::vector<double> a(2 * n), w(len);  // len/2 twiddles, interleaved
  for (double& v : a) v = rng.normal();
  for (std::size_t k = 0; k < len / 2; ++k) {
    w[2 * k] = std::cos(k * 0.01);
    w[2 * k + 1] = std::sin(k * 0.01);
  }
  const simd::KernelTable& ops = simd::kernel_table(isa);
  for (auto _ : state) {
    ops.radix2_stage(a.data(), n, len, w.data(), false);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetLabel(simd::isa_name(isa));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_KernelRadix2Stage)
    ->Arg(static_cast<int>(simd::Isa::kScalar))
    ->Arg(static_cast<int>(simd::Isa::kAvx2))
    ->Arg(static_cast<int>(simd::Isa::kNeon));

// One mid-tree radix-3 or radix-5 stage (range(1) = 3 or 5) of a
// 1800-point transform, the mixed-radix half of a smooth-length FFT.
void BM_KernelOddRadixStage(benchmark::State& state) {
  const auto isa = static_cast<simd::Isa>(state.range(0));
  if (!isa_ready(state, isa)) return;
  const auto radix = static_cast<std::size_t>(state.range(1));
  const std::size_t n = 1800;                       // complex values
  const std::size_t len = radix == 3 ? 360 : 600;  // a 2·3·5 group length
  Rng rng(9);
  std::vector<double> a(2 * n), w(2 * (len - len / radix));
  for (double& v : a) v = rng.normal();
  for (std::size_t k = 0; k < w.size() / 2; ++k) {
    w[2 * k] = std::cos(k * 0.01);
    w[2 * k + 1] = std::sin(k * 0.01);
  }
  const simd::KernelTable& ops = simd::kernel_table(isa);
  const auto stage = radix == 3 ? ops.radix3_stage : ops.radix5_stage;
  for (auto _ : state) {
    stage(a.data(), n, len, w.data(), false);
    benchmark::DoNotOptimize(a.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(simd::isa_name(isa));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_KernelOddRadixStage)
    ->ArgsProduct({{static_cast<int>(simd::Isa::kScalar),
                    static_cast<int>(simd::Isa::kAvx2),
                    static_cast<int>(simd::Isa::kNeon)},
                   {3, 5}});

void BM_KernelCmulRealScale(benchmark::State& state) {
  const auto isa = static_cast<simd::Isa>(state.range(0));
  if (!isa_ready(state, isa)) return;
  const std::size_t n = 2048;
  Rng rng(8);
  std::vector<double> w(2 * n), v(2 * n), out(n);
  for (double& x : w) x = rng.normal();
  for (double& x : v) x = rng.normal();
  const simd::KernelTable& ops = simd::kernel_table(isa);
  for (auto _ : state) {
    ops.cmul_real_scale(w.data(), v.data(), 0.5, out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(simd::isa_name(isa));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_KernelCmulRealScale)
    ->Arg(static_cast<int>(simd::Isa::kScalar))
    ->Arg(static_cast<int>(simd::Isa::kAvx2))
    ->Arg(static_cast<int>(simd::Isa::kNeon));

void BM_DctNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  std::vector<double> data(n);
  for (auto& v : data) v = rng.normal();
  for (auto _ : state) {
    auto out = dct_naive_forward(data);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_DctNaive)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
