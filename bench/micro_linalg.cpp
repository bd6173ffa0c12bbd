// Substrate micro-benchmarks: covariance, dense vs truncated symmetric
// eigendecomposition (the sampling strategy's O(M^3) -> O(M^2 k) claim),
// and PCA transform throughput.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "linalg/eigen_sym.h"
#include "linalg/pca.h"
#include "simd/simd.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace dpz;

Matrix random_data(std::size_t m, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(m, n);
  for (double& v : x.flat()) v = rng.normal();
  return x;
}

Matrix random_spd(std::size_t m, std::uint64_t seed) {
  const Matrix x = random_data(m, 2 * m, seed);
  return covariance(x);
}

// The first layer of Stage 2, M x N on a pool of range(2) threads.
// 720 x 1440 is climate2d-archive's block matrix and 500 x 686 the
// 1-thread shape; the 4-thread rows show how evenly the triangle splits,
// the 1-thread rows the serial code they must not slow down. Each call
// copies the const input, as an lvalue caller's does.
void BM_Covariance(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto threads = static_cast<unsigned>(state.range(2));
  const Matrix x = random_data(m, n, 1);
  const ScopedThreads scope(threads);
  for (auto _ : state) {
    const Matrix cov = covariance(x);
    benchmark::DoNotOptimize(cov.flat().data());
  }
}
BENCHMARK(BM_Covariance)
    ->Args({128, 256, 4})
    ->Args({256, 512, 4})
    ->Args({720, 1440, 1})
    ->Args({720, 1440, 4})
    ->Args({500, 686, 1})
    ->Args({500, 686, 4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_EigenDense(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_spd(m, 2);
  for (auto _ : state) {
    const SymmetricEigen eig = eigen_sym(a);
    benchmark::DoNotOptimize(eig.values.data());
  }
}
BENCHMARK(BM_EigenDense)->Arg(128)->Arg(256)->Arg(512);

// The O(M^3) half of Stage 2 at the climate2d size, on a pool of
// range(1) threads: from M = 256 the reduction runs on a team of
// row-owning participants, so the 4-thread row shows the team's gain
// and the 1-thread row the single-pass code it must reproduce.
void BM_Tridiagonalize(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<unsigned>(state.range(1));
  const Matrix a = random_spd(m, 5);
  const ScopedThreads scope(threads);
  for (auto _ : state) {
    const TridiagonalReduction r = tridiagonalize(a);
    benchmark::DoNotOptimize(r.diag.data());
  }
}
BENCHMARK(BM_Tridiagonalize)
    ->Args({720, 1})
    ->Args({720, 4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_EigenTopK(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const Matrix a = random_spd(m, 3);
  for (auto _ : state) {
    const SymmetricEigen eig = eigen_sym_topk(a, k);
    benchmark::DoNotOptimize(eig.values.data());
  }
}
BENCHMARK(BM_EigenTopK)->Args({256, 8})->Args({512, 8})->Args({512, 32});

void BM_PcaTransform(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const Matrix x = random_data(m, 4 * m, 4);
  const std::size_t k = m / 8;
  const PcaModel model = attach_top_components(fit_pca_spectrum(x), k);
  for (auto _ : state) {
    const Matrix scores = model.transform(x, k);
    benchmark::DoNotOptimize(scores.flat().data());
  }
}
BENCHMARK(BM_PcaTransform)->Arg(256);

// ---- per-kernel, per-ISA rows ------------------------------------------
// One row per (kernel, ISA) so a dispatch regression shows up as a
// specific slow row rather than a diffuse pipeline slowdown. ISAs the
// host cannot execute are skipped, not failed, so the same binary
// reports sensibly everywhere.

bool isa_ready(benchmark::State& state, simd::Isa isa) {
  const std::vector<simd::Isa> avail = simd::available_isas();
  if (std::find(avail.begin(), avail.end(), isa) != avail.end())
    return true;
  state.SkipWithError("ISA unavailable on this host");
  return false;
}

void BM_KernelDot(benchmark::State& state) {
  const auto isa = static_cast<simd::Isa>(state.range(0));
  if (!isa_ready(state, isa)) return;
  const std::size_t n = 4096;
  std::vector<double> x(n), y(n);
  Rng rng(11);
  for (double& v : x) v = rng.normal();
  for (double& v : y) v = rng.normal();
  const simd::KernelTable& ops = simd::kernel_table(isa);
  for (auto _ : state) {
    double d = ops.dot(x.data(), y.data(), n);
    benchmark::DoNotOptimize(d);
  }
  state.SetLabel(simd::isa_name(isa));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * sizeof(double)));
}
BENCHMARK(BM_KernelDot)
    ->Arg(static_cast<int>(simd::Isa::kScalar))
    ->Arg(static_cast<int>(simd::Isa::kAvx2))
    ->Arg(static_cast<int>(simd::Isa::kNeon));

void BM_KernelAxpy(benchmark::State& state) {
  const auto isa = static_cast<simd::Isa>(state.range(0));
  if (!isa_ready(state, isa)) return;
  const std::size_t n = 4096;
  std::vector<double> x(n), y(n, 0.0);
  Rng rng(13);
  for (double& v : x) v = rng.normal();
  const simd::KernelTable& ops = simd::kernel_table(isa);
  for (auto _ : state) {
    ops.axpy(1.0009765625, x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetLabel(simd::isa_name(isa));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(3 * n * sizeof(double)));
}
BENCHMARK(BM_KernelAxpy)
    ->Arg(static_cast<int>(simd::Isa::kScalar))
    ->Arg(static_cast<int>(simd::Isa::kAvx2))
    ->Arg(static_cast<int>(simd::Isa::kNeon));

void BM_KernelAccumCentered(benchmark::State& state) {
  const auto isa = static_cast<simd::Isa>(state.range(0));
  if (!isa_ready(state, isa)) return;
  const std::size_t n = 4096;
  std::vector<double> x(n), out(n, 0.0);
  Rng rng(17);
  for (double& v : x) v = rng.normal();
  const simd::KernelTable& ops = simd::kernel_table(isa);
  for (auto _ : state) {
    ops.accum_centered(0.75, x.data(), 0.125, out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(simd::isa_name(isa));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(3 * n * sizeof(double)));
}
BENCHMARK(BM_KernelAccumCentered)
    ->Arg(static_cast<int>(simd::Isa::kScalar))
    ->Arg(static_cast<int>(simd::Isa::kAvx2))
    ->Arg(static_cast<int>(simd::Isa::kNeon));

}  // namespace

BENCHMARK_MAIN();
