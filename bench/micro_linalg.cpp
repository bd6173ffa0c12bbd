// Substrate micro-benchmarks: covariance, dense vs truncated symmetric
// eigendecomposition (the sampling strategy's O(M^3) -> O(M^2 k) claim),
// and PCA projection/back-projection throughput.
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

// Stage 2's projection and back-projection, M x k x N on a pool of
// range(3) threads, through a random (not orthonormal) basis: the
// kernel's cost does not depend on the basis's values. 500 x 500 x 686
// is turbulence3d-sampling's single-thread shape, 720 x 56 x 1440
// climate2d-archive's, and 128 x 8 x 512 a chunked frame's, where k is
// small and the panels are shallow.
struct ProjectionCase {
  Matrix basis;
  std::vector<double> mean;
  std::vector<double> scale;
  Matrix x;
  Matrix scores;
  ProjectionCase(std::size_t m, std::size_t k, std::size_t n)
      : basis(random_data(m, k, 4)),
        mean(m, 0.25),
        scale(m, 1.0),
        x(random_data(m, n, 5)),
        scores(random_data(k, n, 6)) {}
};

void BM_PcaTransform(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(1));
  const ProjectionCase pc(static_cast<std::size_t>(state.range(0)), k,
                          static_cast<std::size_t>(state.range(2)));
  const ScopedThreads scope(static_cast<unsigned>(state.range(3)));
  for (auto _ : state) {
    const Matrix scores = pca_project(pc.basis, pc.mean, pc.scale, pc.x, k);
    benchmark::DoNotOptimize(scores.flat().data());
  }
}

void BM_PcaBackProject(benchmark::State& state) {
  const ProjectionCase pc(static_cast<std::size_t>(state.range(0)),
                          static_cast<std::size_t>(state.range(1)),
                          static_cast<std::size_t>(state.range(2)));
  const ScopedThreads scope(static_cast<unsigned>(state.range(3)));
  for (auto _ : state) {
    const Matrix x = pca_back_project(pc.basis, pc.mean, pc.scale, pc.scores);
    benchmark::DoNotOptimize(x.flat().data());
  }
}

void projection_shapes(benchmark::internal::Benchmark* b) {
  b->Args({500, 500, 686, 1})
      ->Args({720, 56, 1440, 1})
      ->Args({720, 56, 1440, 4})
      ->Args({128, 8, 512, 1})
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
}
BENCHMARK(BM_PcaTransform)->Apply(projection_shapes);
BENCHMARK(BM_PcaBackProject)->Apply(projection_shapes);

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

// One 4 x 8 tile over a 256-deep panel, both L1-resident.
void BM_KernelPanelAccumulate(benchmark::State& state) {
  const auto isa = static_cast<simd::Isa>(state.range(0));
  if (!isa_ready(state, isa)) return;
  const std::size_t depth = 256;
  std::vector<double> a(4 * depth), panel(8 * depth), out(32, 0.0);
  Rng rng(17);
  for (double& v : a) v = rng.normal();
  for (double& v : panel) v = rng.normal();
  const simd::KernelTable& ops = simd::kernel_table(isa);
  for (auto _ : state) {
    ops.panel_accumulate(a.data(), panel.data(), depth, true, out.data(), 8);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(simd::isa_name(isa));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(64 * depth));
}
BENCHMARK(BM_KernelPanelAccumulate)
    ->Arg(static_cast<int>(simd::Isa::kScalar))
    ->Arg(static_cast<int>(simd::Isa::kAvx2))
    ->Arg(static_cast<int>(simd::Isa::kNeon));

}  // namespace

BENCHMARK_MAIN();
