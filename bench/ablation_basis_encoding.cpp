// Ablation of the basis-encoding design choice (DESIGN.md SS2 point 4):
// the paper's accounting ignores the PCA basis entirely, but a real
// archive must carry it. Compares encodings of the stored basis:
//   f64 raw + zlib, f32 raw + zlib, f32 byte-shuffled + zlib at level 6
//   (one LZ pass over the whole blob), and f32 byte-shuffled deflated by
//   plane (zlib_compress_planes, the production choice: mantissa planes
//   Huffman-only, the exponent plane the smaller of run-length and LZ).
// The two shuffled encodings are timed too (best of three).
#include <algorithm>
#include <chrono>
#include <iostream>
#include <utility>

#include "bench_common.h"
#include "codec/bytes.h"
#include "codec/shuffle.h"
#include "codec/zlib_codec.h"
#include "core/analysis.h"

namespace {

using namespace dpz;
using namespace dpz::bench;

// Best-of-three wall time of `encode` in ms, and the size it produced.
template <typename F>
std::pair<std::size_t, double> timed_size(F&& encode) {
  std::size_t size = 0;
  double best_ms = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    size = encode().size();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    best_ms = rep == 0 ? ms : std::min(best_ms, ms);
  }
  return {size, best_ms};
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opt = parse_options(argc, argv);
  std::cout << "=== Ablation: PCA-basis encoding ===\n\n";

  TablePrinter table({"dataset", "k", "raw f32 bytes", "f64+zlib",
                      "f32+zlib", "f32+shuffle+zlib", "zlib ms",
                      "shuffle+planes", "planes ms", "shuffle gain"});

  for (const char* name : {"FLDSC", "CLDHGH", "Isotropic"}) {
    const Dataset ds = make_dataset(name, opt.scale, opt.seed);
    DpzAnalysis analysis(ds.data);
    const std::size_t k = analysis.k_for_tve(0.99999);
    const std::size_t m = analysis.layout().m;
    const PcaModel model = analysis.model(k);

    ByteWriter f32_bytes, f64_bytes;
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < k; ++j) {
        f32_bytes.put_f32(static_cast<float>(model.components(i, j)));
        f64_bytes.put_f64(model.components(i, j));
      }

    const std::size_t raw = f32_bytes.size();
    const std::size_t z64 = zlib_compress(f64_bytes.bytes()).size();
    const std::size_t z32 = zlib_compress(f32_bytes.bytes()).size();
    const std::vector<std::uint8_t> shuffled =
        shuffle_bytes(f32_bytes.bytes(), sizeof(float));
    const auto [zshuf, zshuf_ms] =
        timed_size([&] { return zlib_compress(shuffled); });
    const auto [planes, planes_ms] =
        timed_size([&] { return zlib_compress_planes(shuffled, 0); });

    table.add_row({name, std::to_string(k), human_bytes(raw),
                   human_bytes(z64), human_bytes(z32), human_bytes(zshuf),
                   fixed(zshuf_ms, 1), human_bytes(planes),
                   fixed(planes_ms, 1),
                   fixed(static_cast<double>(z32) /
                             static_cast<double>(planes),
                         2) +
                       "X"});
    std::cout << "finished " << name << "\n";
  }

  std::cout << "\n";
  table.print();
  std::cout << "(the shuffle filter is what makes carrying the basis "
               "affordable; the paper's CR numbers exclude it entirely)\n";
  maybe_write_csv(opt, "ablation_basis_encoding", table);
  return 0;
}
