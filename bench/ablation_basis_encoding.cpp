// Ablation of the basis-encoding design choice (DESIGN.md SS2 point 4):
// the paper's accounting ignores the PCA basis entirely, but a real
// archive must carry it. Compares encodings of the stored basis:
//   f64 raw + zlib, f32 raw + zlib, f32 byte-shuffled + zlib (the
//   production choice), and f32 shuffled at zlib level 9.
#include <iostream>

#include "bench_common.h"
#include "codec/bytes.h"
#include "codec/shuffle.h"
#include "codec/zlib_codec.h"
#include "core/analysis.h"

namespace {

using namespace dpz;
using namespace dpz::bench;

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opt = parse_options(argc, argv);
  std::cout << "=== Ablation: PCA-basis encoding ===\n\n";

  TablePrinter table({"dataset", "k", "raw f32 bytes", "f64+zlib",
                      "f32+zlib", "f32+shuffle+zlib", "shuffle gain"});

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
    const std::size_t zshuf =
        zlib_compress(shuffle_bytes(f32_bytes.bytes(), sizeof(float)))
            .size();

    table.add_row({name, std::to_string(k), human_bytes(raw),
                   human_bytes(z64), human_bytes(z32), human_bytes(zshuf),
                   fixed(static_cast<double>(z32) /
                             static_cast<double>(zshuf),
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
