// Regenerates the committed golden archives under tests/golden/.
//
// Run after a DELIBERATE format change, from the build directory:
//   ./tests/make_golden <repo>/tests/golden
// then commit the new bytes together with the format change and a
// docs/FORMAT.md version note. test_golden_archive.cpp fails loudly when
// the bytes drift without this step.
//
// The generator writes the CURRENT format as <name>.v2.dpz (and .v2.blob
// for the shared basis). The plain <name>.dpz / <name>.blob files are
// FROZEN v1 fixtures from before checksums existed — the current encoder
// cannot reproduce them, and they must never be regenerated or deleted:
// they are the backward-compatibility evidence that v1 archives keep
// decoding byte-exactly. After writing, the tool decodes each frozen v1
// fixture and prints its reconstruction digest; those must match the
// table in golden_common.h (v1_reconstruction_fnv1a) and only ever
// change with a deliberate DECODER change.
#include <iostream>

#include "golden_common.h"
#include "io/file_io.h"

int main(int argc, char** argv) {
  using namespace dpz;
  using namespace dpz::golden;
  if (argc != 2) {
    std::cerr << "usage: make_golden <output-dir>\n";
    return 2;
  }
  const std::string dir = argv[1];
  for (const GoldenCase& c : golden_cases()) {
    switch (c.kind) {
      case Kind::kDpzF32:
      case Kind::kStoredRaw:
        write_bytes(dir + "/" + c.name + ".v2.dpz",
                    dpz_compress(golden_f32(c), golden_config(c)));
        break;
      case Kind::kDpzF64:
        write_bytes(dir + "/" + c.name + ".v2.dpz",
                    dpz_compress(golden_f64(c), golden_config(c)));
        break;
      case Kind::kChunked:
      case Kind::kChunkedParity:
        write_bytes(dir + "/" + c.name + ".v2.dpz",
                    chunked_compress(golden_f32(c),
                                     golden_chunked_config(c)));
        break;
      case Kind::kSharedBasis: {
        const SharedBasisCodec codec =
            SharedBasisCodec::train(golden_f32(c), golden_config(c));
        write_bytes(dir + "/" + c.name + ".v2.blob", codec.serialize());
        write_bytes(dir + "/" + c.name + ".v2.dpz",
                    codec.compress(golden_snapshot(c)));
        break;
      }
    }
    std::cout << "wrote " << dir << "/" << c.name << "\n";
  }

  // Reader-side digests of the frozen v1 fixtures, for cross-checking
  // (and, after a deliberate decoder change, updating) the table in
  // golden_common.h.
  for (const GoldenCase& c : golden_cases()) {
    if (!has_v1_fixture(c.kind)) continue;
    const std::string v1_path = dir + "/" + c.name + ".dpz";
    std::uint64_t digest = 0;
    switch (c.kind) {
      case Kind::kDpzF32: {
        const FloatArray a = dpz_decompress(read_bytes(v1_path));
        digest = fnv1a_bytes(a.flat().data(), a.size() * sizeof(float));
        break;
      }
      case Kind::kDpzF64: {
        const DoubleArray a = dpz_decompress_f64(read_bytes(v1_path));
        digest = fnv1a_bytes(a.flat().data(), a.size() * sizeof(double));
        break;
      }
      case Kind::kChunked: {
        const FloatArray a = chunked_decompress(read_bytes(v1_path));
        digest = fnv1a_bytes(a.flat().data(), a.size() * sizeof(float));
        break;
      }
      case Kind::kStoredRaw:
      case Kind::kChunkedParity:
        break;
      case Kind::kSharedBasis: {
        const SharedBasisCodec legacy = SharedBasisCodec::deserialize(
            read_bytes(dir + "/" + c.name + ".blob"));
        const FloatArray a = legacy.decompress(read_bytes(v1_path));
        digest = fnv1a_bytes(a.flat().data(), a.size() * sizeof(float));
        break;
      }
    }
    const bool match = digest == v1_reconstruction_fnv1a(c.name);
    std::cout << "v1 digest " << c.name << " = " << digest << "ULL"
              << (match ? " (matches golden_common.h)"
                        : " (MISMATCH vs golden_common.h)")
              << "\n";
  }
  return 0;
}
