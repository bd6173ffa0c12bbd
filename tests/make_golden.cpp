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
// decoding byte-exactly. After writing, the tool decodes each fixture it
// wrote and each frozen v1 fixture and prints the reconstruction digests;
// those must match the tables in golden_common.h
// (v2_reconstruction_fnv1a, v1_reconstruction_fnv1a). The v1 digests
// change only with a deliberate DECODER change; the v2 ones also with a
// deliberate change to the values the encoder stores, never with a new
// deflate strategy alone.
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

  // Reader-side digests of the fixtures just written and of the frozen v1
  // fixtures, for cross-checking (and, after a deliberate decoder or
  // stored-value change, updating) the tables in golden_common.h.
  for (const GoldenCase& c : golden_cases()) {
    const std::string stem = dir + "/" + c.name;
    const bool basis = c.kind == Kind::kSharedBasis;
    const auto report = [&](const char* generation, const char* archive_ext,
                            const char* blob_ext, std::uint64_t recorded) {
      const std::uint64_t digest = decode_fnv1a(
          c.kind, read_bytes(stem + archive_ext),
          basis ? read_bytes(stem + blob_ext) : std::vector<std::uint8_t>{});
      std::cout << generation << " digest " << c.name << " = " << digest
                << "ULL"
                << (digest == recorded ? " (matches golden_common.h)"
                                       : " (MISMATCH vs golden_common.h)")
                << "\n";
    };
    report("v2", ".v2.dpz", ".v2.blob", v2_reconstruction_fnv1a(c.name));
    if (has_v1_fixture(c.kind))
      report("v1", ".dpz", ".blob", v1_reconstruction_fnv1a(c.name));
  }
  return 0;
}
