#include "baselines/dctzlike.h"

#include "codec/bytes.h"
#include "codec/quantizer.h"
#include "codec/zlib_codec.h"
#include "core/archive_detail.h"
#include "core/blocking.h"
#include "core/layout.h"
#include "util/error.h"

namespace dpz {

namespace {

constexpr std::uint32_t kMagic = 0x315A4344;  // "DCZ1"

}  // namespace

std::vector<std::uint8_t> dctzlike_compress(const FloatArray& data,
                                            const DctzLikeConfig& config) {
  DPZ_REQUIRE(data.rank() >= 1 && data.rank() <= 4,
              "DCTZ-like supports rank 1-4 data");
  DPZ_REQUIRE(data.size() >= 8, "DCTZ-like needs at least 8 values");

  const double eb = config.resolve_bound(data.value_range());
  DPZ_REQUIRE(eb > 0.0, "error bound must resolve to a positive value");

  const BlockLayout layout = choose_block_layout(data.size());
  Matrix blocks = to_blocks(data.flat(), layout);
  dct_rows(blocks);

  const QuantizerConfig qcfg{.error_bound = eb, .wide_codes = true};
  const QuantizedStream qs = quantize(blocks.flat(), qcfg);

  ByteWriter w;
  w.put_u32(kMagic);
  w.put_u8(1);  // wide (2-byte) codes; the reader honours either width
  w.put_f64(eb);
  detail::put_shape(w, data.shape());
  detail::put_blocks(w, layout);
  w.put_u64(qs.outliers.size());

  w.put_u64(qs.codes.size());
  w.put_blob(zlib_compress(qs.codes));
  ByteWriter outlier_bytes;
  for (const double v : qs.outliers)
    outlier_bytes.put_f32(static_cast<float>(v));
  w.put_u64(outlier_bytes.size());
  w.put_blob(zlib_compress(outlier_bytes.bytes()));
  return w.take();
}

FloatArray dctzlike_decompress(std::span<const std::uint8_t> archive) {
  ByteReader r(archive);
  if (r.get_u32() != kMagic) throw FormatError("not a DCTZ-like archive");
  QuantizerConfig qcfg;
  qcfg.wide_codes = r.get_u8() != 0;
  qcfg.error_bound = r.get_f64();
  if (!(qcfg.error_bound > 0.0))
    throw FormatError("DCTZ-like archive: bad error bound");

  // The layout module's readers hold the geometry to DPZ's invariants.
  const std::vector<std::size_t> shape =
      detail::read_shape(r, "DCTZ-like archive");
  BlockLayout layout;
  detail::read_blocks(r, layout);
  if (!detail::valid_blocks(layout, detail::element_count(shape), layout.m))
    throw FormatError("DCTZ-like archive: inconsistent geometry");

  const std::uint64_t outlier_count = r.get_u64();
  if (outlier_count > layout.padded_total())
    throw FormatError("DCTZ-like archive: implausible outlier count");
  const std::uint64_t code_size = r.get_u64();
  QuantizedStream qs;
  qs.count = layout.m * layout.n;
  qs.codes =
      zlib_decompress(r.get_blob(), static_cast<std::size_t>(code_size));
  if (qs.codes.size() != qs.count * qcfg.code_bytes())
    throw FormatError("DCTZ-like archive: code section size mismatch");
  const std::uint64_t outlier_bytes = r.get_u64();
  const std::vector<std::uint8_t> outlier_raw =
      zlib_decompress(r.get_blob(), static_cast<std::size_t>(outlier_bytes));
  if (outlier_raw.size() != outlier_count * sizeof(float))
    throw FormatError("DCTZ-like archive: outlier size mismatch");
  ByteReader outlier_reader(outlier_raw);
  qs.outliers.resize(static_cast<std::size_t>(outlier_count));
  for (double& v : qs.outliers)
    v = static_cast<double>(outlier_reader.get_f32());

  Matrix blocks(layout.m, layout.n);
  dequantize(qs, qcfg, blocks.flat());
  return detail::stage1_inverse<float>(std::move(blocks), layout, shape);
}

}  // namespace dpz
