#include "codec/zlib_codec.h"

#define ZLIB_CONST  // next_in is const Bytef*
#include <zlib.h>

#include <algorithm>
#include <climits>
#include <span>
#include <string>

#include "util/error.h"
#include "util/resource.h"

namespace dpz {

std::vector<std::uint8_t> zlib_compress(std::span<const std::uint8_t> data,
                                        int level) {
  DPZ_REQUIRE(level >= 1 && level <= 9, "zlib level must be in [1, 9]");
  // Deflating a large buffer is one of the longest uninterruptible units
  // in the pipeline, so checkpoint before committing to it; the bound
  // buffer is a charged (budgeted) allocation.
  governed_poll();
  uLongf bound = compressBound(static_cast<uLong>(data.size()));
  const ScopedCharge charge(bound);
  std::vector<std::uint8_t> out(bound);
  const int rc =
      compress2(out.data(), &bound,
                data.empty() ? reinterpret_cast<const Bytef*>("")
                             : data.data(),
                static_cast<uLong>(data.size()), level);
  if (rc != Z_OK)
    throw Error("zlib compress2 failed with code " + std::to_string(rc));
  out.resize(bound);
  return out;
}

namespace {

// deflateInit2's memLevel, and the memory zconf.h gives for one deflate
// state at it and MAX_WBITS (window, hash chains, pending buffer; the few
// KiB of small objects left out).
constexpr int kMemLevel = 8;
constexpr std::size_t kDeflateStateBytes =
    (std::size_t{1} << (MAX_WBITS + 2)) + (std::size_t{1} << (kMemLevel + 9));

// One deflate stream writing into a caller-owned output range. zlib counts
// in uInt, so write() feeds the input and offers the output in pieces of
// at most kStep bytes, as compress2 does.
class Deflater {
 public:
  Deflater(int level, std::span<std::uint8_t> out) : out_(out) {
    const int rc = deflateInit2(&z_, level, Z_DEFLATED, MAX_WBITS,
                                kMemLevel, Z_DEFAULT_STRATEGY);
    if (rc != Z_OK)
      throw Error("zlib deflateInit2 failed with code " + std::to_string(rc));
  }

  /// Continues `from`'s stream from its current state; this copy's output
  /// goes to `out`.
  Deflater(Deflater& from, std::span<std::uint8_t> out) : out_(out) {
    const int rc = deflateCopy(&z_, &from.z_);
    if (rc != Z_OK)
      throw Error("zlib deflateCopy failed with code " + std::to_string(rc));
  }

  Deflater(const Deflater&) = delete;
  Deflater& operator=(const Deflater&) = delete;
  ~Deflater() { deflateEnd(&z_); }

  /// Switches level and strategy for the input that follows. A change of
  /// approach first ends the current block (deflate Z_BLOCK), which
  /// needs output room; the caller's bound includes it.
  void params(int level, int strategy) {
    offer_output();
    const int rc = deflateParams(&z_, level, strategy);
    took_output();
    if (rc != Z_OK)
      throw Error("zlib deflateParams failed with code " +
                  std::to_string(rc));
  }

  /// Deflates all of `in`; the last piece carries `flush` (Z_NO_FLUSH,
  /// Z_BLOCK or Z_FINISH).
  void write(std::span<const std::uint8_t> in, int flush) {
    do {
      const std::size_t step = std::min(in.size(), kStep);
      z_.next_in = in.data();
      z_.avail_in = static_cast<uInt>(step);
      in = in.subspan(step);
      const int f = in.empty() ? flush : Z_NO_FLUSH;
      for (;;) {
        offer_output();
        const int rc = deflate(&z_, f);
        took_output();
        if (rc == Z_STREAM_END) break;
        if (rc != Z_OK)
          throw Error("zlib deflate failed with code " + std::to_string(rc));
        if (f != Z_FINISH && z_.avail_in == 0 && z_.avail_out != 0) break;
        if (out_.empty())
          throw Error("zlib deflate output exceeded its bound");
      }
    } while (!in.empty());
  }

  /// Bytes this stream has written into its own output range.
  [[nodiscard]] std::size_t produced() const { return produced_; }

 private:
  static constexpr std::size_t kStep = UINT_MAX;

  void offer_output() {
    offered_ = std::min(out_.size(), kStep);
    z_.next_out = out_.data();
    z_.avail_out = static_cast<uInt>(offered_);
  }

  void took_output() {
    const std::size_t used = offered_ - z_.avail_out;
    out_ = out_.subspan(used);
    produced_ += used;
  }

  z_stream z_{};
  std::span<std::uint8_t> out_;
  std::size_t offered_ = 0;
  std::size_t produced_ = 0;
};

// Below this exponent-plane size, copying the 256 KiB stream state for the
// second candidate costs more time than the whole section used to take
// (bench/micro_codec BM_ZlibCompressPlanes at 128 x 14): the plane goes
// straight to LZ, the candidate that wins on small real bases (HACC
// frames).
constexpr std::size_t kTrialPlaneBytes = 4096;

}  // namespace

std::vector<std::uint8_t> zlib_compress_planes(
    std::span<const std::uint8_t> data, std::size_t prefix_bytes,
    int level) {
  DPZ_REQUIRE(level >= 1 && level <= 9, "zlib level must be in [1, 9]");
  DPZ_REQUIRE(prefix_bytes <= data.size() &&
                  (data.size() - prefix_bytes) % 4 == 0,
              "plane blob must be a whole number of f32 values");
  const std::size_t plane = (data.size() - prefix_bytes) / 4;
  if (plane == 0) return zlib_compress(data, level);
  governed_poll();

  // Each piece ends on a block boundary, so compressBound per piece
  // (stored blocks, held bits and the stream trailer included) bounds the
  // whole. The LZ candidate adds `lz_out`, for its exponent plane, and
  // the deflate state deflateCopy makes for it; the stream's own state
  // goes uncharged, as compress2's does in zlib_compress.
  const std::size_t plane_bound = compressBound(static_cast<uLong>(plane));
  const std::size_t bound =
      compressBound(static_cast<uLong>(prefix_bytes)) + 4 * plane_bound;
  const bool trial = plane >= kTrialPlaneBytes;
  const std::size_t lz_bytes = trial ? plane_bound + kDeflateStateBytes : 0;
  const ScopedCharge charge(bound + lz_bytes);
  std::vector<std::uint8_t> out(bound);
  std::vector<std::uint8_t> lz_out(trial ? plane_bound : 0);

  const std::span<const std::uint8_t> mantissas =
      data.subspan(prefix_bytes, 3 * plane);
  const std::span<const std::uint8_t> exponents =
      data.subspan(prefix_bytes + 3 * plane);
  Deflater stream(level, out);
  if (prefix_bytes != 0) stream.write(data.first(prefix_bytes), Z_NO_FLUSH);
  stream.params(level, Z_HUFFMAN_ONLY);
  stream.write(mantissas, Z_BLOCK);
  const int lz_level = std::min(level, 4);
  if (!trial) {
    stream.params(lz_level, Z_DEFAULT_STRATEGY);
    stream.write(exponents, Z_FINISH);
    out.resize(stream.produced());
    return out;
  }

  // The LZ candidate continues a copy of the stream into `lz_out`; the
  // stream itself takes the run-length candidate.
  const std::size_t shared = stream.produced();
  Deflater lz(stream, lz_out);
  lz.params(lz_level, Z_DEFAULT_STRATEGY);
  lz.write(exponents, Z_FINISH);
  stream.params(level, Z_RLE);
  stream.write(exponents, Z_FINISH);

  if (shared + lz.produced() < stream.produced()) {
    std::copy_n(lz_out.begin(), lz.produced(),
                std::span(out).subspan(shared).begin());
    out.resize(shared + lz.produced());
  } else {
    out.resize(stream.produced());
  }
  return out;
}

std::vector<std::uint8_t> zlib_decompress(
    std::span<const std::uint8_t> data, std::size_t expected_size) {
  // `expected_size` is usually read from an archive, so bound it by
  // deflate's maximum expansion (~1032:1, rounded up, plus slack for tiny
  // streams) before it sizes the output allocation. A claimed size beyond
  // that bound cannot inflate from `data` and is a forged length field.
  if (expected_size > data.size() * 1100 + 4096)
    throw FormatError("zlib expected size implausible for its payload");
  governed_poll();
  const ScopedCharge charge(expected_size);
  std::vector<std::uint8_t> out(expected_size);
  uLongf out_size = static_cast<uLongf>(expected_size);
  const int rc = uncompress(
      out.empty() ? reinterpret_cast<Bytef*>(&out_size) : out.data(),
      &out_size, data.data(), static_cast<uLong>(data.size()));
  if (rc != Z_OK)
    throw FormatError("zlib uncompress failed with code " +
                      std::to_string(rc));
  if (out_size != expected_size)
    throw FormatError("zlib output size mismatch: expected " +
                      std::to_string(expected_size) + ", got " +
                      std::to_string(out_size));
  return out;
}

}  // namespace dpz
