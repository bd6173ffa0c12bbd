// Boundary: the layout module is where every container header is read
// and written (single-parser) and where sections inflate behind their
// checksum (unguarded-inflate).
#include <cstdint>
#include <span>
#include <vector>

namespace dpz::detail {

constexpr std::uint32_t kDpzMagic = 0x315A5044;
constexpr std::uint8_t kDpzFlagStoredRaw = 0x04;

void check_header_crc(std::span<const std::uint8_t> bytes);
void put_header_crc(ByteWriter& w);

void parse_layout(std::span<const std::uint8_t> bytes) {
  check_header_crc(bytes);
}

void put_header(ByteWriter& w, bool stored) {
  w.put_u32(kDpzMagic);
  w.put_u8(stored ? kDpzFlagStoredRaw : 0);
  put_header_crc(w);
}

std::vector<unsigned char> zlib_decompress(const unsigned char*,
                                           std::size_t);

std::vector<unsigned char> get_section(const unsigned char* bytes,
                                       std::size_t size) {
  return zlib_decompress(bytes, size);
}

}  // namespace dpz::detail
