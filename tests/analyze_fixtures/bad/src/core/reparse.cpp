#include <cstdint>
#include <span>

namespace dpz {

void read_header(std::span<const std::uint8_t> bytes) {
  check_header_crc(bytes);  // planted: single-parser
}

}  // namespace dpz
