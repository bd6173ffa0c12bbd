// Boundary: the layout module is where the header seal is checked
// (single-parser); writers elsewhere only append it.
#include <cstdint>
#include <span>

namespace dpz::detail {

void check_header_crc(std::span<const std::uint8_t> bytes);

void parse_layout(std::span<const std::uint8_t> bytes) {
  check_header_crc(bytes);
}

}  // namespace dpz::detail
