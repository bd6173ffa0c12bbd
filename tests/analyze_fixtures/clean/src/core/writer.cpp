// Boundary: writers seal headers with put_header_crc, which the
// single-parser check ignores.
#include <cstdint>
#include <vector>

namespace dpz::detail {

void put_header_crc(std::vector<std::uint8_t>& out);

void write_header(std::vector<std::uint8_t>& out) { put_header_crc(out); }

}  // namespace dpz::detail
