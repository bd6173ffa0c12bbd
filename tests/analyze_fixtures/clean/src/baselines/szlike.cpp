// Boundary: single-parser covers the DPZ containers in src/core; a
// baseline codec's own magic lives with its own reader and writer.
#include <cstdint>

namespace dpz {

constexpr std::uint32_t kMagic = 0x315A4C53;  // "SLZ1"

void write_header(ByteWriter& w) { w.put_u32(kMagic); }

}  // namespace dpz
