#include <cstdint>
#include <vector>

namespace dpz {

void write_header(ByteWriter& w, bool stored) {
  w.put_u32(detail::kChunkedMagicV3);  // planted: single-parser
  w.put_u8(stored ? detail::kDpzFlagStoredRaw : 0);  // planted: single-parser
  detail::put_header_crc(w);  // planted: single-parser
}

}  // namespace dpz
