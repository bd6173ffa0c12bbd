// Boundary: writers outside the layout module hand it the struct its
// parser fills and never name a magic, a flag bit or the seal.
#include <cstdint>
#include <vector>

namespace dpz {

std::vector<std::uint8_t> write_archive(const DpzArchiveInfo& info) {
  ByteWriter w;
  detail::put_header(w, info);
  return w.take();
}

}  // namespace dpz
