#include "core/verify.h"

#include <utility>

#include "core/layout.h"
#include "util/error.h"

namespace dpz {

namespace {

// One report row. The header row carries the seal verdict its parse
// already computed (a broken seal fails the parse, which reports it);
// every other checksummed row is CRC-checked here.
void add_row(std::span<const std::uint8_t> bytes,
             const detail::Section& section, std::string name,
             std::uint32_t seal_crc, VerifyReport& rep) {
  SectionStatus row;
  row.name = std::move(name);
  row.offset = section.offset;
  row.size = section.size;
  row.raw_size = section.raw_size;
  row.has_crc = section.crc != detail::Section::Crc::kNone;
  row.stored_crc = section.stored_crc;
  if (section.crc == detail::Section::Crc::kHeader) {
    row.computed_crc = seal_crc;
  } else if (row.has_crc) {
    row.computed_crc = detail::checked_crc(bytes, section);
    if (row.computed_crc != row.stored_crc)
      rep.problems.push_back(row.name + " checksum mismatch");
  }
  row.crc_ok = !row.has_crc || row.computed_crc == row.stored_crc;
  if (const std::string problem = detail::raw_size_problem(section);
      !problem.empty())
    rep.problems.push_back(problem);
  rep.sections.push_back(std::move(row));
}

// Parses `bytes` as an `L` and reports its rows — on a parse failure,
// the rows parsed before it, with the failure rethrown as the problem.
template <typename L>
L walk(std::span<const std::uint8_t> bytes, VerifyReport& rep) {
  L layout;
  const auto report = [&] {
    rep.kind = layout.kind;
    rep.version = layout.version;
    for (const detail::Section& s : layout.sections)
      add_row(bytes, s, s.name, layout.seal_crc, rep);
  };
  try {
    detail::parse_layout(bytes, layout);
  } catch (const Error&) {
    report();
    throw;
  }
  report();
  return layout;
}

void walk_chunked(std::span<const std::uint8_t> bytes, VerifyReport& rep) {
  const auto h = walk<detail::ChunkedLayout>(bytes, rep);
  for (std::size_t f = 0; f < h.frame_count; ++f)
    add_row(bytes, h.frames[f], "frame[" + std::to_string(f) + "]", 0, rep);
  for (std::size_t g = 0; g < h.groups(); ++g)
    for (std::size_t j = 0; j < h.parity_m; ++j)
      add_row(bytes, h.shard(g, j),
              "parity[" + std::to_string(g) + "." + std::to_string(j) + "]",
              0, rep);

  // Each frame is a DPZ archive: verify its own structure (so a v1
  // container without CRCs still gets a meaningful check), and that the
  // frames tile the container's shape exactly, as the decoder demands.
  std::vector<std::uint64_t> claims(h.frame_count);
  bool parsed = true;
  for (std::size_t f = 0; f < h.frame_count; ++f) {
    VerifyReport inner;
    try {
      const auto frame =
          walk<detail::DpzLayout>(detail::bytes_of(bytes, h.frames[f]), inner);
      claims[f] = detail::element_count(frame.info.shape);
    } catch (const Error& e) {
      inner.problems.push_back(e.what());
      parsed = false;
    }
    if (!inner.problems.empty())
      rep.problems.push_back("frame[" + std::to_string(f) +
                             "]: " + inner.problems.front());
  }
  if (!parsed) return;
  if (std::string problem = detail::frames_tile_problem(h, claims);
      !problem.empty())
    rep.problems.push_back(std::move(problem));
}

}  // namespace

VerifyReport verify_archive(std::span<const std::uint8_t> bytes) {
  VerifyReport rep;
  rep.kind = "unknown";
  try {
    switch (detail::format_of(bytes)) {
      case detail::Format::kDpz:
        walk<detail::DpzLayout>(bytes, rep);
        break;
      case detail::Format::kChunked:
        walk_chunked(bytes, rep);
        break;
      case detail::Format::kBasis:
        walk<detail::BasisLayout>(bytes, rep);
        break;
      case detail::Format::kSnapshot:
        walk<detail::SnapshotLayout>(bytes, rep);
        break;
      case detail::Format::kUnknown:
        throw FormatError("not a recognized DPZ container");
    }
  } catch (const Error& e) {
    rep.problems.push_back(e.what());
  }
  rep.ok = rep.problems.empty();
  return rep;
}

std::optional<DecodePreflight> decode_preflight(
    std::span<const std::uint8_t> bytes) {
  try {
    switch (detail::format_of(bytes)) {
      case detail::Format::kDpz:
        return dpz_decode_preflight(dpz_inspect(bytes));
      case detail::Format::kChunked:
        return chunked_decode_preflight(bytes);
      default:
        return std::nullopt;
    }
  } catch (const Error&) {
    return std::nullopt;
  }
}

}  // namespace dpz
