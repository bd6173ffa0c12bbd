// Archive integrity verification: a structural walk over any DPZ
// container (monolithic, stored-raw, chunked, shared-basis blob or
// snapshot) that checks framing and — for format v2 — every CRC32C,
// without inflating a single payload byte.
//
// This is the read-only side of the v2 integrity layer: `dpz verify`
// prints the report, the fuzz truncation sweep derives section
// boundaries from it, and callers can pre-flight an archive fetched
// from unreliable storage before committing to a decode.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/chunked.h"
#include "core/dpz.h"

namespace dpz {

/// One checksummed unit of an archive: the fixed header, a compressed
/// section, or a chunked frame.
struct SectionStatus {
  std::string name;          ///< "header", "side", "frame[3]", ...
  std::uint64_t offset = 0;  ///< byte offset of the unit in the archive
  std::uint64_t size = 0;    ///< wire size including framing fields
  std::uint64_t raw_size = 0;  ///< claimed inflated size (sections only)
  bool has_crc = false;      ///< false for every v1 unit
  bool crc_ok = true;        ///< vacuously true when !has_crc
  std::uint32_t stored_crc = 0;
  std::uint32_t computed_crc = 0;
};

/// Outcome of verify_archive: the archive's kind and version, one row
/// per section, and a list of human-readable problems (empty iff ok).
struct VerifyReport {
  std::string kind;  ///< "dpz", "stored", "chunked", "shared-basis",
                     ///< "snapshot", or "unknown"
  int version = 0;   ///< 1 (legacy), 2 (checksummed), or 3 (DZC3 parity
                     ///< container); 0 when unknown
  bool ok = false;
  std::vector<SectionStatus> sections;
  std::vector<std::string> problems;
};

/// Walks `bytes` and reports its integrity. Never throws: malformed or
/// truncated input produces ok == false with the failure described in
/// `problems`, and the sections walked up to that point are retained.
/// The walk is the decoders' own layout parse (core/layout.h), so it
/// applies every structural check they do — trailing bytes included.
/// Chunked containers additionally verify each frame's own structure
/// and that the frames tile the container's shape.
VerifyReport verify_archive(std::span<const std::uint8_t> bytes);

/// Pre-flight resource estimate for decoding `bytes`, dispatched on the
/// container magic (monolithic/stored DPZ archives and chunked
/// containers). Returns nullopt for kinds without a standalone decode
/// path (shared-basis blobs and snapshots decode through a codec that
/// holds the geometry) and for headers too malformed to price — pricing
/// never throws; an undecodable archive simply has no estimate.
std::optional<DecodePreflight> decode_preflight(
    std::span<const std::uint8_t> bytes);

}  // namespace dpz
