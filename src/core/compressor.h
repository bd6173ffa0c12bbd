// Common interface that DPZ and the SZ-like and ZFP-like baselines
// implement, so examples/turbulence_checkpoint and the tests can drive
// them through one type. The other baselines expose only their
// compress/decompress functions.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "io/ndarray.h"

namespace dpz {

class Compressor {
 public:
  virtual ~Compressor() = default;

  /// Compresses a float array (any supported rank) into a self-describing
  /// archive buffer.
  virtual std::vector<std::uint8_t> compress(const FloatArray& data) = 0;

  /// Reconstructs the array (shape travels inside the archive).
  virtual FloatArray decompress(std::span<const std::uint8_t> archive) = 0;

  /// Human-readable name used in tables ("DPZ-l", "SZ-like", ...).
  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace dpz
