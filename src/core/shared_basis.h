// Shared-basis campaign compression.
//
// Simulation campaigns emit many snapshots of the same field whose
// spatial correlation structure drifts slowly. DPZ's dominant archive
// overhead — the PCA basis — is then nearly identical across snapshots,
// so a codec trained once on a representative snapshot can compress the
// whole series while storing the basis a single time:
//
//   SharedBasisCodec codec = SharedBasisCodec::train(snapshot0, config);
//   auto basis_blob = codec.serialize();          // once per campaign
//   auto a1 = codec.compress(snapshot1);          // no basis inside
//   auto a2 = codec.compress(snapshot2);
//   ...
//   SharedBasisCodec reader = SharedBasisCodec::deserialize(basis_blob);
//   FloatArray s1 = reader.decompress(a1);
//
// Per-snapshot archives carry only the block means, the score scale, the
// quantization codes, and the outliers; everything else lives in the
// shared blob. This is an extension of the paper's design (its
// information-oriented framing makes the basis a reusable "retrieval
// model"), not something it evaluates.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "codec/quantizer.h"
#include "core/blocking.h"
#include "core/dpz.h"
#include "linalg/pca.h"

namespace dpz {

class SharedBasisCodec {
 public:
  /// Fits the basis on a representative snapshot: Stage 1 + full PCA +
  /// the config's k selection. The codec then freezes (layout, k, basis,
  /// quantizer scheme).
  static SharedBasisCodec train(const FloatArray& reference,
                                const DpzConfig& config);

  /// Serializes the frozen state (layout, quantizer, k, basis columns).
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;

  /// Restores a codec from serialize()'s output.
  static SharedBasisCodec deserialize(std::span<const std::uint8_t> blob);

  /// Compresses one snapshot; its shape must match the training snapshot.
  /// The returned archive contains no basis and can only be opened by a
  /// codec holding the same basis.
  [[nodiscard]] std::vector<std::uint8_t> compress(
      const FloatArray& snapshot, DpzStats* stats = nullptr) const;

  /// Reconstructs a snapshot compressed by this codec (or one restored
  /// from the same serialized basis).
  [[nodiscard]] FloatArray decompress(
      std::span<const std::uint8_t> archive) const;

  [[nodiscard]] const BlockLayout& layout() const { return layout_; }
  [[nodiscard]] std::size_t k() const { return basis_.cols(); }

  /// Worker threads for compress/decompress (0 = ambient pool). Train
  /// adopts DpzConfig::threads; restored codecs default to 0 — the knob
  /// is a runtime setting, not part of the serialized format. Output is
  /// bit-identical for every value.
  void set_threads(unsigned threads) { threads_ = threads; }
  [[nodiscard]] unsigned threads() const { return threads_; }

  /// Resource limits for compress/decompress (memory budget, deadline,
  /// cancel token; util/resource.h). Train adopts DpzConfig::limits;
  /// restored codecs default to ungoverned — like `threads`, this is a
  /// runtime setting, not part of the serialized format, and it never
  /// changes output bytes.
  void set_limits(const ResourceLimits& limits) { limits_ = limits; }
  [[nodiscard]] const ResourceLimits& limits() const { return limits_; }

 private:
  SharedBasisCodec() = default;

  BlockLayout layout_;
  std::vector<std::size_t> shape_;
  QuantizerConfig qcfg_;
  int zlib_level_ = 6;
  unsigned threads_ = 0;
  ResourceLimits limits_;
  Matrix basis_;  // M x k
};

}  // namespace dpz
