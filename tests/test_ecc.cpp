// GF(2^8) arithmetic and the systematic Reed-Solomon codec behind the
// DZC3 parity section (src/ecc/). The sweeps are exhaustive where the
// field is small enough to allow it: every element for the algebraic
// identities, every erasure pattern up to m losses for reconstruction.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "ecc/gf256.h"
#include "ecc/reed_solomon.h"
#include "util/error.h"
#include "util/rng.h"

namespace dpz::ecc {
namespace {

TEST(Gf256, AdditionIsXorAndSelfInverse) {
  EXPECT_EQ(gf_add(0x53, 0xCA), 0x53 ^ 0xCA);
  for (unsigned a = 0; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf_add(x, x), 0);
    EXPECT_EQ(gf_add(x, 0), x);
  }
}

TEST(Gf256, MultiplicationIdentitiesAndZero) {
  for (unsigned a = 0; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf_mul(x, 1), x);
    EXPECT_EQ(gf_mul(1, x), x);
    EXPECT_EQ(gf_mul(x, 0), 0);
    EXPECT_EQ(gf_mul(0, x), 0);
  }
  // Known product under the 0x11D polynomial (AES-adjacent textbooks
  // use 0x11B; this field is the storage-codec convention).
  EXPECT_EQ(gf_mul(2, 0x80), 0x1D);
}

TEST(Gf256, MultiplicationIsCommutativeAndAssociative) {
  Rng rng(2021);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto a = static_cast<std::uint8_t>(rng.next_u64());
    const auto b = static_cast<std::uint8_t>(rng.next_u64());
    const auto c = static_cast<std::uint8_t>(rng.next_u64());
    EXPECT_EQ(gf_mul(a, b), gf_mul(b, a));
    EXPECT_EQ(gf_mul(gf_mul(a, b), c), gf_mul(a, gf_mul(b, c)));
    EXPECT_EQ(gf_mul(a, gf_add(b, c)),
              gf_add(gf_mul(a, b), gf_mul(a, c)));
  }
}

TEST(Gf256, EveryNonzeroElementHasAnInverse) {
  for (unsigned a = 1; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf_mul(x, gf_inv(x)), 1) << "element " << a;
  }
}

TEST(Gf256, PowMatchesRepeatedMultiplication) {
  for (unsigned base = 0; base < 16; ++base) {
    std::uint8_t acc = 1;
    for (unsigned e = 0; e < 12; ++e) {
      EXPECT_EQ(gf_pow(static_cast<std::uint8_t>(base), e), acc);
      acc = gf_mul(acc, static_cast<std::uint8_t>(base));
    }
  }
}

// -------------------------------------------------------------------------

std::vector<std::vector<std::uint8_t>> random_shards(std::size_t k,
                                                     std::size_t size,
                                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::uint8_t>> shards(k);
  for (auto& s : shards) {
    s.resize(size);
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.next_u64());
  }
  return shards;
}

std::vector<std::span<const std::uint8_t>> views(
    const std::vector<std::vector<std::uint8_t>>& shards) {
  std::vector<std::span<const std::uint8_t>> v;
  v.reserve(shards.size());
  for (const auto& s : shards) v.emplace_back(s);
  return v;
}

TEST(ReedSolomon, RejectsBadGeometry) {
  EXPECT_THROW(RsCodec(0, 2), Error);
  EXPECT_THROW(RsCodec(4, 0), Error);
  EXPECT_THROW(RsCodec(200, 56), Error);  // k + m > 255
  EXPECT_NO_THROW(RsCodec(253, 2));
  EXPECT_NO_THROW(RsCodec(1, 1));
}

TEST(ReedSolomon, EncodeIsDeterministic) {
  const RsCodec codec(5, 3);
  const auto data = random_shards(5, 64, 7);
  const auto p1 = codec.encode(views(data));
  const auto p2 = codec.encode(views(data));
  ASSERT_EQ(p1.size(), 3u);
  EXPECT_EQ(p1, p2);
  for (const auto& shard : p1) EXPECT_EQ(shard.size(), 64u);
}

// Reconstruction, exhaustively: for every way of erasing up to m
// shards (data or parity alike), the decoder must return the original
// data shards bit-exactly.
void sweep_erasures(std::size_t k, std::size_t m, std::size_t size) {
  const RsCodec codec(k, m);
  const auto data = random_shards(k, size, 1000 * k + m);
  const auto parity = codec.encode(views(data));

  std::vector<std::vector<std::uint8_t>> all(data);
  all.insert(all.end(), parity.begin(), parity.end());

  const std::size_t n = k + m;
  // Every single and (when m >= 2) every pair of erasures.
  std::vector<std::vector<std::size_t>> patterns;
  for (std::size_t i = 0; i < n; ++i) patterns.push_back({i});
  if (m >= 2)
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) patterns.push_back({i, j});

  for (const auto& erased : patterns) {
    std::vector<std::uint8_t> present(n, 1);
    auto shards = views(all);
    for (const std::size_t e : erased) {
      present[e] = 0;
      shards[e] = {};
    }
    const auto rebuilt = codec.reconstruct(shards, present);
    ASSERT_EQ(rebuilt.size(), k);
    for (std::size_t i = 0; i < k; ++i)
      EXPECT_EQ(rebuilt[i], data[i]) << "k=" << k << " m=" << m
                                     << " erased " << erased.front();
  }
}

TEST(ReedSolomon, AllSingleAndDoubleErasuresReconstruct) {
  sweep_erasures(4, 2, 96);
  sweep_erasures(16, 2, 64);
  sweep_erasures(3, 3, 33);
  sweep_erasures(1, 1, 17);
  sweep_erasures(10, 4, 40);
}

TEST(ReedSolomon, LossBeyondBudgetThrows) {
  const std::size_t k = 4, m = 2;
  const RsCodec codec(k, m);
  const auto data = random_shards(k, 32, 99);
  const auto parity = codec.encode(views(data));

  std::vector<std::vector<std::uint8_t>> all(data);
  all.insert(all.end(), parity.begin(), parity.end());
  std::vector<std::uint8_t> present(k + m, 1);
  auto shards = views(all);
  for (const std::size_t e : {0u, 2u, 5u}) {  // three losses, m = 2
    present[e] = 0;
    shards[e] = {};
  }
  EXPECT_THROW(codec.reconstruct(shards, present), Error);
}

TEST(ReedSolomon, ParityShardsAreLinearlyIndependent) {
  // Erase ALL data shards of a k <= m code: parity alone must carry the
  // message. This is the strongest MDS check a 2+2 geometry allows.
  const RsCodec codec(2, 2);
  const auto data = random_shards(2, 48, 5);
  const auto parity = codec.encode(views(data));

  std::vector<std::span<const std::uint8_t>> shards = {
      {}, {}, parity[0], parity[1]};
  const std::vector<std::uint8_t> present = {0, 0, 1, 1};
  const auto rebuilt = codec.reconstruct(shards, present);
  ASSERT_EQ(rebuilt.size(), 2u);
  EXPECT_EQ(rebuilt[0], data[0]);
  EXPECT_EQ(rebuilt[1], data[1]);
}

TEST(ReedSolomon, MismatchedShardLengthsRejected) {
  const RsCodec codec(3, 1);
  auto data = random_shards(3, 32, 11);
  data[1].resize(31);
  EXPECT_THROW(codec.encode(views(data)), Error);
}

}  // namespace
}  // namespace dpz::ecc
