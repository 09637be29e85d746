#include "util/checksum.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string_view>

#include "util/random.hpp"

namespace retri::util {
namespace {

Bytes from_string(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

/// Bytewise reference CRC-32: one table lookup per byte, the textbook form
/// the slicing-by-8 implementation must agree with bit for bit.
std::uint32_t reference_crc32(BytesView data) {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  std::uint32_t c = 0xffffffffu;
  for (const std::uint8_t b : data) c = table[(c ^ b) & 0xff] ^ (c >> 8);
  return ~c;
}

TEST(Crc32, KnownVectors) {
  // Standard CRC-32 (IEEE 802.3) check values.
  EXPECT_EQ(crc32(from_string("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(from_string("")), 0x00000000u);
  EXPECT_EQ(crc32(from_string("a")), 0xE8B7BE43u);
  EXPECT_EQ(crc32(from_string("abc")), 0x352441C2u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const Bytes data = random_payload(1000, 5);
  Crc32 incremental;
  incremental.update(BytesView(data.data(), 100));
  incremental.update(BytesView(data.data() + 100, 1));
  incremental.update(BytesView(data.data() + 101, 899));
  EXPECT_EQ(incremental.finish(), crc32(data));
}

TEST(Crc32, SlicingMatchesBytewiseAtEveryLengthAndAlignment) {
  // Lengths 0..300 cover the empty input, tail-only inputs (< 8 bytes)
  // and every tail length after whole 8-byte blocks; starting at each
  // offset 0..7 into the buffer covers every load alignment.
  const Bytes data = random_payload(300 + 8, 11);
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const BytesView view(data.data() + align, len);
      ASSERT_EQ(crc32(view), reference_crc32(view))
          << "align " << align << " len " << len;
    }
  }
}

TEST(Crc32, IncrementalSplitAtEveryPoint) {
  // Every split not at a multiple of 8 leaves a partial 8-byte block on
  // both sides of the cut, so the carried state must cross a block
  // boundary correctly.
  const Bytes data = random_payload(64, 12);
  const std::uint32_t whole = reference_crc32(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Crc32 incremental;
    incremental.update(BytesView(data.data(), split));
    incremental.update(BytesView(data.data() + split, data.size() - split));
    ASSERT_EQ(incremental.finish(), whole) << "split " << split;
  }
}

TEST(Crc32, DetectsSingleBitFlip) {
  Xoshiro256 rng(77);
  Bytes data = random_payload(200, 6);
  const std::uint32_t clean = crc32(data);
  for (int trial = 0; trial < 64; ++trial) {
    const std::size_t byte = static_cast<std::size_t>(rng.below(data.size()));
    const int bit = static_cast<int>(rng.below(8));
    data[byte] ^= static_cast<std::uint8_t>(1 << bit);
    EXPECT_NE(crc32(data), clean);
    data[byte] ^= static_cast<std::uint8_t>(1 << bit);  // restore
  }
  EXPECT_EQ(crc32(data), clean);
}

TEST(Crc32, DetectsByteSwap) {
  Bytes data = from_string("hello world");
  const std::uint32_t clean = crc32(data);
  std::swap(data[0], data[1]);
  EXPECT_NE(crc32(data), clean);
}

TEST(Fletcher16, KnownVectors) {
  // Classic Fletcher-16 test vectors.
  EXPECT_EQ(fletcher16(from_string("abcde")), 0xC8F0u);
  EXPECT_EQ(fletcher16(from_string("abcdef")), 0x2057u);
  EXPECT_EQ(fletcher16(from_string("abcdefgh")), 0x0627u);
}

TEST(Fletcher16, EmptyIsZero) {
  EXPECT_EQ(fletcher16({}), 0u);
}

TEST(Fletcher16, DetectsMostSingleByteChanges) {
  const Bytes data = random_payload(100, 8);
  const std::uint16_t clean = fletcher16(data);
  Bytes tampered = data;
  tampered[50] ^= 0x01;
  EXPECT_NE(fletcher16(tampered), clean);
}

}  // namespace
}  // namespace retri::util
