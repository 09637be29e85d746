#include "util/checksum.hpp"

#include <array>

namespace retri::util {
namespace {

// Slicing-by-8 tables: kCrcTables[0] is the classic bytewise table, and
// kCrcTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
// lookups advance the CRC over eight input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xff];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// Little-endian load of four bytes, independent of host byte order.
std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

void Crc32::update(BytesView data) noexcept {
  std::uint32_t c = state_;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = kCrcTables[7][lo & 0xff] ^ kCrcTables[6][(lo >> 8) & 0xff] ^
        kCrcTables[5][(lo >> 16) & 0xff] ^ kCrcTables[4][lo >> 24] ^
        kCrcTables[3][hi & 0xff] ^ kCrcTables[2][(hi >> 8) & 0xff] ^
        kCrcTables[1][(hi >> 16) & 0xff] ^ kCrcTables[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    c = kCrcTables[0][(c ^ *p) & 0xff] ^ (c >> 8);
  }
  state_ = c;
}

std::uint32_t crc32(BytesView data) noexcept {
  Crc32 c;
  c.update(data);
  return c.finish();
}

std::uint16_t fletcher16(BytesView data) noexcept {
  std::uint32_t sum1 = 0;
  std::uint32_t sum2 = 0;
  for (const std::uint8_t b : data) {
    sum1 = (sum1 + b) % 255;
    sum2 = (sum2 + sum1) % 255;
  }
  return static_cast<std::uint16_t>((sum2 << 8) | sum1);
}

}  // namespace retri::util
