#include "support/crc32c.hpp"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace ndpgen::support {

namespace {

using Table = std::array<std::uint32_t, 256>;

/// tables[k][b] is the CRC contribution of byte b followed by k zero
/// bytes; tables[0] is the byte table of the oracle kernel.
constexpr std::array<Table, 8> make_slice8_tables() {
  std::array<Table, 8> tables{};
  tables[0] = detail::kCrc32cTable;
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t b = 0; b < 256; ++b) {
      const std::uint32_t prev = tables[k - 1][b];
      tables[k][b] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr std::array<Table, 8> kSlice8 = make_slice8_tables();

/// Little-endian 8-byte load, independent of host byte order.
std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return value;
}

}  // namespace

std::uint32_t crc32c_update_slice8(
    std::uint32_t crc, std::span<const std::uint8_t> data) noexcept {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint32_t c = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint64_t w = load_le64(p) ^ c;
    c = kSlice8[7][w & 0xFFu] ^ kSlice8[6][(w >> 8) & 0xFFu] ^
        kSlice8[5][(w >> 16) & 0xFFu] ^ kSlice8[4][(w >> 24) & 0xFFu] ^
        kSlice8[3][(w >> 32) & 0xFFu] ^ kSlice8[2][(w >> 40) & 0xFFu] ^
        kSlice8[1][(w >> 48) & 0xFFu] ^ kSlice8[0][w >> 56];
  }
  for (; n > 0; ++p, --n) {
    c = (c >> 8) ^ kSlice8[0][(c ^ *p) & 0xFFu];
  }
  return ~c;
}

#if defined(__x86_64__)

bool crc32c_sse42_supported() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

[[gnu::target("sse4.2")]] std::uint32_t crc32c_update_sse42(
    std::uint32_t crc, std::span<const std::uint8_t> data) noexcept {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t c = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof w);  // x86-64 is little-endian.
    c = _mm_crc32_u64(c, w);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}

#else

bool crc32c_sse42_supported() noexcept { return false; }

std::uint32_t crc32c_update_sse42(
    std::uint32_t crc, std::span<const std::uint8_t> data) noexcept {
  return crc32c_update_slice8(crc, data);
}

#endif

namespace detail {

std::uint32_t crc32c_update_dispatched(
    std::uint32_t crc, std::span<const std::uint8_t> data) noexcept {
  using Kernel = std::uint32_t (*)(std::uint32_t,
                                   std::span<const std::uint8_t>) noexcept;
  static const Kernel kernel = crc32c_sse42_supported()
                                   ? &crc32c_update_sse42
                                   : &crc32c_update_slice8;
  return kernel(crc, data);
}

}  // namespace detail

}  // namespace ndpgen::support
