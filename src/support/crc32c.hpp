// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78).
//
// Used as the end-to-end integrity check on SST data blocks: ECC protects
// each flash page against raw bit errors, but an ECC miscorrection (or a
// fault anywhere between the NAND bus and DRAM staging) can hand back a
// clean-looking page with wrong bytes. The block-level CRC32C catches
// exactly that class, the same layering real storage engines use.
//
// Three kernels compute the same function:
//  * crc32c_update_table — byte at a time over a 256-entry table built at
//    compile time. It is the oracle the other kernels are tested against,
//    and the kernel used during constant evaluation, so crc32c stays
//    constexpr.
//  * crc32c_update_slice8 — portable slicing-by-8: eight table lookups
//    per 8-byte word.
//  * crc32c_update_sse42 — the x86-64 SSE4.2 `crc32` instruction, one per
//    8-byte word.
// At run time crc32c_update calls the fastest kernel the CPU supports,
// chosen once per process (SSE4.2 when present, else slicing-by-8).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <type_traits>

namespace ndpgen::support {

namespace detail {

constexpr std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32cTable =
    make_crc32c_table();

/// The run-time kernel picked for this CPU (see crc32c.cpp).
[[nodiscard]] std::uint32_t crc32c_update_dispatched(
    std::uint32_t crc, std::span<const std::uint8_t> data) noexcept;

}  // namespace detail

/// Table kernel: the reference every faster kernel must match.
[[nodiscard]] constexpr std::uint32_t crc32c_update_table(
    std::uint32_t crc, std::span<const std::uint8_t> data) noexcept {
  crc = ~crc;
  for (const std::uint8_t byte : data) {
    crc = (crc >> 8) ^ detail::kCrc32cTable[(crc ^ byte) & 0xFFu];
  }
  return ~crc;
}

/// Portable slicing-by-8 kernel.
[[nodiscard]] std::uint32_t crc32c_update_slice8(
    std::uint32_t crc, std::span<const std::uint8_t> data) noexcept;

/// True when the CPU has the SSE4.2 `crc32` instruction.
[[nodiscard]] bool crc32c_sse42_supported() noexcept;

/// SSE4.2 kernel. Call only when crc32c_sse42_supported(); on other
/// targets it forwards to the slicing-by-8 kernel.
[[nodiscard]] std::uint32_t crc32c_update_sse42(
    std::uint32_t crc, std::span<const std::uint8_t> data) noexcept;

/// Incremental update: feeds `data` into a running CRC (start from 0).
[[nodiscard]] constexpr std::uint32_t crc32c_update(
    std::uint32_t crc, std::span<const std::uint8_t> data) noexcept {
  if (std::is_constant_evaluated()) return crc32c_update_table(crc, data);
  return detail::crc32c_update_dispatched(crc, data);
}

/// One-shot CRC32C of a byte span.
[[nodiscard]] constexpr std::uint32_t crc32c(
    std::span<const std::uint8_t> data) noexcept {
  return crc32c_update(0, data);
}

}  // namespace ndpgen::support
