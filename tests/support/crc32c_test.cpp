#include "support/crc32c.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "support/rng.hpp"

namespace ndpgen::support {
namespace {

constexpr std::array<std::uint8_t, 9> kCheckInput = {'1', '2', '3', '4', '5',
                                                     '6', '7', '8', '9'};

// crc32c must stay usable in constant expressions: the table kernel is
// the constant-evaluation path.
static_assert(crc32c(std::span<const std::uint8_t>(kCheckInput)) ==
              0xE3069283u);

using Kernel = std::uint32_t (*)(std::uint32_t,
                                 std::span<const std::uint8_t>) noexcept;

/// Every kernel this CPU can run, with the dispatched one included.
std::vector<std::pair<const char*, Kernel>> kernels() {
  std::vector<std::pair<const char*, Kernel>> all = {
      {"table", [](std::uint32_t crc, std::span<const std::uint8_t> data)
                    noexcept { return crc32c_update_table(crc, data); }},
      {"slice8", &crc32c_update_slice8},
      {"dispatched",
       [](std::uint32_t crc, std::span<const std::uint8_t> data) noexcept {
         return crc32c_update(crc, data);
       }}};
  if (crc32c_sse42_supported()) all.emplace_back("sse42", &crc32c_update_sse42);
  return all;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
  return bytes;
}

TEST(Crc32c, Rfc3720KnownAnswers) {
  std::array<std::uint8_t, 32> zeros{};
  std::array<std::uint8_t, 32> ones{};
  ones.fill(0xFF);
  std::array<std::uint8_t, 32> ascending{};
  std::iota(ascending.begin(), ascending.end(), std::uint8_t{0});
  std::array<std::uint8_t, 32> descending{};
  for (std::size_t i = 0; i < 32; ++i) {
    descending[i] = static_cast<std::uint8_t>(31 - i);
  }
  for (const auto& [name, kernel] : kernels()) {
    SCOPED_TRACE(name);
    EXPECT_EQ(kernel(0, zeros), 0x8A9136AAu);
    EXPECT_EQ(kernel(0, ones), 0x62A8AB43u);
    EXPECT_EQ(kernel(0, ascending), 0x46DD794Eu);
    EXPECT_EQ(kernel(0, descending), 0x113FDB5Cu);
    EXPECT_EQ(kernel(0, kCheckInput), 0xE3069283u);
    EXPECT_EQ(kernel(0, {}), 0u);
  }
}

TEST(Crc32c, EveryKernelMatchesTableOracle) {
  // Random lengths up to past two 32 KB blocks, from every start
  // alignment, plus every short length where the word loop and the byte
  // tail meet.
  const std::vector<std::uint8_t> data = random_bytes(70'008, 11);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 24; ++n) lengths.push_back(n);
  lengths.push_back(70'000);
  Xoshiro256 rng(29);
  for (int i = 0; i < 24; ++i) lengths.push_back(rng.range(0, 70'000));
  for (const std::size_t length : lengths) {
    for (std::size_t align = 0; align < 8; ++align) {
      const std::span<const std::uint8_t> input(data.data() + align, length);
      const std::uint32_t seed = static_cast<std::uint32_t>(rng());
      const std::uint32_t want = crc32c_update_table(seed, input);
      for (const auto& [name, kernel] : kernels()) {
        ASSERT_EQ(kernel(seed, input), want)
            << name << " length " << length << " align " << align;
      }
    }
  }
}

TEST(Crc32c, ChainedUpdatesMatchOneShot) {
  // The WAL chains entry CRCs through crc32c_update; a split anywhere
  // must give the CRC of the whole.
  const std::vector<std::uint8_t> data = random_bytes(4'099, 5);
  const std::span<const std::uint8_t> all(data);
  const std::uint32_t whole = crc32c(all);
  Xoshiro256 rng(17);
  for (int i = 0; i < 64; ++i) {
    const std::size_t a = rng.range(0, data.size());
    const std::size_t b = rng.range(a, data.size());
    std::uint32_t crc = crc32c_update(0, all.subspan(0, a));
    crc = crc32c_update(crc, all.subspan(a, b - a));
    crc = crc32c_update(crc, all.subspan(b));
    ASSERT_EQ(crc, whole) << "split at " << a << ", " << b;
  }
}

}  // namespace
}  // namespace ndpgen::support
