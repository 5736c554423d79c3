#include "common/crc32.h"

#include <array>
#include <cstring>

#include "common/cpu_dispatch.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace dhnsw {
namespace {

// Table-driven CRC-32C, polynomial 0x1EDC6F41 (reflected 0x82F63B78).
constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

constexpr auto kTable = MakeTable();

using Crc32cFn = uint32_t (*)(std::span<const uint8_t>, uint32_t) noexcept;

#if defined(__x86_64__)
// The SSE4.2 `crc32` instruction computes exactly CRC-32C, 8 bytes per
// instruction. Compiled for SSE4.2 via the target attribute alone, so the
// rest of the library keeps the baseline ISA; only called after cpuid says
// the CPU has it.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(std::span<const uint8_t> data,
                                                       uint32_t seed) noexcept {
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint64_t crc = ~seed;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof word);
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; ++p, --n) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}
#endif

Crc32cFn SelectImpl() noexcept {
#if defined(__x86_64__)
  if (!ForceScalarFromEnv() && __builtin_cpu_supports("sse4.2")) return &Crc32cSse42;
#endif
  return &Crc32cPortable;
}

Crc32cFn ActiveImpl() noexcept {
  static const Crc32cFn impl = SelectImpl();
  return impl;
}

}  // namespace

uint32_t Crc32cPortable(std::span<const uint8_t> data, uint32_t seed) noexcept {
  uint32_t crc = ~seed;
  for (uint8_t byte : data) {
    crc = (crc >> 8) ^ kTable[(crc ^ byte) & 0xFF];
  }
  return ~crc;
}

uint32_t Crc32c(std::span<const uint8_t> data, uint32_t seed) noexcept {
  return ActiveImpl()(data, seed);
}

const char* Crc32cImplementation() noexcept {
  return ActiveImpl() == &Crc32cPortable ? "table" : "sse4.2";
}

}  // namespace dhnsw
