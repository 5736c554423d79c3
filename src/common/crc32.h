// CRC-32C (Castagnoli) used to checksum serialized cluster blobs so a torn or
// corrupt remote read is detected at deserialization time.
#pragma once

#include <cstdint>
#include <span>

namespace dhnsw {

/// Computes CRC-32C over `data`, chained from `seed` (pass 0 to start).
/// The implementation is picked once per process: the SSE4.2 `crc32`
/// instruction on x86-64 CPUs that have it, otherwise (or under
/// DHNSW_FORCE_SCALAR) the table-driven Crc32cPortable.
uint32_t Crc32c(std::span<const uint8_t> data, uint32_t seed = 0) noexcept;

/// Table-driven reference implementation — the parity oracle for tests and
/// benchmarks. Production code calls Crc32c.
uint32_t Crc32cPortable(std::span<const uint8_t> data, uint32_t seed = 0) noexcept;

/// Name of the implementation Crc32c dispatches to: "sse4.2" or "table".
const char* Crc32cImplementation() noexcept;

}  // namespace dhnsw
