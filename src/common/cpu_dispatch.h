// Process-wide switch shared by every runtime-dispatched kernel (distance
// kernels, CRC-32C): `DHNSW_FORCE_SCALAR` set to anything but "" or "0" pins
// the portable implementation so CI can exercise it on any CPU.
#pragma once

#include <cstdlib>

namespace dhnsw {

inline bool ForceScalarFromEnv() noexcept {
  const char* env = std::getenv("DHNSW_FORCE_SCALAR");
  return env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
}

}  // namespace dhnsw
