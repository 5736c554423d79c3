#include "common/crc32.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string_view>
#include <vector>

#include "common/cpu_dispatch.h"
#include "common/rng.h"

namespace dhnsw {
namespace {

std::span<const uint8_t> Bytes(std::string_view s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

// The known-answer tests check the dispatched path (whatever this CPU
// selects) and the table-driven reference alike.
TEST(Crc32cTest, KnownVector) {
  // The canonical CRC-32C check value: crc32c("123456789") == 0xE3069283.
  EXPECT_EQ(Crc32c(Bytes("123456789")), 0xE3069283u);
  EXPECT_EQ(Crc32cPortable(Bytes("123456789")), 0xE3069283u);
}

TEST(Crc32cTest, EmptyIsZero) {
  EXPECT_EQ(Crc32c({}), 0u);
  EXPECT_EQ(Crc32cPortable({}), 0u);
}

TEST(Crc32cTest, RfcTestVectors) {
  // From RFC 3720 (iSCSI) appendix B.4: 32 bytes of zeros, of ones, of
  // incrementing and of decrementing values.
  std::vector<uint8_t> zeros(32, 0x00), ones(32, 0xFF), inc(32), dec(32);
  for (uint8_t i = 0; i < 32; ++i) {
    inc[i] = i;
    dec[i] = static_cast<uint8_t>(31 - i);
  }
  for (auto crc : {&Crc32c, &Crc32cPortable}) {
    EXPECT_EQ(crc(zeros, 0), 0x8A9136AAu);
    EXPECT_EQ(crc(ones, 0), 0x62A8AB43u);
    EXPECT_EQ(crc(inc, 0), 0x46DD794Eu);
    EXPECT_EQ(crc(dec, 0), 0x113FDB5Cu);
  }
}

TEST(Crc32cDispatchTest, MatchesReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..4096 from start offsets 0..7 cover every head/tail split of
  // the 8-byte hardware loop.
  std::vector<uint8_t> buf(4096 + 8);
  Xoshiro256 rng(0xC3C);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 4096; ++len) {
      const auto data = std::span<const uint8_t>(buf).subspan(offset, len);
      ASSERT_EQ(Crc32c(data), Crc32cPortable(data)) << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32cDispatchTest, ChainedSeedsMatchOneShotAndReference) {
  std::vector<uint8_t> buf(1000);
  Xoshiro256 rng(0x5EED);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  const auto all = std::span<const uint8_t>(buf);
  const uint32_t one_shot = Crc32cPortable(all);
  for (size_t split : {0u, 1u, 7u, 8u, 9u, 500u, 999u, 1000u}) {
    const auto a = all.first(split);
    const auto b = all.subspan(split);
    EXPECT_EQ(Crc32c(b, Crc32c(a)), one_shot) << "split " << split;
    EXPECT_EQ(Crc32c(b, Crc32cPortable(a)), one_shot) << "split " << split;
    EXPECT_EQ(Crc32cPortable(b, Crc32c(a)), one_shot) << "split " << split;
  }
}

TEST(Crc32cDispatchTest, ForceScalarPinsTheTable) {
  const std::string impl = Crc32cImplementation();
  if (ForceScalarFromEnv()) {
    EXPECT_EQ(impl, "table");
  } else {
    EXPECT_TRUE(impl == "sse4.2" || impl == "table") << impl;
  }
}

TEST(Crc32cTest, SensitiveToSingleBitFlip) {
  std::vector<uint8_t> data(100, 0x5A);
  const uint32_t base = Crc32c(data);
  for (size_t byte : {0u, 50u, 99u}) {
    data[byte] ^= 0x01;
    EXPECT_NE(Crc32c(data), base) << "flip at byte " << byte;
    data[byte] ^= 0x01;
  }
  EXPECT_EQ(Crc32c(data), base);
}

TEST(Crc32cTest, SensitiveToReordering) {
  const uint32_t ab = Crc32c(Bytes("ab"));
  const uint32_t ba = Crc32c(Bytes("ba"));
  EXPECT_NE(ab, ba);
}

TEST(Crc32cTest, ChainingViaSeedEqualsOneShot) {
  const auto all = Bytes("hello, disaggregated world");
  const uint32_t one_shot = Crc32c(all);
  const uint32_t first = Crc32c(all.subspan(0, 10));
  const uint32_t chained = Crc32c(all.subspan(10), first);
  EXPECT_EQ(chained, one_shot);
}

}  // namespace
}  // namespace dhnsw
