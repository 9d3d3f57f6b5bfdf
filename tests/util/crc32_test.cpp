#include "util/crc32.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "util/rng.h"

namespace vde {
namespace {

// Bytewise bit-at-a-time CRC32-C: the reference both fast paths must match.
uint32_t ReferenceCrc32c(ByteSpan data, uint32_t init = 0) {
  uint32_t c = init ^ 0xFFFFFFFFu;
  for (uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

using Crc32cFn = uint32_t (*)(ByteSpan, uint32_t);

// Every dispatch path this CPU can run, by name.
std::vector<std::pair<const char*, Crc32cFn>> Paths() {
  std::vector<std::pair<const char*, Crc32cFn>> paths = {
      {"dispatched", &Crc32c}, {"slice-by-8", &Crc32cSliceBy8}};
  if (Crc32cHardwareAvailable()) paths.emplace_back("sse4.2", &Crc32cHardware);
  return paths;
}

TEST(Crc32c, KnownCheckValue) {
  // The canonical CRC32-C check value for "123456789" (RFC 3720 B.4), on
  // the reference and every dispatch path.
  const Bytes data = BytesOf("123456789");
  EXPECT_EQ(ReferenceCrc32c(data), 0xE3069283u);
  for (const auto& [name, fn] : Paths()) {
    EXPECT_EQ(fn(data, 0), 0xE3069283u) << name;
  }
}

TEST(Crc32c, PathsMatchReferenceOverLengthsAndMisalignments) {
  Rng rng(11);
  const Bytes buf = rng.RandomBytes(1100 + 8);
  for (const auto& [name, fn] : Paths()) {
    for (size_t misalign = 0; misalign < 8; ++misalign) {
      for (size_t len = 0; len <= 1100; ++len) {
        const ByteSpan span(buf.data() + misalign, len);
        ASSERT_EQ(fn(span, 0), ReferenceCrc32c(span))
            << name << " len=" << len << " misalign=" << misalign;
      }
    }
  }
}

TEST(Crc32c, PathsMatchReferenceWithChainedInit) {
  Rng rng(12);
  const Bytes buf = rng.RandomBytes(1100);
  const uint32_t inits[] = {0u, 1u, 0xE3069283u, 0xFFFFFFFFu, 0x12345678u};
  for (const auto& [name, fn] : Paths()) {
    for (uint32_t init : inits) {
      for (size_t len : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u, 1099u, 1100u}) {
        const ByteSpan span(buf.data(), len);
        EXPECT_EQ(fn(span, init), ReferenceCrc32c(span, init))
            << name << " len=" << len << " init=" << init;
      }
    }
    // Chaining: splitting the buffer anywhere gives the one-shot value.
    const uint32_t whole = ReferenceCrc32c(buf);
    for (size_t cut = 0; cut <= buf.size(); cut += 37) {
      const uint32_t head = fn(ByteSpan(buf.data(), cut), 0);
      EXPECT_EQ(fn(ByteSpan(buf.data() + cut, buf.size() - cut), head), whole)
          << name << " cut=" << cut;
    }
  }
}

TEST(Crc32c, EmptyIsZero) {
  EXPECT_EQ(Crc32c({}), 0u);
}

TEST(Crc32c, AllZeros32) {
  // Well-known vector: 32 bytes of 0x00 -> 0x8A9136AA.
  const Bytes data(32, 0x00);
  EXPECT_EQ(Crc32c(data), 0x8A9136AAu);
}

TEST(Crc32c, AllOnes32) {
  // Well-known vector: 32 bytes of 0xFF -> 0x62A8AB43.
  const Bytes data(32, 0xFF);
  EXPECT_EQ(Crc32c(data), 0x62A8AB43u);
}

TEST(Crc32c, SensitiveToSingleBit) {
  Bytes data(64, 0xAB);
  const uint32_t base = Crc32c(data);
  data[17] ^= 0x01;
  EXPECT_NE(Crc32c(data), base);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  const Bytes data = BytesOf("hello incremental crc world");
  const uint32_t whole = Crc32c(data);
  // Note: our continuation takes the previous CRC as init.
  const uint32_t part1 = Crc32c(ByteSpan(data.data(), 5));
  const uint32_t combined = Crc32c(ByteSpan(data.data() + 5, data.size() - 5), part1);
  EXPECT_EQ(combined, whole);
}

}  // namespace
}  // namespace vde
