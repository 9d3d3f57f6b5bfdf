#include "util/crc32.h"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace vde {

namespace {
// Slice-by-8 tables for CRC32-C, polynomial 0x1EDC6F41 (reflected:
// 0x82F63B78). Table 0 is the classic bytewise table; table k advances a
// byte through k further zero bytes, so eight bytes fold in per step.
using Tables = std::array<std::array<uint32_t, 256>, 8>;
constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}
constexpr Tables kTables = MakeTables();

uint64_t LoadWordLe(const uint8_t* p) {
  if constexpr (std::endian::native == std::endian::little) {
    uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    return w;
  } else {
    return LoadU64Le(p);
  }
}
}  // namespace

uint32_t Crc32cSliceBy8(ByteSpan data, uint32_t init) {
  uint32_t c = init ^ 0xFFFFFFFFu;
  const uint8_t* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const uint64_t w = LoadWordLe(p) ^ c;
    c = kTables[7][w & 0xFF] ^ kTables[6][(w >> 8) & 0xFF] ^
        kTables[5][(w >> 16) & 0xFF] ^ kTables[4][(w >> 24) & 0xFF] ^
        kTables[3][(w >> 32) & 0xFF] ^ kTables[2][(w >> 40) & 0xFF] ^
        kTables[1][(w >> 48) & 0xFF] ^ kTables[0][w >> 56];
  }
  for (; n > 0; ++p, --n) c = kTables[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(ByteSpan data,
                                                           uint32_t init) {
  uint64_t c = init ^ 0xFFFFFFFFu;
  const uint8_t* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) c = _mm_crc32_u64(c, LoadWordLe(p));
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return c32 ^ 0xFFFFFFFFu;
}

bool Crc32cHardwareAvailable() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}
#else
uint32_t Crc32cHardware(ByteSpan data, uint32_t init) {
  return Crc32cSliceBy8(data, init);
}

bool Crc32cHardwareAvailable() { return false; }
#endif

uint32_t Crc32c(ByteSpan data, uint32_t init) {
  static const auto impl =
      Crc32cHardwareAvailable() ? &Crc32cHardware : &Crc32cSliceBy8;
  return impl(data, init);
}

}  // namespace vde
