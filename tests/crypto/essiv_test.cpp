#include <gtest/gtest.h>

#include <set>
#include <string>

#include "crypto/essiv.h"
#include "crypto/sha256.h"
#include "oracle/aes.h"
#include "util/rng.h"

namespace vde::crypto {
namespace {

TEST(Essiv, DeterministicPerSector) {
  Rng rng(47);
  const Bytes key = rng.RandomBytes(32);
  const Essiv essiv(key);
  uint8_t a[16], b[16];
  essiv.DeriveIv(1234, a);
  essiv.DeriveIv(1234, b);
  EXPECT_EQ(ToHex(ByteSpan(a, 16)), ToHex(ByteSpan(b, 16)));
}

TEST(Essiv, DistinctAcrossSectors) {
  Rng rng(48);
  const Bytes key = rng.RandomBytes(32);
  const Essiv essiv(key);
  std::set<std::string> seen;
  for (uint64_t s = 0; s < 500; ++s) {
    uint8_t iv[16];
    essiv.DeriveIv(s, iv);
    seen.insert(ToHex(ByteSpan(iv, 16)));
  }
  EXPECT_EQ(seen.size(), 500u);
}

TEST(Essiv, KeyedBySha256OfKey) {
  Rng rng(49);
  Bytes key = rng.RandomBytes(32);
  const Essiv a(key);
  key[0] ^= 1;
  const Essiv b(key);
  uint8_t ia[16], ib[16];
  a.DeriveIv(7, ia);
  b.DeriveIv(7, ib);
  EXPECT_NE(ToHex(ByteSpan(ia, 16)), ToHex(ByteSpan(ib, 16)));
}

// The definition, IV = AES_{SHA256(key)}(LE64(sector) || 0^64), checked
// against the oracle AES over sectors near zero and across the 32-bit
// boundary. The 64-byte XTS master key is the one kXtsEssiv passes.
TEST(Essiv, MatchesOracleAesUnderSha256OfKey) {
  Rng rng(50);
  const Bytes key = rng.RandomBytes(64);
  const Essiv essiv(key);
  const oracle::SoftAes reference(Sha256::Digest(key));
  for (uint64_t i = 0; i < 1000; ++i) {
    const uint64_t sector = i < 500 ? i : (uint64_t{1} << 32) - 500 + i;
    uint8_t got[16], block[16] = {}, want[16];
    essiv.DeriveIv(sector, got);
    StoreU64Le(block, sector);
    reference.EncryptBlock(block, want);
    ASSERT_EQ(ToHex(ByteSpan(got, 16)), ToHex(ByteSpan(want, 16)))
        << "sector " << sector;
  }
}

}  // namespace
}  // namespace vde::crypto
