#include "crypto/xts.h"

#include <gtest/gtest.h>

#include "oracle/xts.h"
#include "util/rng.h"

namespace vde::crypto {
namespace {

// The oracle behind XtsCipher's shape, so a property test can run on both.
class OracleXts {
 public:
  explicit OracleXts(ByteSpan key) : key_(key.begin(), key.end()) {}
  void Encrypt(ByteSpan tweak16, ByteSpan in, MutByteSpan out) const {
    oracle::XtsEncrypt(key_, tweak16, in, out);
  }
  void Decrypt(ByteSpan tweak16, ByteSpan in, MutByteSpan out) const {
    oracle::XtsDecrypt(key_, tweak16, in, out);
  }

 private:
  Bytes key_;
};

// Runs `check` on the production cipher and on the oracle, both keyed with
// `key`, each under its own trace.
template <typename Check>
void ForEachXts(ByteSpan key, Check check) {
  {
    SCOPED_TRACE("production");
    check(XtsCipher(key));
  }
  {
    SCOPED_TRACE("oracle");
    check(OracleXts(key));
  }
}

// XTS-AES-128 Vector 1: all-zero keys, tweak 0, 32 zero bytes. OpenSSL
// refuses a key whose halves are equal, so only the oracle can run it; the
// cross-checks below tie the production cipher to the oracle.
TEST(Xts, Ieee1619Vector1) {
  const Bytes key(32, 0x00);
  const Bytes tweak(16, 0x00);
  const Bytes pt(32, 0x00);
  const OracleXts xts(key);
  Bytes ct(32);
  xts.Encrypt(tweak, pt, ct);
  EXPECT_EQ(ToHex(ct),
            "917cf69ebd68b2ec9b9fe9a3eadda692cd43d2f59598ed858c02c2652fbf922e");
  Bytes back(32);
  xts.Decrypt(tweak, ct, back);
  EXPECT_EQ(back, pt);
}

// XTS-AES-128 Vector 2: distinct keys, so both ciphers run it.
TEST(Xts, Ieee1619Vector2) {
  const Bytes key = FromHex(
      "11111111111111111111111111111111"
      "22222222222222222222222222222222");
  const Bytes tweak = FromHex("33333333330000000000000000000000");
  const Bytes pt(32, 0x44);
  ForEachXts(key, [&](const auto& xts) {
    Bytes ct(32);
    xts.Encrypt(tweak, pt, ct);
    EXPECT_EQ(
        ToHex(ct),
        "c454185e6a16936e39334038acef838bfb186fff7480adc4289382ecd6d394f0");
    Bytes back(32);
    xts.Decrypt(tweak, ct, back);
    EXPECT_EQ(back, pt);
  });
}

TEST(Xts, MulAlphaKnownValues) {
  uint8_t t[16] = {};
  t[0] = 0x01;
  oracle::XtsMulAlpha(t);
  EXPECT_EQ(t[0], 0x02);
  // High bit of byte 15 wraps to the reduction polynomial 0x87 in byte 0.
  uint8_t u[16] = {};
  u[15] = 0x80;
  oracle::XtsMulAlpha(u);
  EXPECT_EQ(u[0], 0x87);
  EXPECT_EQ(u[15], 0x00);
}

class XtsCross : public ::testing::TestWithParam<size_t> {};

TEST_P(XtsCross, OracleMatchesProductionRandom) {
  const size_t key_size = GetParam();
  Rng rng(0x7157 + key_size);
  for (int trial = 0; trial < 20; ++trial) {
    // OpenSSL rejects key1 == key2; random keys are always distinct.
    const Bytes key = rng.RandomBytes(key_size);
    const OracleXts soft(key);
    const XtsCipher evp(key);
    const Bytes tweak = rng.RandomBytes(16);
    const size_t len = 16 * rng.NextInRange(1, 32);
    const Bytes pt = rng.RandomBytes(len);
    Bytes a(len), b(len);
    soft.Encrypt(tweak, pt, a);
    evp.Encrypt(tweak, pt, b);
    ASSERT_EQ(ToHex(a), ToHex(b)) << "len=" << len;
    Bytes da(len), db(len);
    soft.Decrypt(tweak, a, da);
    evp.Decrypt(tweak, b, db);
    ASSERT_EQ(da, pt);
    ASSERT_EQ(db, pt);
  }
}

TEST_P(XtsCross, CiphertextStealingCrossValidates) {
  const size_t key_size = GetParam();
  Rng rng(0xC75 + key_size);
  for (size_t len = 17; len <= 67; ++len) {
    if (len % 16 == 0) continue;
    const Bytes key = rng.RandomBytes(key_size);
    const OracleXts soft(key);
    const XtsCipher evp(key);
    const Bytes tweak = rng.RandomBytes(16);
    const Bytes pt = rng.RandomBytes(len);
    Bytes a(len), b(len);
    soft.Encrypt(tweak, pt, a);
    evp.Encrypt(tweak, pt, b);
    ASSERT_EQ(ToHex(a), ToHex(b)) << "len=" << len;
    Bytes back(len), evp_back(len);
    soft.Decrypt(tweak, a, back);
    evp.Decrypt(tweak, b, evp_back);
    ASSERT_EQ(back, pt) << "len=" << len;
    ASSERT_EQ(evp_back, pt) << "len=" << len;
  }
}

INSTANTIATE_TEST_SUITE_P(KeySizes, XtsCross,
                         ::testing::Values(size_t{32}, size_t{64}),
                         [](const auto& info) {
                           return "Xts" + std::to_string(info.param * 4);
                         });

TEST(Xts, SectorRoundtripInPlace) {
  Rng rng(77);
  const Bytes key = rng.RandomBytes(64);
  const Bytes tweak = rng.RandomBytes(16);
  const Bytes orig = rng.RandomBytes(4096);
  ForEachXts(key, [&](const auto& xts) {
    Bytes buf = orig;
    xts.Encrypt(tweak, buf, buf);
    EXPECT_NE(buf, orig);
    xts.Decrypt(tweak, buf, buf);
    EXPECT_EQ(buf, orig);
  });
}

TEST(Xts, NarrowBlockLeakage) {
  // The paper's §2.1 observation: with the SAME tweak, changing one 16-byte
  // sub-block leaves all other ciphertext sub-blocks identical — an
  // eavesdropper sees exactly which sub-block changed.
  Rng rng(88);
  const Bytes key = rng.RandomBytes(64);
  const XtsCipher xts(key);
  const Bytes tweak = rng.RandomBytes(16);
  Bytes pt = rng.RandomBytes(4096);
  Bytes c0(4096), c1(4096);
  xts.Encrypt(tweak, pt, c0);
  pt[37 * 16 + 3] ^= 0xff;  // mutate sub-block 37 only
  xts.Encrypt(tweak, pt, c1);
  for (size_t blk = 0; blk < 256; ++blk) {
    const bool same = std::equal(c0.begin() + blk * 16, c0.begin() + blk * 16 + 16,
                                 c1.begin() + blk * 16);
    EXPECT_EQ(same, blk != 37) << "sub-block " << blk;
  }
}

TEST(Xts, FreshTweakHidesLocality) {
  // With a FRESH random tweak (the paper's scheme) every sub-block changes.
  Rng rng(89);
  const Bytes key = rng.RandomBytes(64);
  const XtsCipher xts(key);
  Bytes pt = rng.RandomBytes(4096);
  Bytes c0(4096), c1(4096);
  xts.Encrypt(rng.RandomBytes(16), pt, c0);
  pt[37 * 16 + 3] ^= 0xff;
  xts.Encrypt(rng.RandomBytes(16), pt, c1);
  int identical_blocks = 0;
  for (size_t blk = 0; blk < 256; ++blk) {
    if (std::equal(c0.begin() + blk * 16, c0.begin() + blk * 16 + 16,
                   c1.begin() + blk * 16)) {
      identical_blocks++;
    }
  }
  EXPECT_EQ(identical_blocks, 0);
}

TEST(Xts, MixAndMatchForgeryIsWellFormed) {
  // §2.1: an attacker can splice sub-blocks of two ciphertext versions of
  // the same sector (same tweak) and the result decrypts to a plaintext that
  // mixes both versions — undetectable without a MAC.
  Rng rng(90);
  const Bytes key = rng.RandomBytes(64);
  const XtsCipher xts(key);
  const Bytes tweak = rng.RandomBytes(16);
  const Bytes v1 = rng.RandomBytes(4096);
  const Bytes v2 = rng.RandomBytes(4096);
  Bytes c1(4096), c2(4096);
  xts.Encrypt(tweak, v1, c1);
  xts.Encrypt(tweak, v2, c2);
  // Forge: first half from v1's ciphertext, second half from v2's.
  Bytes forged = c1;
  std::copy(c2.begin() + 2048, c2.end(), forged.begin() + 2048);
  Bytes decrypted(4096);
  xts.Decrypt(tweak, forged, decrypted);
  EXPECT_TRUE(std::equal(decrypted.begin(), decrypted.begin() + 2048,
                         v1.begin()));
  EXPECT_TRUE(std::equal(decrypted.begin() + 2048, decrypted.end(),
                         v2.begin() + 2048));
}

TEST(Xts, TweakSensitivity) {
  Rng rng(91);
  const Bytes key = rng.RandomBytes(64);
  const Bytes pt = rng.RandomBytes(64);
  const Bytes t1 = rng.RandomBytes(16);
  Bytes t2 = t1;
  t2[15] ^= 0x01;
  ForEachXts(key, [&](const auto& xts) {
    Bytes c1(64), c2(64);
    xts.Encrypt(t1, pt, c1);
    xts.Encrypt(t2, pt, c2);
    EXPECT_NE(ToHex(c1), ToHex(c2));
  });
}

// A key OpenSSL refuses (equal halves) or a unit under one AES block stops
// the process in every build type: an unchecked failure would leave the
// buffer as plaintext and report nothing.
TEST(XtsDeathTest, EqualKeyHalvesAbort) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        const XtsCipher xts(Bytes(64, 0x11));
        Bytes buf(4096, 0x5A);
        xts.Encrypt(Bytes(16, 0x00), buf, buf);
      },
      "XTS key setup");
}

TEST(XtsDeathTest, BadKeySizeAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH({ const XtsCipher xts(Bytes(48, 0x11)); }, "XTS key size");
}

TEST(XtsDeathTest, UnitUnderOneBlockAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Rng rng(92);
  const XtsCipher xts(rng.RandomBytes(64));
  Bytes buf(15, 0x5A);
  EXPECT_DEATH(xts.Encrypt(Bytes(16, 0x00), buf, buf), "XTS crypt");
}

}  // namespace
}  // namespace vde::crypto
