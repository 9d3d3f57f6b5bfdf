#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/hmac.h"
#include "util/rng.h"

namespace vde::crypto {
namespace {

std::string HmacHex(ByteSpan key, ByteSpan data) {
  const auto d = HmacSha256(key, data);
  return ToHex(ByteSpan(d.data(), d.size()));
}

// RFC 4231 test vectors.
TEST(HmacSha256, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(HmacHex(key, BytesOf("Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  EXPECT_EQ(HmacHex(BytesOf("Jefe"), BytesOf("what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(HmacHex(key, data),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, Rfc4231Case4) {
  Bytes key(25);
  for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<uint8_t>(i + 1);
  const Bytes data(50, 0xcd);
  EXPECT_EQ(HmacHex(key, data),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(HmacSha256, Rfc4231Case5TruncatedTag) {
  // The RFC publishes only the leading 128 bits of this tag.
  const Bytes key(20, 0x0c);
  const auto tag = HmacSha256(key, BytesOf("Test With Truncation"));
  EXPECT_EQ(ToHex(ByteSpan(tag.data(), 16)),
            "a3b6167473100ee06e0c796c2955552b");
}

TEST(HmacSha256, LongKeyIsHashed) {
  // RFC 4231 case 6: 131-byte key.
  const Bytes key(131, 0xaa);
  EXPECT_EQ(HmacHex(key, BytesOf("Test Using Larger Than Block-Size Key - "
                                 "Hash Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, Rfc4231Case7LongKeyAndData) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(HmacHex(key, BytesOf("This is a test using a larger than "
                                 "block-size key and a larger than "
                                 "block-size data. The key needs to be "
                                 "hashed before being used by the HMAC "
                                 "algorithm.")),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

// Two live streams fed in alternation: each owns its digest contexts, and
// the digest method they share is only read, so neither sees the other's
// bytes.
TEST(HmacSha256, InterleavedStreamsStayIndependent) {
  const Bytes key1(20, 0x0b);
  const Bytes key2(131, 0xaa);
  const Bytes msg1 = BytesOf("Hi There");
  const Bytes msg2 =
      BytesOf("Test Using Larger Than Block-Size Key - Hash Key First");
  HmacSha256Stream h1(key1);
  HmacSha256Stream h2(key2);
  for (size_t i = 0; i < std::max(msg1.size(), msg2.size()); ++i) {
    if (i < msg1.size()) h1.Update(ByteSpan(msg1.data() + i, 1));
    if (i < msg2.size()) h2.Update(ByteSpan(msg2.data() + i, 1));
  }
  const auto t2 = h2.Finish();
  const auto t1 = h1.Finish();
  EXPECT_EQ(ToHex(t1),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  EXPECT_EQ(ToHex(t2),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, StreamingMatchesOneShot) {
  Rng rng(55);
  const Bytes key = rng.RandomBytes(32);
  const Bytes data = rng.RandomBytes(300);
  HmacSha256Stream h(key);
  h.Update(ByteSpan(data.data(), 100));
  h.Update(ByteSpan(data.data() + 100, 200));
  const auto streamed = h.Finish();
  const auto oneshot = HmacSha256(key, data);
  EXPECT_EQ(ToHex(streamed), ToHex(oneshot));
}

TEST(HmacSha256, KeySensitivity) {
  Rng rng(56);
  const Bytes data = rng.RandomBytes(64);
  Bytes key = rng.RandomBytes(32);
  const auto a = HmacSha256(key, data);
  key[0] ^= 1;
  const auto b = HmacSha256(key, data);
  EXPECT_NE(ToHex(a), ToHex(b));
}

// RFC 7914 §11 PBKDF2-HMAC-SHA256 vectors.
TEST(Pbkdf2, Rfc7914Iter1) {
  Bytes out(64);
  Pbkdf2HmacSha256(BytesOf("passwd"), BytesOf("salt"), 1, out);
  EXPECT_EQ(ToHex(out),
            "55ac046e56e3089fec1691c22544b605f94185216dde0465e68b9d57c20dacbc"
            "49ca9cccf179b645991664b39d77ef317c71b845b1e30bd509112041d3a19783");
}

TEST(Pbkdf2, Rfc7914Iter80000) {
  Bytes out(64);
  Pbkdf2HmacSha256(BytesOf("Password"), BytesOf("NaCl"), 80000, out);
  EXPECT_EQ(ToHex(out),
            "4ddcd8f60b98be21830cee5ef22701f9641a4418d04c0414aeff08876b34ab56"
            "a1d425a1225833549adb841b51c9b3176a272bdebba1d078478f62b397f33c8d");
}

TEST(Pbkdf2, MoreIterationsChangeOutput) {
  Bytes a(32), b(32);
  Pbkdf2HmacSha256(BytesOf("pw"), BytesOf("salt"), 1, a);
  Pbkdf2HmacSha256(BytesOf("pw"), BytesOf("salt"), 2, b);
  EXPECT_NE(ToHex(a), ToHex(b));
}

TEST(Pbkdf2, OutputLengthSpansBlocks) {
  // 40 bytes requires two HMAC blocks; prefix must match the 32-byte run.
  Bytes short_out(32), long_out(40);
  Pbkdf2HmacSha256(BytesOf("pw"), BytesOf("salt"), 10, short_out);
  Pbkdf2HmacSha256(BytesOf("pw"), BytesOf("salt"), 10, long_out);
  EXPECT_EQ(ToHex(short_out), ToHex(ByteSpan(long_out.data(), 32)));
}

// RFC 5869 test case 1.
TEST(Hkdf, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = FromHex("000102030405060708090a0b0c");
  const Bytes info = FromHex("f0f1f2f3f4f5f6f7f8f9");
  Bytes out(42);
  HkdfSha256(ikm, salt, info, out);
  EXPECT_EQ(ToHex(out),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, EmptySaltWorks) {
  Bytes out(32);
  HkdfSha256(BytesOf("input key material"), {}, BytesOf("ctx"), out);
  EXPECT_NE(ToHex(out), std::string(64, '0'));
}

TEST(Hkdf, InfoSeparatesOutputs) {
  Bytes a(32), b(32);
  HkdfSha256(BytesOf("ikm"), BytesOf("salt"), BytesOf("context-a"), a);
  HkdfSha256(BytesOf("ikm"), BytesOf("salt"), BytesOf("context-b"), b);
  EXPECT_NE(ToHex(a), ToHex(b));
}

}  // namespace
}  // namespace vde::crypto
