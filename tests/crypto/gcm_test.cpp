#include "crypto/gcm.h"

#include <gtest/gtest.h>
#include <openssl/evp.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/rng.h"

namespace vde::crypto {
namespace {

constexpr Backend kBackends[] = {Backend::kSoft, Backend::kOpenssl};

const char* BackendName(Backend b) {
  return b == Backend::kSoft ? "soft" : "openssl";
}

bool AllZero(const Bytes& b) {
  return std::all_of(b.begin(), b.end(), [](uint8_t x) { return x == 0; });
}

// Opens with `out` pre-filled with junk and checks the failure contract:
// false, and `out` zeroed, never partial plaintext. EVP decrypts before it
// checks the tag, so the wipe is the cipher's job, not the caller's.
void ExpectOpenFailsAndZeroes(const GcmCipher& gcm, ByteSpan iv, ByteSpan aad,
                              ByteSpan ct, ByteSpan tag) {
  Bytes back(ct.size(), 0xAA);
  EXPECT_FALSE(gcm.Open(iv, aad, ct, back, tag));
  EXPECT_TRUE(AllZero(back));
}

// NIST GCM spec test case 1: empty plaintext, zero key/IV.
TEST(Gcm, NistCase1EmptyPlaintext) {
  const Bytes key(16, 0x00);
  const Bytes iv(12, 0x00);
  for (const Backend backend : kBackends) {
    SCOPED_TRACE(BackendName(backend));
    GcmCipher gcm(backend, key);
    Bytes tag(16);
    gcm.Seal(iv, {}, {}, {}, tag);
    EXPECT_EQ(ToHex(tag), "58e2fccefa7e3061367f1d57a4e7455a");
    EXPECT_TRUE(gcm.Open(iv, {}, {}, {}, tag));
    tag[15] ^= 0x01;
    EXPECT_FALSE(gcm.Open(iv, {}, {}, {}, tag));
  }
}

// NIST GCM spec test case 2: 16 zero bytes.
TEST(Gcm, NistCase2SingleBlock) {
  const Bytes key(16, 0x00);
  const Bytes iv(12, 0x00);
  const Bytes pt(16, 0x00);
  for (const Backend backend : kBackends) {
    SCOPED_TRACE(BackendName(backend));
    GcmCipher gcm(backend, key);
    Bytes ct(16), tag(16);
    gcm.Seal(iv, {}, pt, ct, tag);
    EXPECT_EQ(ToHex(ct), "0388dace60b6a392f328c2b971b2fe78");
    EXPECT_EQ(ToHex(tag), "ab6e47d42cec13bdf53a67b21257bddf");
    Bytes back(16, 0xAA);
    ASSERT_TRUE(gcm.Open(iv, {}, ct, back, tag));
    EXPECT_EQ(back, pt);
  }
}

TEST(Gcm, RoundtripWithAad) {
  Rng rng(60);
  const Bytes key = rng.RandomBytes(32);
  const Bytes iv = rng.RandomBytes(12);
  const Bytes aad = rng.RandomBytes(20);
  const Bytes pt = rng.RandomBytes(4096);
  for (const Backend backend : kBackends) {
    SCOPED_TRACE(BackendName(backend));
    GcmCipher gcm(backend, key);
    Bytes ct(pt.size()), tag(16);
    gcm.Seal(iv, aad, pt, ct, tag);
    Bytes back(pt.size());
    ASSERT_TRUE(gcm.Open(iv, aad, ct, back, tag));
    EXPECT_EQ(back, pt);
  }
}

TEST(Gcm, TamperedCiphertextRejected) {
  Rng rng(61);
  const Bytes key = rng.RandomBytes(32);
  const Bytes iv = rng.RandomBytes(12);
  const Bytes pt = rng.RandomBytes(128);
  for (const Backend backend : kBackends) {
    SCOPED_TRACE(BackendName(backend));
    GcmCipher gcm(backend, key);
    Bytes ct(pt.size()), tag(16);
    gcm.Seal(iv, {}, pt, ct, tag);
    ct[50] ^= 0x01;
    ExpectOpenFailsAndZeroes(gcm, iv, {}, ct, tag);
  }
}

TEST(Gcm, TamperedTagRejected) {
  Rng rng(62);
  const Bytes key = rng.RandomBytes(16);
  const Bytes iv = rng.RandomBytes(12);
  const Bytes pt = rng.RandomBytes(64);
  for (const Backend backend : kBackends) {
    SCOPED_TRACE(BackendName(backend));
    GcmCipher gcm(backend, key);
    Bytes ct(pt.size()), tag(16);
    gcm.Seal(iv, {}, pt, ct, tag);
    tag[0] ^= 0x80;
    ExpectOpenFailsAndZeroes(gcm, iv, {}, ct, tag);
  }
}

TEST(Gcm, TamperedAadRejected) {
  Rng rng(63);
  const Bytes key = rng.RandomBytes(16);
  const Bytes iv = rng.RandomBytes(12);
  const Bytes pt = rng.RandomBytes(64);
  for (const Backend backend : kBackends) {
    SCOPED_TRACE(BackendName(backend));
    Bytes aad = rng.RandomBytes(16);
    GcmCipher gcm(backend, key);
    Bytes ct(pt.size()), tag(16);
    gcm.Seal(iv, aad, pt, ct, tag);
    aad[3] ^= 0x01;
    ExpectOpenFailsAndZeroes(gcm, iv, aad, ct, tag);
  }
}

// Cross-validate the soft reference against a one-shot OpenSSL GCM context.
TEST(Gcm, MatchesOpensslEvp) {
  Rng rng(64);
  for (int trial = 0; trial < 10; ++trial) {
    const Bytes key = rng.RandomBytes(32);
    const Bytes iv = rng.RandomBytes(12);
    const Bytes aad = rng.RandomBytes(rng.NextBelow(48));
    const Bytes pt = rng.RandomBytes(1 + rng.NextBelow(1024));

    GcmCipher ours(Backend::kSoft, key);
    Bytes our_ct(pt.size()), our_tag(16);
    ours.Seal(iv, aad, pt, our_ct, our_tag);

    EVP_CIPHER_CTX* ctx = EVP_CIPHER_CTX_new();
    ASSERT_TRUE(ctx);
    ASSERT_EQ(EVP_EncryptInit_ex(ctx, EVP_aes_256_gcm(), nullptr, key.data(),
                                 iv.data()),
              1);
    int len = 0;
    if (!aad.empty()) {
      ASSERT_EQ(EVP_EncryptUpdate(ctx, nullptr, &len, aad.data(),
                                  static_cast<int>(aad.size())),
                1);
    }
    Bytes evp_ct(pt.size());
    ASSERT_EQ(EVP_EncryptUpdate(ctx, evp_ct.data(), &len, pt.data(),
                                static_cast<int>(pt.size())),
              1);
    int fin = 0;
    ASSERT_EQ(EVP_EncryptFinal_ex(ctx, evp_ct.data() + len, &fin), 1);
    Bytes evp_tag(16);
    ASSERT_EQ(EVP_CIPHER_CTX_ctrl(ctx, EVP_CTRL_GCM_GET_TAG, 16,
                                  evp_tag.data()),
              1);
    EVP_CIPHER_CTX_free(ctx);

    ASSERT_EQ(ToHex(our_ct), ToHex(evp_ct)) << "trial " << trial;
    ASSERT_EQ(ToHex(our_tag), ToHex(evp_tag)) << "trial " << trial;
  }
}

// The EVP backend against the soft reference over the shapes the formats
// use (8 B LBA AAD, 11 B LBA+compression-header AAD) and every AAD length
// up to three blocks, plaintexts from empty to a full 4 KiB block with the
// ragged tails in between. Seal and Open interleave on one object per
// backend, so the reused EVP contexts see a fresh IV on every call and a
// failed Open between two good ones.
TEST(Gcm, OpensslMatchesSoftReference) {
  std::vector<size_t> pt_lens;
  for (size_t n = 0; n <= 48; ++n) pt_lens.push_back(n);
  for (const size_t n : {63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 512,
                         513, 1000, 2047, 2048, 2049, 4000, 4080, 4095,
                         4096}) {
    pt_lens.push_back(n);
  }
  Rng rng(66);
  for (const size_t key_len : {16, 32}) {
    SCOPED_TRACE("key " + std::to_string(key_len));
    const Bytes key = rng.RandomBytes(key_len);
    GcmCipher soft(Backend::kSoft, key);
    GcmCipher evp(Backend::kOpenssl, key);
    for (size_t aad_len = 0; aad_len <= 48; ++aad_len) {
      const Bytes aad = rng.RandomBytes(aad_len);
      // The two format AAD shapes meet every plaintext length; the other
      // AAD lengths meet a rotating slice of them (13 is coprime to the
      // list size, so the slices together cover it many times over).
      const size_t rounds =
          aad_len == 8 || aad_len == 11 ? pt_lens.size() : 12;
      for (size_t k = 0; k < rounds; ++k) {
        const size_t pt_len = pt_lens[(aad_len * 7 + k * 13) % pt_lens.size()];
        SCOPED_TRACE("aad " + std::to_string(aad_len) + " pt " +
                     std::to_string(pt_len));
        const Bytes iv = rng.RandomBytes(kGcmIvSize);
        const Bytes pt = rng.RandomBytes(pt_len);

        Bytes soft_ct(pt_len), soft_tag(16), evp_ct(pt_len), evp_tag(16);
        soft.Seal(iv, aad, pt, soft_ct, soft_tag);
        evp.Seal(iv, aad, pt, evp_ct, evp_tag);
        ASSERT_EQ(ToHex(evp_ct), ToHex(soft_ct));
        ASSERT_EQ(ToHex(evp_tag), ToHex(soft_tag));

        Bytes back(pt_len, 0xAA);
        ASSERT_TRUE(evp.Open(iv, aad, soft_ct, back, soft_tag));
        ASSERT_EQ(back, pt);
        std::fill(back.begin(), back.end(), 0xAA);
        ASSERT_TRUE(soft.Open(iv, aad, evp_ct, back, evp_tag));
        ASSERT_EQ(back, pt);

        // A wrong tag on the same context: rejected and wiped, and the
        // next call (a Seal under a new IV) is unaffected.
        Bytes bad_tag = evp_tag;
        bad_tag[(aad_len + pt_len) % kGcmTagSize] ^= 0x04;
        ExpectOpenFailsAndZeroes(evp, iv, aad, evp_ct, bad_tag);
        ExpectOpenFailsAndZeroes(soft, iv, aad, evp_ct, bad_tag);
        if (!aad.empty()) {
          Bytes bad_aad = aad;
          bad_aad.back() ^= 0x01;
          ExpectOpenFailsAndZeroes(evp, iv, bad_aad, evp_ct, evp_tag);
        }
      }
    }
  }
}

TEST(Gcm, IvReuseLeaksXorOfPlaintexts) {
  // Why GCM REQUIRES the true-nonce IV the paper's metadata provides:
  // reusing an IV leaks pt1 XOR pt2 directly (CTR keystream cancels).
  Rng rng(65);
  const Bytes key = rng.RandomBytes(32);
  const Bytes iv = rng.RandomBytes(12);
  const Bytes p1 = rng.RandomBytes(64);
  const Bytes p2 = rng.RandomBytes(64);
  for (const Backend backend : kBackends) {
    SCOPED_TRACE(BackendName(backend));
    GcmCipher gcm(backend, key);
    Bytes c1(64), c2(64), t1(16), t2(16);
    gcm.Seal(iv, {}, p1, c1, t1);
    gcm.Seal(iv, {}, p2, c2, t2);
    for (size_t i = 0; i < 64; ++i) {
      EXPECT_EQ(c1[i] ^ c2[i], p1[i] ^ p2[i]);
    }
  }
}

}  // namespace
}  // namespace vde::crypto
