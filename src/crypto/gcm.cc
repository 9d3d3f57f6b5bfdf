#include "crypto/gcm.h"

#include <openssl/evp.h>

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>

namespace vde::crypto {

// One context per direction, keyed once; every call re-arms it with a fresh
// IV (EVP's GCM default IV length is the 96 bits kGcmIvSize names).
struct GcmCipher::EvpState {
  EVP_CIPHER_CTX* enc = nullptr;
  EVP_CIPHER_CTX* dec = nullptr;

  ~EvpState() {
    if (enc) EVP_CIPHER_CTX_free(enc);
    if (dec) EVP_CIPHER_CTX_free(dec);
  }
};

namespace {

struct U128 {
  uint64_t hi = 0;  // bytes 0..7 big-endian
  uint64_t lo = 0;  // bytes 8..15
};

U128 Load(const uint8_t b[16]) {
  return {LoadU64Be(b), LoadU64Be(b + 8)};
}

void Store(const U128& v, uint8_t b[16]) {
  StoreU64Be(b, v.hi);
  StoreU64Be(b + 8, v.lo);
}

// GF(2^128) multiplication per SP 800-38D (bit-reflected convention).
U128 GfMul(U128 x, U128 y) {
  U128 z;
  U128 v = y;
  for (int i = 0; i < 128; ++i) {
    const bool bit = i < 64 ? (x.hi >> (63 - i)) & 1 : (x.lo >> (127 - i)) & 1;
    if (bit) {
      z.hi ^= v.hi;
      z.lo ^= v.lo;
    }
    const bool lsb = v.lo & 1;
    v.lo = (v.lo >> 1) | (v.hi << 63);
    v.hi >>= 1;
    if (lsb) v.hi ^= 0xe100000000000000ULL;
  }
  return z;
}

// EVP calls here fail only on allocation failure or a broken provider;
// neither leaves a usable cipher, so stop rather than emit wrong bytes.
void EvpCheck(bool ok) {
  if (!ok) std::abort();
}

void Inc32(uint8_t block[16]) {
  uint32_t ctr = LoadU32Be(block + 12);
  StoreU32Be(block + 12, ctr + 1);
}

}  // namespace

GcmCipher::GcmCipher(Backend backend, ByteSpan key) {
  assert((key.size() == 16 || key.size() == 32) && "AES-GCM key is 16 or 32");
  if (backend == Backend::kSoft) {
    cipher_ = MakeAes(backend, key);
    const uint8_t zero[16] = {};
    cipher_->EncryptBlock(zero, h_);
    return;
  }
  evp_ = std::make_unique<EvpState>();
  const EVP_CIPHER* cipher =
      key.size() == 16 ? EVP_aes_128_gcm() : EVP_aes_256_gcm();
  evp_->enc = EVP_CIPHER_CTX_new();
  evp_->dec = EVP_CIPHER_CTX_new();
  EvpCheck(evp_->enc != nullptr && evp_->dec != nullptr);
  EvpCheck(EVP_EncryptInit_ex(evp_->enc, cipher, nullptr, key.data(),
                              nullptr) == 1);
  EvpCheck(EVP_DecryptInit_ex(evp_->dec, cipher, nullptr, key.data(),
                              nullptr) == 1);
}

GcmCipher::~GcmCipher() = default;
GcmCipher::GcmCipher(GcmCipher&&) noexcept = default;
GcmCipher& GcmCipher::operator=(GcmCipher&&) noexcept = default;

void GcmCipher::Ctr(const uint8_t j0[16], ByteSpan in, MutByteSpan out) const {
  uint8_t counter[16];
  std::memcpy(counter, j0, 16);
  size_t off = 0;
  while (off < in.size()) {
    Inc32(counter);
    uint8_t ks[16];
    cipher_->EncryptBlock(counter, ks);
    const size_t take = std::min<size_t>(16, in.size() - off);
    for (size_t i = 0; i < take; ++i) out[off + i] = in[off + i] ^ ks[i];
    off += take;
  }
}

void GcmCipher::Ghash(ByteSpan aad, ByteSpan cipher, uint8_t out[16]) const {
  const U128 h = Load(h_);
  U128 y;
  auto absorb = [&](ByteSpan data) {
    size_t off = 0;
    while (off < data.size()) {
      uint8_t block[16] = {};
      const size_t take = std::min<size_t>(16, data.size() - off);
      std::memcpy(block, data.data() + off, take);
      const U128 x = Load(block);
      y.hi ^= x.hi;
      y.lo ^= x.lo;
      y = GfMul(y, h);
      off += take;
    }
  };
  absorb(aad);
  absorb(cipher);
  uint8_t lens[16];
  StoreU64Be(lens, aad.size() * 8);
  StoreU64Be(lens + 8, cipher.size() * 8);
  const U128 x = Load(lens);
  y.hi ^= x.hi;
  y.lo ^= x.lo;
  y = GfMul(y, h);
  Store(y, out);
}

void GcmCipher::SoftSeal(ByteSpan iv, ByteSpan aad, ByteSpan plain,
                         MutByteSpan out, MutByteSpan tag) const {
  uint8_t j0[16] = {};
  std::memcpy(j0, iv.data(), 12);
  j0[15] = 1;

  Ctr(j0, plain, out);

  uint8_t s[16];
  Ghash(aad, ByteSpan(out.data(), out.size()), s);
  uint8_t ek_j0[16];
  cipher_->EncryptBlock(j0, ek_j0);
  for (int i = 0; i < 16; ++i) tag[i] = s[i] ^ ek_j0[i];
}

bool GcmCipher::SoftOpen(ByteSpan iv, ByteSpan aad, ByteSpan cipher,
                         MutByteSpan out, ByteSpan tag) const {
  uint8_t j0[16] = {};
  std::memcpy(j0, iv.data(), 12);
  j0[15] = 1;

  uint8_t s[16];
  Ghash(aad, cipher, s);
  uint8_t ek_j0[16];
  cipher_->EncryptBlock(j0, ek_j0);
  uint8_t expect[16];
  for (int i = 0; i < 16; ++i) expect[i] = s[i] ^ ek_j0[i];
  if (!ConstantTimeEqual(ByteSpan(expect, 16), tag)) {
    std::fill(out.begin(), out.end(), 0);
    return false;
  }
  Ctr(j0, cipher, out);
  return true;
}

// Zero-length updates are skipped: an empty span may carry a null pointer.
void GcmCipher::EvpSeal(ByteSpan iv, ByteSpan aad, ByteSpan plain,
                        MutByteSpan out, MutByteSpan tag) const {
  EVP_CIPHER_CTX* ctx = evp_->enc;
  int len = 0;
  EvpCheck(EVP_EncryptInit_ex(ctx, nullptr, nullptr, nullptr, iv.data()) == 1);
  if (!aad.empty()) {
    EvpCheck(EVP_EncryptUpdate(ctx, nullptr, &len, aad.data(),
                               static_cast<int>(aad.size())) == 1);
  }
  if (!plain.empty()) {
    EvpCheck(EVP_EncryptUpdate(ctx, out.data(), &len, plain.data(),
                               static_cast<int>(plain.size())) == 1 &&
             len == static_cast<int>(plain.size()));
  }
  uint8_t none[16] = {};
  EvpCheck(EVP_EncryptFinal_ex(ctx, none, &len) == 1 && len == 0);
  EvpCheck(EVP_CIPHER_CTX_ctrl(ctx, EVP_CTRL_GCM_GET_TAG,
                               static_cast<int>(kGcmTagSize),
                               tag.data()) == 1);
}

// EVP decrypts into `out` before the tag is checked, so a mismatch must
// wipe what it wrote.
bool GcmCipher::EvpOpen(ByteSpan iv, ByteSpan aad, ByteSpan cipher,
                        MutByteSpan out, ByteSpan tag) const {
  EVP_CIPHER_CTX* ctx = evp_->dec;
  int len = 0;
  EvpCheck(EVP_DecryptInit_ex(ctx, nullptr, nullptr, nullptr, iv.data()) == 1);
  if (!aad.empty()) {
    EvpCheck(EVP_DecryptUpdate(ctx, nullptr, &len, aad.data(),
                               static_cast<int>(aad.size())) == 1);
  }
  if (!cipher.empty()) {
    EvpCheck(EVP_DecryptUpdate(ctx, out.data(), &len, cipher.data(),
                               static_cast<int>(cipher.size())) == 1 &&
             len == static_cast<int>(cipher.size()));
  }
  EvpCheck(EVP_CIPHER_CTX_ctrl(ctx, EVP_CTRL_GCM_SET_TAG,
                               static_cast<int>(kGcmTagSize),
                               const_cast<uint8_t*>(tag.data())) == 1);
  uint8_t none[16] = {};
  if (EVP_DecryptFinal_ex(ctx, none, &len) != 1) {
    std::fill(out.begin(), out.end(), 0);
    return false;
  }
  return true;
}

void GcmCipher::Seal(ByteSpan iv, ByteSpan aad, ByteSpan plain,
                     MutByteSpan out, MutByteSpan tag) const {
  assert(iv.size() == kGcmIvSize && "only 96-bit IVs supported");
  assert(plain.size() == out.size());
  assert(tag.size() == kGcmTagSize);
  if (evp_) {
    EvpSeal(iv, aad, plain, out, tag);
  } else {
    SoftSeal(iv, aad, plain, out, tag);
  }
}

bool GcmCipher::Open(ByteSpan iv, ByteSpan aad, ByteSpan cipher,
                     MutByteSpan out, ByteSpan tag) const {
  assert(iv.size() == kGcmIvSize);
  assert(cipher.size() == out.size());
  assert(tag.size() == kGcmTagSize);
  return evp_ ? EvpOpen(iv, aad, cipher, out, tag)
              : SoftOpen(iv, aad, cipher, out, tag);
}

}  // namespace vde::crypto
