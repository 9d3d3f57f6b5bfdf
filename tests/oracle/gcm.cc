#include "oracle/gcm.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "oracle/aes.h"

namespace vde::oracle {

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

void Inc32(uint8_t block[16]) {
  uint32_t ctr = LoadU32Be(block + 12);
  StoreU32Be(block + 12, ctr + 1);
}

// One key's state: the block cipher, the GHASH key H = E_K(0^128) and the
// pre-counter block J0 for a 96-bit IV.
class Gcm {
 public:
  Gcm(ByteSpan key, ByteSpan iv) : aes_(key) {
    assert(key.size() == 16 || key.size() == 32);
    assert(iv.size() == 12);
    const uint8_t zero[16] = {};
    aes_.EncryptBlock(zero, h_);
    std::memcpy(j0_, iv.data(), 12);
    j0_[15] = 1;
  }

  void Ctr(ByteSpan in, MutByteSpan out) const {
    uint8_t counter[16];
    std::memcpy(counter, j0_, 16);
    size_t off = 0;
    while (off < in.size()) {
      Inc32(counter);
      uint8_t ks[16];
      aes_.EncryptBlock(counter, ks);
      const size_t take = std::min<size_t>(16, in.size() - off);
      for (size_t i = 0; i < take; ++i) out[off + i] = in[off + i] ^ ks[i];
      off += take;
    }
  }

  // GHASH over aad and cipher, masked with E_K(J0).
  void Tag(ByteSpan aad, ByteSpan cipher, uint8_t out[16]) const {
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
    absorb(ByteSpan(lens, 16));
    uint8_t s[16];
    Store(y, s);
    uint8_t ek_j0[16];
    aes_.EncryptBlock(j0_, ek_j0);
    for (int i = 0; i < 16; ++i) out[i] = s[i] ^ ek_j0[i];
  }

 private:
  SoftAes aes_;
  uint8_t h_[16] = {};
  uint8_t j0_[16] = {};
};

}  // namespace

void GcmSeal(ByteSpan key, ByteSpan iv, ByteSpan aad, ByteSpan plain,
             MutByteSpan out, MutByteSpan tag) {
  assert(plain.size() == out.size() && tag.size() == 16);
  const Gcm gcm(key, iv);
  gcm.Ctr(plain, out);
  gcm.Tag(aad, ByteSpan(out.data(), out.size()), tag.data());
}

bool GcmOpen(ByteSpan key, ByteSpan iv, ByteSpan aad, ByteSpan cipher,
             MutByteSpan out, ByteSpan tag) {
  assert(cipher.size() == out.size() && tag.size() == 16);
  const Gcm gcm(key, iv);
  uint8_t expect[16];
  gcm.Tag(aad, cipher, expect);
  if (!ConstantTimeEqual(ByteSpan(expect, 16), tag)) {
    std::fill(out.begin(), out.end(), 0);
    return false;
  }
  gcm.Ctr(cipher, out);
  return true;
}

}  // namespace vde::oracle
