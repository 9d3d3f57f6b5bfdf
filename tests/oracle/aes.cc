#include "oracle/aes.h"

#include <cassert>
#include <cstring>
#include <utility>

namespace vde::oracle {

namespace {

// --- GF(2^8) arithmetic (polynomial x^8 + x^4 + x^3 + x + 1) ---

constexpr uint8_t Xtime(uint8_t x) {
  return static_cast<uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

constexpr uint8_t GfMul(uint8_t a, uint8_t b) {
  uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    a = Xtime(a);
    b >>= 1;
  }
  return p;
}

// S-box generated at compile time (inverse in GF(2^8) + affine transform),
// which avoids hand-typing 256 constants.
constexpr std::array<uint8_t, 256> MakeSbox() {
  std::array<uint8_t, 256> sbox{};
  for (int x = 0; x < 256; ++x) {
    // Multiplicative inverse: x^254 (0 maps to 0).
    uint8_t inv = 0;
    if (x != 0) {
      uint8_t base = static_cast<uint8_t>(x);
      uint8_t acc = 1;
      // 254 = 0b11111110
      for (int bit = 7; bit >= 0; --bit) {
        acc = GfMul(acc, acc);
        if ((254 >> bit) & 1) acc = GfMul(acc, base);
      }
      inv = acc;
    }
    // Affine transform.
    uint8_t y = inv;
    uint8_t res = 0x63;
    for (int i = 0; i < 8; ++i) {
      const uint8_t bit = static_cast<uint8_t>(
          ((y >> i) ^ (y >> ((i + 4) & 7)) ^ (y >> ((i + 5) & 7)) ^
           (y >> ((i + 6) & 7)) ^ (y >> ((i + 7) & 7))) &
          1);
      res ^= static_cast<uint8_t>(bit << i);
    }
    sbox[static_cast<size_t>(x)] = res;
  }
  return sbox;
}

constexpr std::array<uint8_t, 256> MakeInvSbox(
    const std::array<uint8_t, 256>& sbox) {
  std::array<uint8_t, 256> inv{};
  for (int x = 0; x < 256; ++x) inv[sbox[static_cast<size_t>(x)]] = static_cast<uint8_t>(x);
  return inv;
}

constexpr auto kSbox = MakeSbox();
constexpr auto kInvSbox = MakeInvSbox(kSbox);

static_assert(MakeSbox()[0x00] == 0x63, "AES S-box generation broken");
static_assert(MakeSbox()[0x01] == 0x7c, "AES S-box generation broken");
static_assert(MakeSbox()[0x53] == 0xed, "AES S-box generation broken");

constexpr uint32_t SubWord(uint32_t w) {
  return (static_cast<uint32_t>(kSbox[(w >> 24) & 0xff]) << 24) |
         (static_cast<uint32_t>(kSbox[(w >> 16) & 0xff]) << 16) |
         (static_cast<uint32_t>(kSbox[(w >> 8) & 0xff]) << 8) |
         static_cast<uint32_t>(kSbox[w & 0xff]);
}

constexpr uint32_t RotWord(uint32_t w) { return (w << 8) | (w >> 24); }

void AddRoundKey(uint8_t state[16], const uint32_t* rk) {
  for (int c = 0; c < 4; ++c) {
    const uint32_t w = rk[c];
    state[4 * c + 0] ^= static_cast<uint8_t>(w >> 24);
    state[4 * c + 1] ^= static_cast<uint8_t>(w >> 16);
    state[4 * c + 2] ^= static_cast<uint8_t>(w >> 8);
    state[4 * c + 3] ^= static_cast<uint8_t>(w);
  }
}

void SubBytes(uint8_t state[16]) {
  for (int i = 0; i < 16; ++i) state[i] = kSbox[state[i]];
}

void InvSubBytes(uint8_t state[16]) {
  for (int i = 0; i < 16; ++i) state[i] = kInvSbox[state[i]];
}

// State layout: state[4*c + r] = byte at row r, column c (FIPS-197 order).
void ShiftRows(uint8_t s[16]) {
  uint8_t t;
  // Row 1: shift left by 1.
  t = s[1]; s[1] = s[5]; s[5] = s[9]; s[9] = s[13]; s[13] = t;
  // Row 2: shift left by 2.
  std::swap(s[2], s[10]);
  std::swap(s[6], s[14]);
  // Row 3: shift left by 3 (= right by 1).
  t = s[15]; s[15] = s[11]; s[11] = s[7]; s[7] = s[3]; s[3] = t;
}

void InvShiftRows(uint8_t s[16]) {
  uint8_t t;
  // Row 1: shift right by 1.
  t = s[13]; s[13] = s[9]; s[9] = s[5]; s[5] = s[1]; s[1] = t;
  // Row 2.
  std::swap(s[2], s[10]);
  std::swap(s[6], s[14]);
  // Row 3: shift right by 3 (= left by 1).
  t = s[3]; s[3] = s[7]; s[7] = s[11]; s[11] = s[15]; s[15] = t;
}

void MixColumns(uint8_t s[16]) {
  for (int c = 0; c < 4; ++c) {
    uint8_t* col = s + 4 * c;
    const uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = static_cast<uint8_t>(Xtime(a0) ^ (Xtime(a1) ^ a1) ^ a2 ^ a3);
    col[1] = static_cast<uint8_t>(a0 ^ Xtime(a1) ^ (Xtime(a2) ^ a2) ^ a3);
    col[2] = static_cast<uint8_t>(a0 ^ a1 ^ Xtime(a2) ^ (Xtime(a3) ^ a3));
    col[3] = static_cast<uint8_t>((Xtime(a0) ^ a0) ^ a1 ^ a2 ^ Xtime(a3));
  }
}

void InvMixColumns(uint8_t s[16]) {
  for (int c = 0; c < 4; ++c) {
    uint8_t* col = s + 4 * c;
    const uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = GfMul(a0, 0x0e) ^ GfMul(a1, 0x0b) ^ GfMul(a2, 0x0d) ^ GfMul(a3, 0x09);
    col[1] = GfMul(a0, 0x09) ^ GfMul(a1, 0x0e) ^ GfMul(a2, 0x0b) ^ GfMul(a3, 0x0d);
    col[2] = GfMul(a0, 0x0d) ^ GfMul(a1, 0x09) ^ GfMul(a2, 0x0e) ^ GfMul(a3, 0x0b);
    col[3] = GfMul(a0, 0x0b) ^ GfMul(a1, 0x0d) ^ GfMul(a2, 0x09) ^ GfMul(a3, 0x0e);
  }
}

}  // namespace

SoftAes::SoftAes(ByteSpan key) {
  assert((key.size() == 16 || key.size() == 24 || key.size() == 32) &&
         "AES key must be 128/192/256 bits");
  const int nk = static_cast<int>(key.size() / 4);
  rounds_ = nk + 6;
  const int total = 4 * (rounds_ + 1);

  for (int i = 0; i < nk; ++i) {
    rk_[static_cast<size_t>(i)] =
        (static_cast<uint32_t>(key[4 * i]) << 24) |
        (static_cast<uint32_t>(key[4 * i + 1]) << 16) |
        (static_cast<uint32_t>(key[4 * i + 2]) << 8) |
        static_cast<uint32_t>(key[4 * i + 3]);
  }
  uint32_t rcon = 0x01000000;
  for (int i = nk; i < total; ++i) {
    uint32_t temp = rk_[static_cast<size_t>(i - 1)];
    if (i % nk == 0) {
      temp = SubWord(RotWord(temp)) ^ rcon;
      rcon = static_cast<uint32_t>(Xtime(static_cast<uint8_t>(rcon >> 24)))
             << 24;
    } else if (nk > 6 && i % nk == 4) {
      temp = SubWord(temp);
    }
    rk_[static_cast<size_t>(i)] = rk_[static_cast<size_t>(i - nk)] ^ temp;
  }
}

void SoftAes::EncryptBlock(const uint8_t in[16], uint8_t out[16]) const {
  uint8_t s[16];
  std::memcpy(s, in, 16);
  AddRoundKey(s, rk_.data());
  for (int round = 1; round < rounds_; ++round) {
    SubBytes(s);
    ShiftRows(s);
    MixColumns(s);
    AddRoundKey(s, rk_.data() + 4 * round);
  }
  SubBytes(s);
  ShiftRows(s);
  AddRoundKey(s, rk_.data() + 4 * rounds_);
  std::memcpy(out, s, 16);
}

void SoftAes::DecryptBlock(const uint8_t in[16], uint8_t out[16]) const {
  uint8_t s[16];
  std::memcpy(s, in, 16);
  AddRoundKey(s, rk_.data() + 4 * rounds_);
  for (int round = rounds_ - 1; round >= 1; --round) {
    InvShiftRows(s);
    InvSubBytes(s);
    AddRoundKey(s, rk_.data() + 4 * round);
    InvMixColumns(s);
  }
  InvShiftRows(s);
  InvSubBytes(s);
  AddRoundKey(s, rk_.data());
  std::memcpy(out, s, 16);
}

}  // namespace vde::oracle
