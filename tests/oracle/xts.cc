#include "oracle/xts.h"

#include <cassert>
#include <cstring>

#include "oracle/aes.h"

namespace vde::oracle {

namespace {

void XtsCrypt(ByteSpan key, ByteSpan tweak16, ByteSpan in, MutByteSpan out,
              bool encrypt) {
  assert(key.size() == 32 || key.size() == 64);
  assert(tweak16.size() == 16);
  assert(in.size() >= 16);
  assert(in.size() == out.size());
  const size_t half = key.size() / 2;
  const SoftAes data_cipher(key.subspan(0, half));
  const SoftAes tweak_cipher(key.subspan(half));

  uint8_t t[16];
  tweak_cipher.EncryptBlock(tweak16.data(), t);

  const size_t full = in.size() / 16;
  const size_t rem = in.size() % 16;
  // Number of blocks processed in the straightforward loop.
  const size_t plain_loop = rem == 0 ? full : full - 1;

  auto crypt_block = [&](const uint8_t* src, uint8_t* dst,
                         const uint8_t tweak[16]) {
    uint8_t tmp[16];
    for (int i = 0; i < 16; ++i) tmp[i] = src[i] ^ tweak[i];
    if (encrypt) {
      data_cipher.EncryptBlock(tmp, tmp);
    } else {
      data_cipher.DecryptBlock(tmp, tmp);
    }
    for (int i = 0; i < 16; ++i) dst[i] = tmp[i] ^ tweak[i];
  };

  size_t b = 0;
  for (; b < plain_loop; ++b) {
    crypt_block(in.data() + b * 16, out.data() + b * 16, t);
    XtsMulAlpha(t);
  }

  if (rem == 0) return;

  // Ciphertext stealing over the final full block + partial tail.
  const uint8_t* p_full = in.data() + b * 16;       // last full block
  const uint8_t* p_part = in.data() + (b + 1) * 16;  // partial tail, rem bytes
  uint8_t* c_full = out.data() + b * 16;
  uint8_t* c_part = out.data() + (b + 1) * 16;

  if (encrypt) {
    uint8_t cc[16];
    crypt_block(p_full, cc, t);  // tweak T_{n-1}
    uint8_t t_next[16];
    std::memcpy(t_next, t, 16);
    XtsMulAlpha(t_next);
    uint8_t pp[16];
    std::memcpy(pp, p_part, rem);
    std::memcpy(pp + rem, cc + rem, 16 - rem);
    // Write order matters if out aliases in: save the stolen prefix first.
    uint8_t stolen[16];
    std::memcpy(stolen, cc, rem);
    crypt_block(pp, c_full, t_next);
    std::memcpy(c_part, stolen, rem);
  } else {
    // Decrypt: the last full ciphertext block (read from `in`!) was made
    // with tweak T_n; the stolen tail sits in the partial input block.
    uint8_t t_next[16];
    std::memcpy(t_next, t, 16);
    XtsMulAlpha(t_next);
    uint8_t pp[16];
    crypt_block(p_full, pp, t_next);  // = P_n || tail(CC)
    uint8_t cc[16];
    std::memcpy(cc, p_part, rem);
    std::memcpy(cc + rem, pp + rem, 16 - rem);
    uint8_t head[16];
    std::memcpy(head, pp, rem);
    crypt_block(cc, c_full, t);  // P_{n-1} with tweak T_{n-1}
    std::memcpy(c_part, head, rem);
  }
}

}  // namespace

void XtsMulAlpha(uint8_t t[16]) {
  // Little-endian polynomial: carry out of byte 15 feeds x^128 = x^7+x^2+x+1.
  uint8_t carry = 0;
  for (int i = 0; i < 16; ++i) {
    const uint8_t next_carry = static_cast<uint8_t>(t[i] >> 7);
    t[i] = static_cast<uint8_t>((t[i] << 1) | carry);
    carry = next_carry;
  }
  if (carry) t[0] ^= 0x87;
}

void XtsEncrypt(ByteSpan key, ByteSpan tweak16, ByteSpan in, MutByteSpan out) {
  XtsCrypt(key, tweak16, in, out, /*encrypt=*/true);
}

void XtsDecrypt(ByteSpan key, ByteSpan tweak16, ByteSpan in, MutByteSpan out) {
  XtsCrypt(key, tweak16, in, out, /*encrypt=*/false);
}

}  // namespace vde::oracle
