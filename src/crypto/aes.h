// AES-128/192/256 single-block cipher (FIPS-197) on OpenSSL EVP, AES-NI when
// the CPU has it. ESSIV and the random-IV formats' LBA mask run it one block
// at a time; XTS and GCM use their own EVP modes (xts.h, gcm.h).
#pragma once

#include <cstdint>

#include "util/bytes.h"

struct evp_cipher_ctx_st;  // OpenSSL's EVP_CIPHER_CTX, kept out of this header

namespace vde::crypto {

class Aes {
 public:
  // `key` must be 16, 24 or 32 bytes.
  explicit Aes(ByteSpan key);
  ~Aes();

  Aes(const Aes&) = delete;
  Aes& operator=(const Aes&) = delete;

  void EncryptBlock(const uint8_t in[16], uint8_t out[16]) const;
  void DecryptBlock(const uint8_t in[16], uint8_t out[16]) const;

 private:
  // One ECB context per direction, keyed once.
  evp_cipher_ctx_st* enc_;
  evp_cipher_ctx_st* dec_;
};

}  // namespace vde::crypto
