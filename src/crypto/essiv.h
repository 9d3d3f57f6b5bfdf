// ESSIV tweak derivation (dm-crypt style): IV = AES_{SHA256(key)}(LBA).
//
// An alternative to plain LBA tweaks that hides the sector number structure;
// still deterministic per sector, so it shares the overwrite leakage the
// paper targets. Included as a baseline variant for the leakage tests.
#pragma once

#include "crypto/aes.h"
#include "util/bytes.h"

namespace vde::crypto {

class Essiv {
 public:
  // `key` is the data-encryption key; the ESSIV key is its SHA-256 digest.
  explicit Essiv(ByteSpan key);

  // 16-byte IV for `sector`.
  void DeriveIv(uint64_t sector, uint8_t out[16]) const;

 private:
  Aes cipher_;
};

}  // namespace vde::crypto
