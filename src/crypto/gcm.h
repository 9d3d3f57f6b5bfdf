// AES-GCM (NIST SP 800-38D) — authenticated encryption.
//
// The paper (§2.2, §3.1) names GCM as the alternative cipher once per-sector
// metadata exists: it needs a true-nonce IV (catastrophic on repeat) and a
// 16-byte tag, both of which the virtual-disk metadata can store. Used by the
// integrity extension in src/core.
//
// Backend::kOpenssl runs OpenSSL's EVP AES-GCM (AES-NI + carry-less multiply
// GHASH when the CPU has them), one context per direction reused across
// calls. Backend::kSoft is the in-tree reference: CTR over the
// BlockCipher interface plus a bit-serial GHASH; tests check the two agree.
#pragma once

#include <memory>

#include "crypto/block_cipher.h"
#include "util/bytes.h"

namespace vde::crypto {

inline constexpr size_t kGcmIvSize = 12;
inline constexpr size_t kGcmTagSize = 16;

class GcmCipher {
 public:
  // AES key, 16 or 32 bytes.
  GcmCipher(Backend backend, ByteSpan key);
  ~GcmCipher();

  GcmCipher(GcmCipher&&) noexcept;
  GcmCipher& operator=(GcmCipher&&) noexcept;

  // Encrypts `plain` into `out` (same size) and writes the 16-byte tag.
  // `iv` must be 12 bytes and MUST NOT repeat for a given key.
  void Seal(ByteSpan iv, ByteSpan aad, ByteSpan plain, MutByteSpan out,
            MutByteSpan tag) const;

  // Decrypts and verifies; returns false (and zeroes `out`) on tag mismatch.
  [[nodiscard]] bool Open(ByteSpan iv, ByteSpan aad, ByteSpan cipher,
                          MutByteSpan out, ByteSpan tag) const;

 private:
  struct EvpState;

  void Ctr(const uint8_t j0[16], ByteSpan in, MutByteSpan out) const;
  void Ghash(ByteSpan aad, ByteSpan cipher, uint8_t out[16]) const;
  void SoftSeal(ByteSpan iv, ByteSpan aad, ByteSpan plain, MutByteSpan out,
                MutByteSpan tag) const;
  bool SoftOpen(ByteSpan iv, ByteSpan aad, ByteSpan cipher, MutByteSpan out,
                ByteSpan tag) const;
  void EvpSeal(ByteSpan iv, ByteSpan aad, ByteSpan plain, MutByteSpan out,
               MutByteSpan tag) const;
  bool EvpOpen(ByteSpan iv, ByteSpan aad, ByteSpan cipher, MutByteSpan out,
               ByteSpan tag) const;

  // Soft path.
  std::unique_ptr<BlockCipher> cipher_;
  uint8_t h_[16] = {};  // GHASH key = E_K(0^128)
  // EVP path.
  std::unique_ptr<EvpState> evp_;
};

}  // namespace vde::crypto
