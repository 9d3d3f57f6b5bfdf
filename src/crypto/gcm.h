// AES-GCM (NIST SP 800-38D) — authenticated encryption.
//
// The paper (§2.2, §3.1) names GCM as the alternative cipher once per-sector
// metadata exists: it needs a true-nonce IV (catastrophic on repeat) and a
// 16-byte tag, both of which the virtual-disk metadata can store. Used by the
// integrity extension in src/core.
//
// Runs OpenSSL's EVP AES-GCM (AES-NI + carry-less multiply GHASH when the
// CPU has them), one context per direction reused across calls.
#pragma once

#include <memory>

#include "crypto/backend.h"
#include "util/bytes.h"

namespace vde::crypto {

inline constexpr size_t kGcmIvSize = 12;
inline constexpr size_t kGcmTagSize = 16;

class GcmCipher {
 public:
  // AES key, 16 or 32 bytes.
  explicit GcmCipher(ByteSpan key);
  // Kept only for perfbench/replay.cc (see crypto/backend.h).
  GcmCipher(Backend, ByteSpan key) : GcmCipher(key) {}
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

  std::unique_ptr<EvpState> evp_;
};

}  // namespace vde::crypto
