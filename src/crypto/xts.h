// AES-XTS (IEEE 1619 / NIST SP 800-38E) — the disk-encryption standard the
// paper's baseline (LUKS2) and its random-IV variant both use.
//
// XTS is a *narrow-block* tweakable mode: a change to the plaintext only
// affects the 16-byte sub-block it belongs to (paper §2.1). The tweak is the
// 16-byte IV: LUKS2 derives it from the LBA; the paper's scheme draws it at
// random per sector write and persists it.
//
// Runs OpenSSL's EVP AES-XTS (AES-NI when the CPU has it), one context per
// direction keyed once and re-armed with the tweak on every call.
#pragma once

#include <memory>

#include "crypto/backend.h"
#include "util/bytes.h"

namespace vde::crypto {

class XtsCipher {
 public:
  // `key` is the concatenation key1 || key2, each 16 or 32 bytes
  // (AES-128-XTS uses 32 total, AES-256-XTS uses 64 total). The halves must
  // differ: OpenSSL rejects equal halves, and the constructor aborts.
  explicit XtsCipher(ByteSpan key);
  // Kept only for perfbench/replay.cc (see crypto/backend.h).
  XtsCipher(Backend, ByteSpan key) : XtsCipher(key) {}
  ~XtsCipher();

  XtsCipher(XtsCipher&&) noexcept;
  XtsCipher& operator=(XtsCipher&&) noexcept;

  // Encrypts one data unit (sector). `in.size()` must be >= 16; sizes not a
  // multiple of 16 use ciphertext stealing. `out` may alias `in`.
  void Encrypt(ByteSpan tweak16, ByteSpan in, MutByteSpan out) const;
  void Decrypt(ByteSpan tweak16, ByteSpan in, MutByteSpan out) const;

 private:
  struct EvpState;

  void Crypt(bool encrypt, ByteSpan tweak16, ByteSpan in,
             MutByteSpan out) const;

  std::unique_ptr<EvpState> evp_;
};

}  // namespace vde::crypto
