// SHA-256 (FIPS 180-4), streaming interface over OpenSSL's EVP digest (SHA-NI
// or AVX2 when the CPU has them). Each object owns one digest context; the
// EVP_MD it runs is fetched once per process.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

struct evp_md_ctx_st;  // OpenSSL's EVP_MD_CTX, kept out of this header

namespace vde::crypto {

inline constexpr size_t kSha256DigestSize = 32;

class Sha256 {
 public:
  Sha256();
  ~Sha256();

  Sha256(Sha256&& other) noexcept;
  Sha256& operator=(Sha256&& other) noexcept;
  Sha256(const Sha256&) = delete;
  Sha256& operator=(const Sha256&) = delete;

  void Update(ByteSpan data);
  // Finalizes and returns the digest; the object must not be reused after.
  std::array<uint8_t, kSha256DigestSize> Finish();

  // One-shot convenience.
  static std::array<uint8_t, kSha256DigestSize> Digest(ByteSpan data);

 private:
  evp_md_ctx_st* ctx_;
};

}  // namespace vde::crypto
