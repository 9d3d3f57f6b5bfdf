#include "crypto/sha256.h"

#include <openssl/evp.h>

#include <cstdlib>
#include <utility>

namespace vde::crypto {

namespace {

// EVP calls here fail only on allocation failure or a missing provider;
// neither leaves a usable digest, so stop rather than emit wrong bytes.
void EvpCheck(bool ok) {
  if (!ok) std::abort();
}

// Fetched once: initialising a context from EVP_sha256() would repeat the
// provider lookup on every object.
const EVP_MD* Sha256Md() {
  static const EVP_MD* const md = [] {
    EVP_MD* fetched = EVP_MD_fetch(nullptr, "SHA256", nullptr);
    EvpCheck(fetched != nullptr);
    return fetched;
  }();
  return md;
}

}  // namespace

Sha256::Sha256() : ctx_(EVP_MD_CTX_new()) {
  EvpCheck(ctx_ != nullptr);
  EvpCheck(EVP_DigestInit_ex(ctx_, Sha256Md(), nullptr) == 1);
}

Sha256::~Sha256() { EVP_MD_CTX_free(ctx_); }

Sha256::Sha256(Sha256&& other) noexcept
    : ctx_(std::exchange(other.ctx_, nullptr)) {}

Sha256& Sha256::operator=(Sha256&& other) noexcept {
  std::swap(ctx_, other.ctx_);
  return *this;
}

void Sha256::Update(ByteSpan data) {
  if (data.empty()) return;  // an empty span may carry a null pointer
  EvpCheck(EVP_DigestUpdate(ctx_, data.data(), data.size()) == 1);
}

std::array<uint8_t, kSha256DigestSize> Sha256::Finish() {
  std::array<uint8_t, kSha256DigestSize> out{};
  unsigned int len = 0;
  EvpCheck(EVP_DigestFinal_ex(ctx_, out.data(), &len) == 1 &&
           len == kSha256DigestSize);
  return out;
}

std::array<uint8_t, kSha256DigestSize> Sha256::Digest(ByteSpan data) {
  Sha256 s;
  s.Update(data);
  return s.Finish();
}

}  // namespace vde::crypto
