#include "crypto/gcm.h"

#include <openssl/evp.h>

#include <algorithm>
#include <cassert>

#include "crypto/evp_check.h"

namespace vde::crypto {

// One context per direction, keyed once; every call re-arms it with a fresh
// IV (EVP's GCM default IV length is the 96 bits kGcmIvSize names).
struct GcmCipher::EvpState {
  EVP_CIPHER_CTX* enc = EVP_CIPHER_CTX_new();
  EVP_CIPHER_CTX* dec = EVP_CIPHER_CTX_new();

  ~EvpState() {
    EVP_CIPHER_CTX_free(enc);
    EVP_CIPHER_CTX_free(dec);
  }
};

GcmCipher::GcmCipher(ByteSpan key) : evp_(std::make_unique<EvpState>()) {
  EvpCheck(key.size() == 16 || key.size() == 32,
           "GCM key size (16 or 32 bytes)");
  EvpCheck(evp_->enc != nullptr && evp_->dec != nullptr,
           "GCM context allocation");
  const EVP_CIPHER* cipher =
      key.size() == 16 ? EVP_aes_128_gcm() : EVP_aes_256_gcm();
  EvpCheck(EVP_EncryptInit_ex(evp_->enc, cipher, nullptr, key.data(),
                              nullptr) == 1,
           "GCM key setup");
  EvpCheck(EVP_DecryptInit_ex(evp_->dec, cipher, nullptr, key.data(),
                              nullptr) == 1,
           "GCM key setup");
}

GcmCipher::~GcmCipher() = default;
GcmCipher::GcmCipher(GcmCipher&&) noexcept = default;
GcmCipher& GcmCipher::operator=(GcmCipher&&) noexcept = default;

// Zero-length updates are skipped: an empty span may carry a null pointer.
void GcmCipher::Seal(ByteSpan iv, ByteSpan aad, ByteSpan plain,
                     MutByteSpan out, MutByteSpan tag) const {
  assert(iv.size() == kGcmIvSize && "only 96-bit IVs supported");
  assert(plain.size() == out.size());
  assert(tag.size() == kGcmTagSize);
  EVP_CIPHER_CTX* ctx = evp_->enc;
  int len = 0;
  EvpCheck(EVP_EncryptInit_ex(ctx, nullptr, nullptr, nullptr, iv.data()) == 1,
           "GCM seal IV");
  if (!aad.empty()) {
    EvpCheck(EVP_EncryptUpdate(ctx, nullptr, &len, aad.data(),
                               static_cast<int>(aad.size())) == 1,
             "GCM seal AAD");
  }
  if (!plain.empty()) {
    EvpCheck(EVP_EncryptUpdate(ctx, out.data(), &len, plain.data(),
                               static_cast<int>(plain.size())) == 1 &&
                 len == static_cast<int>(plain.size()),
             "GCM seal");
  }
  uint8_t none[16] = {};
  EvpCheck(EVP_EncryptFinal_ex(ctx, none, &len) == 1 && len == 0,
           "GCM seal final");
  EvpCheck(EVP_CIPHER_CTX_ctrl(ctx, EVP_CTRL_GCM_GET_TAG,
                               static_cast<int>(kGcmTagSize),
                               tag.data()) == 1,
           "GCM get tag");
}

// EVP decrypts into `out` before the tag is checked, so a mismatch must
// wipe what it wrote.
bool GcmCipher::Open(ByteSpan iv, ByteSpan aad, ByteSpan cipher,
                     MutByteSpan out, ByteSpan tag) const {
  assert(iv.size() == kGcmIvSize);
  assert(cipher.size() == out.size());
  assert(tag.size() == kGcmTagSize);
  EVP_CIPHER_CTX* ctx = evp_->dec;
  int len = 0;
  EvpCheck(EVP_DecryptInit_ex(ctx, nullptr, nullptr, nullptr, iv.data()) == 1,
           "GCM open IV");
  if (!aad.empty()) {
    EvpCheck(EVP_DecryptUpdate(ctx, nullptr, &len, aad.data(),
                               static_cast<int>(aad.size())) == 1,
             "GCM open AAD");
  }
  if (!cipher.empty()) {
    EvpCheck(EVP_DecryptUpdate(ctx, out.data(), &len, cipher.data(),
                               static_cast<int>(cipher.size())) == 1 &&
                 len == static_cast<int>(cipher.size()),
             "GCM open");
  }
  EvpCheck(EVP_CIPHER_CTX_ctrl(ctx, EVP_CTRL_GCM_SET_TAG,
                               static_cast<int>(kGcmTagSize),
                               const_cast<uint8_t*>(tag.data())) == 1,
           "GCM set tag");
  uint8_t none[16] = {};
  if (EVP_DecryptFinal_ex(ctx, none, &len) != 1) {
    std::fill(out.begin(), out.end(), 0);
    return false;
  }
  return true;
}

}  // namespace vde::crypto
