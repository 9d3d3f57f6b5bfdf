#include "crypto/xts.h"

#include <openssl/evp.h>

#include <cassert>

#include "crypto/evp_check.h"

namespace vde::crypto {

// EVP copies the key into its own schedule, so no copy of it outlives the
// constructor.
struct XtsCipher::EvpState {
  EVP_CIPHER_CTX* enc = EVP_CIPHER_CTX_new();
  EVP_CIPHER_CTX* dec = EVP_CIPHER_CTX_new();

  ~EvpState() {
    EVP_CIPHER_CTX_free(enc);
    EVP_CIPHER_CTX_free(dec);
  }
};

XtsCipher::XtsCipher(ByteSpan key) : evp_(std::make_unique<EvpState>()) {
  EvpCheck(key.size() == 32 || key.size() == 64,
           "XTS key size (32 or 64 bytes)");
  EvpCheck(evp_->enc != nullptr && evp_->dec != nullptr,
           "XTS context allocation");
  const EVP_CIPHER* cipher =
      key.size() == 32 ? EVP_aes_128_xts() : EVP_aes_256_xts();
  EvpCheck(EVP_EncryptInit_ex(evp_->enc, cipher, nullptr, key.data(),
                              nullptr) == 1,
           "XTS key setup");
  EvpCheck(EVP_DecryptInit_ex(evp_->dec, cipher, nullptr, key.data(),
                              nullptr) == 1,
           "XTS key setup");
}

XtsCipher::~XtsCipher() = default;
XtsCipher::XtsCipher(XtsCipher&&) noexcept = default;
XtsCipher& XtsCipher::operator=(XtsCipher&&) noexcept = default;

// EVP refuses a unit under 16 bytes, so that also stops here.
void XtsCipher::Crypt(bool encrypt, ByteSpan tweak16, ByteSpan in,
                      MutByteSpan out) const {
  assert(tweak16.size() == 16);
  assert(in.size() == out.size());
  EVP_CIPHER_CTX* ctx = encrypt ? evp_->enc : evp_->dec;
  int out_len = 0;
  EvpCheck(EVP_CipherInit_ex(ctx, nullptr, nullptr, nullptr, tweak16.data(),
                             -1) == 1 &&
               EVP_CipherUpdate(ctx, out.data(), &out_len, in.data(),
                                static_cast<int>(in.size())) == 1 &&
               out_len == static_cast<int>(in.size()),
           "XTS crypt");
}

void XtsCipher::Encrypt(ByteSpan tweak16, ByteSpan in, MutByteSpan out) const {
  Crypt(/*encrypt=*/true, tweak16, in, out);
}

void XtsCipher::Decrypt(ByteSpan tweak16, ByteSpan in, MutByteSpan out) const {
  Crypt(/*encrypt=*/false, tweak16, in, out);
}

}  // namespace vde::crypto
