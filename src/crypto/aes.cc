#include "crypto/aes.h"

#include <openssl/evp.h>

#include "crypto/evp_check.h"

namespace vde::crypto {

namespace {

const EVP_CIPHER* EcbFor(size_t key_size) {
  switch (key_size) {
    case 16: return EVP_aes_128_ecb();
    case 24: return EVP_aes_192_ecb();
    case 32: return EVP_aes_256_ecb();
    default: return nullptr;
  }
}

}  // namespace

Aes::Aes(ByteSpan key)
    : enc_(EVP_CIPHER_CTX_new()), dec_(EVP_CIPHER_CTX_new()) {
  const EVP_CIPHER* cipher = EcbFor(key.size());
  EvpCheck(cipher != nullptr, "AES key size (16, 24 or 32 bytes)");
  EvpCheck(enc_ != nullptr && dec_ != nullptr, "AES context allocation");
  EvpCheck(EVP_EncryptInit_ex(enc_, cipher, nullptr, key.data(), nullptr) == 1,
           "AES key setup");
  EvpCheck(EVP_DecryptInit_ex(dec_, cipher, nullptr, key.data(), nullptr) == 1,
           "AES key setup");
  EVP_CIPHER_CTX_set_padding(enc_, 0);
  EVP_CIPHER_CTX_set_padding(dec_, 0);
}

Aes::~Aes() {
  EVP_CIPHER_CTX_free(enc_);
  EVP_CIPHER_CTX_free(dec_);
}

void Aes::EncryptBlock(const uint8_t in[16], uint8_t out[16]) const {
  int len = 0;
  EvpCheck(EVP_EncryptUpdate(enc_, out, &len, in, 16) == 1 && len == 16,
           "AES encrypt");
}

void Aes::DecryptBlock(const uint8_t in[16], uint8_t out[16]) const {
  int len = 0;
  EvpCheck(EVP_DecryptUpdate(dec_, out, &len, in, 16) == 1 && len == 16,
           "AES decrypt");
}

}  // namespace vde::crypto
