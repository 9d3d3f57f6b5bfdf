#include "crypto/essiv.h"

#include "crypto/sha256.h"

namespace vde::crypto {

Essiv::Essiv(ByteSpan key) : cipher_(Sha256::Digest(key)) {}

void Essiv::DeriveIv(uint64_t sector, uint8_t out[16]) const {
  uint8_t block[16] = {};
  StoreU64Le(block, sector);
  cipher_.EncryptBlock(block, out);
}

}  // namespace vde::crypto
