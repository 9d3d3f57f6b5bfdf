// Reference AES-128/192/256 block cipher (FIPS-197), byte-oriented:
// correctness and portability over speed. Test oracle for crypto::Aes and
// the building block of the XTS and GCM oracles; nothing outside tests/
// links it.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace vde::oracle {

class SoftAes {
 public:
  // `key` must be 16, 24 or 32 bytes.
  explicit SoftAes(ByteSpan key);

  void EncryptBlock(const uint8_t in[16], uint8_t out[16]) const;
  void DecryptBlock(const uint8_t in[16], uint8_t out[16]) const;

 private:
  static constexpr int kMaxRounds = 14;
  int rounds_ = 0;
  // Round keys, 4 words per round + initial.
  std::array<uint32_t, 4 * (kMaxRounds + 1)> rk_{};
};

}  // namespace vde::oracle
