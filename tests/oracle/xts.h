// Reference AES-XTS (IEEE 1619) over the reference AES: the test oracle for
// crypto::XtsCipher. Unlike OpenSSL it accepts a key whose two halves are
// equal, so it alone can run IEEE 1619 vector 1 (all-zero keys).
#pragma once

#include <cstdint>

#include "util/bytes.h"

namespace vde::oracle {

// Multiplies an XTS tweak block by alpha in GF(2^128) (little-endian
// convention).
void XtsMulAlpha(uint8_t t[16]);

// One data unit under `key` = key1 || key2 (32 or 64 bytes). `in.size()`
// must be >= 16; sizes not a multiple of 16 use ciphertext stealing. `out`
// may alias `in`.
void XtsEncrypt(ByteSpan key, ByteSpan tweak16, ByteSpan in, MutByteSpan out);
void XtsDecrypt(ByteSpan key, ByteSpan tweak16, ByteSpan in, MutByteSpan out);

}  // namespace vde::oracle
