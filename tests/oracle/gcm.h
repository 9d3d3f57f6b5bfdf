// Reference AES-GCM (NIST SP 800-38D): CTR over the reference AES plus a
// bit-serial GHASH. The test oracle for crypto::GcmCipher.
#pragma once

#include "util/bytes.h"

namespace vde::oracle {

// `key` is 16 or 32 bytes, `iv` 12 bytes, `tag` 16 bytes; `out` is the size
// of the input text.
void GcmSeal(ByteSpan key, ByteSpan iv, ByteSpan aad, ByteSpan plain,
             MutByteSpan out, MutByteSpan tag);
// Returns false (and zeroes `out`) on tag mismatch.
bool GcmOpen(ByteSpan key, ByteSpan iv, ByteSpan aad, ByteSpan cipher,
             MutByteSpan out, ByteSpan tag);

}  // namespace vde::oracle
