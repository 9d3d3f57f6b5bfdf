// src/crypto has one implementation of each cipher, on OpenSSL EVP. This
// one-value enum and the XtsCipher/GcmCipher overloads that take it are kept
// only for perfbench/replay.cc, which still names the backend; nothing else
// may use them.
#pragma once

namespace vde::crypto {

enum class Backend { kOpenssl };

}  // namespace vde::crypto
