// The one failure policy for the OpenSSL EVP calls in src/crypto.
//
// A rejected key (a wrong size, or XTS halves that are equal), a failed
// allocation or a broken provider leaves no usable cipher or digest, so the
// process stops rather than emit wrong bytes. Unlike assert, the check holds
// in every build type: a Release build that "encrypts" with a context whose
// key setup failed would write plaintext.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace vde::crypto {

inline void EvpCheck(bool ok, const char* what) {
  if (ok) [[likely]] return;
  std::fprintf(stderr, "vde crypto: %s failed\n", what);
  std::abort();
}

}  // namespace vde::crypto
