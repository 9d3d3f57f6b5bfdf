// In-tree LZ-class block codec (LZ4-style token stream) for the
// compression-before-encryption stage. No external dependencies, no
// allocation, deterministic output for a given input.
//
// Stream format: a sequence of [token][literals...][offset u16le][matchlen
// ext...] records. The token packs two nibbles — high = literal run length,
// low = match length minus the 4-byte minimum — each extended LZ4-style with
// 255-valued continuation bytes when the nibble saturates at 15. A match
// copies from `offset` bytes back in the output (offset 1..65535; overlapping
// copies replicate runs). The final record carries literals only: the stream
// simply ends after them, with no offset field.
//
// The codec is honest about incompressibility: Compress returns 0 whenever
// the encoded stream would not fit `out`, and callers are expected to store
// such blocks verbatim.
//
// Frozen stream: the parse is fixed — a 12-bit multiplicative hash of the
// next 4 bytes, the table updated at every scanned position, the first
// candidate taken greedily and extended as far as it matches, and the table
// re-seeded at each match tail. The compressed length it yields is stored
// in the per-block record, decides the slot-tail trim, and feeds the sim
// clock's codec and store charges, so any change to the bytes this codec
// emits (for any input and any `out` capacity) is a declared rebaseline,
// never a side effect of a speed-up. The unit tests pin the stream against
// a bytewise reference copy of the original codec.
#pragma once

#include <cstddef>

#include "util/bytes.h"
#include "util/status.h"

namespace vde {

// Compresses `in` into `out`. Returns the number of bytes written, or 0 if
// the encoded stream would exceed out.size() (store verbatim instead).
size_t LzCompress(ByteSpan in, MutByteSpan out);

// Decompresses `in`, writing exactly out.size() bytes. Every read and write
// is bounds-checked; a truncated, oversized, or otherwise malformed stream
// returns Corruption and never touches memory outside `out`.
Status LzDecompress(ByteSpan in, MutByteSpan out);

}  // namespace vde
