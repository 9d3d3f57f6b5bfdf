// CRC32-C (Castagnoli) — integrity check for WAL frames and SSTable blocks.
#pragma once

#include <cstdint>

#include "util/bytes.h"

namespace vde {

// CRC32-C of `data`, optionally continuing from a previous value. Runs on
// the SSE4.2 crc32 instruction when the CPU has it, else on slice-by-8
// tables; both give the same value.
uint32_t Crc32c(ByteSpan data, uint32_t init = 0);

// The two implementations behind Crc32c, exposed so tests can check each.
uint32_t Crc32cSliceBy8(ByteSpan data, uint32_t init = 0);
// Only valid when Crc32cHardwareAvailable().
uint32_t Crc32cHardware(ByteSpan data, uint32_t init = 0);
bool Crc32cHardwareAvailable();

}  // namespace vde
