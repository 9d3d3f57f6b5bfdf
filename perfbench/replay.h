// Host-clock timers around single layers' public functions, replayed on a
// workload's own inputs (its encryption spec, IO size, seed-derived guest
// content and store configuration) outside the cluster simulation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.h"
#include "metrics.h"
#include "objstore/object_store.h"
#include "spans.h"
#include "util/bytes.h"

namespace vdebench {

// Guest content of the 4 KiB block `block_no`: the seed-derived model
// workload::FioRunner writes in verify mode (an xoshiro stream seeded by
// seed * 0x9E3779B97F4A7C15 + block_no, with the leading
// compressibility_pct% of the block one repeated byte). Used to check
// read-back of written blocks and to feed the replays.
void FillWorkloadBlock(uint64_t seed, uint32_t compressibility_pct,
                       uint64_t block_no, vde::MutByteSpan out);

struct ReplayInput {
  vde::core::EncryptionSpec spec;  // iv_seed set
  uint64_t io_size = 4096;
  uint64_t seed = 1;
  uint32_t compressibility_pct = 0;
  vde::objstore::StoreConfig store;
};

// Times, on the host:
//   core     EncryptionFormat::MakeWrite / FinishRead per 4 KiB block
//   crypto   the spec's cipher and HMAC-SHA256 over 4 KiB blocks
//   util     Crc32c at the workload's transaction payload size, and
//            LzCompress + LzDecompress over the workload's blocks
//   objstore ObjectStore::Apply / ExecuteRead of the workload's
//            transactions, driven to completion on a standalone store
// Each replayed read must decrypt back to the content written, else
// `error` is set.
struct ReplayResult {
  std::vector<Metric> metrics;
  std::string error;
};

ReplayResult ReplayLayers(const ReplayInput& in, Spans& spans,
                          uint64_t trace);

}  // namespace vdebench
