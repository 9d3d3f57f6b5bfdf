// Shared bench fixture: the paper's testbed (§3.2) as a simulated cluster,
// the four compared configurations, and a single-point runner.
//
// Every figure bench builds a FRESH cluster per (spec, io_size, direction)
// point — no cross-contamination, bounded memory, deterministic output.
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/types.h"
#include "rados/cluster.h"
#include "rbd/image.h"
#include "sim/scheduler.h"
#include "workload/fio.h"

namespace vde::bench {

// 3 nodes x 9 NVMe OSDs, 3x replication, 4 MiB objects, 4 KiB encryption
// sectors — the paper's defaults, with the calibrated network/OSD
// constants.
inline rados::ClusterConfig PaperCluster() {
  rados::ClusterConfig config;
  config.nodes = 3;
  config.osds_per_node = 9;
  config.replication = 3;
  config.pg_count = 128;
  return config;
}

// The four configurations of Fig. 3 / Fig. 4.
struct NamedSpec {
  const char* name;
  core::EncryptionSpec spec;
};

inline std::vector<NamedSpec> PaperSpecs() {
  core::EncryptionSpec luks;  // defaults: kXtsLba / no metadata
  core::EncryptionSpec unaligned{core::CipherMode::kXtsRandom,
                                 core::IvLayout::kUnaligned};
  core::EncryptionSpec object_end{core::CipherMode::kXtsRandom,
                                  core::IvLayout::kObjectEnd};
  core::EncryptionSpec omap{core::CipherMode::kXtsRandom,
                            core::IvLayout::kOmap};
  return {{"LUKS2", luks},
          {"Unaligned", unaligned},
          {"Object end", object_end},
          {"OMAP", omap}};
}

// The paper sweeps 4 KiB .. 4 MiB.
inline std::vector<uint64_t> PaperIoSizes() {
  std::vector<uint64_t> sizes;
  for (uint64_t s = 4096; s <= (4ull << 20); s *= 2) sizes.push_back(s);
  return sizes;  // 4K..4M, 11 points
}

// Measured IOs per point: enough for a stable deterministic estimate while
// keeping wall-clock (real AES of every byte!) sane.
inline uint64_t OpsForSize(uint64_t io_size) {
  const uint64_t budget = 96ull << 20;  // bytes measured per point
  return std::max<uint64_t>(96, std::min<uint64_t>(2048, budget / io_size));
}

struct PointResult {
  double mbps = 0;
  double iops = 0;
  double p50_us = 0;
  double p99_us = 0;
};

// Runs one point on a fresh cluster. Reads prefill the working set first so
// every block has valid ciphertext + IV.
inline PointResult RunPoint(const core::EncryptionSpec& spec,
                            uint64_t io_size, bool is_write,
                            uint64_t seed = 1,
                            const rados::ClusterConfig& cluster_config =
                                PaperCluster(),
                            uint64_t ops_override = 0) {
  PointResult point;
  sim::Scheduler sched;
  bool ok = false;

  auto body = [&]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(cluster_config);
    if (!cluster.ok()) co_return;
    rbd::ImageOptions options;
    options.size = 64ull << 30;  // 64 GiB image, as in the paper
    options.enc = spec;
    options.enc.iv_seed = seed;  // deterministic IV stream
    options.luks.pbkdf2_iterations = 10;
    options.luks.af_stripes = 8;
    auto image =
        co_await rbd::Image::Create(**cluster, "bench", "pw", options);
    if (!image.ok()) co_return;

    workload::FioConfig fio;
    fio.is_write = is_write;
    fio.io_size = io_size;
    fio.queue_depth = 32;
    fio.total_ops = ops_override ? ops_override : OpsForSize(io_size);
    // Spread the working set across many objects (the paper uses a full
    // 64 GiB image): small-IO points must not serialize on a few PGs.
    fio.working_set =
        std::max<uint64_t>(fio.total_ops * io_size, 768ull << 20);
    fio.seed = seed;
    workload::FioRunner runner(**image, fio);
    if (!is_write) {
      if (!(co_await runner.Prefill()).ok()) co_return;
      co_await (*cluster)->Drain();
    }
    auto result = co_await runner.Run();
    if (!result.ok()) co_return;
    point.mbps = result->BandwidthMBps();
    point.iops = result->Iops();
    point.p50_us = result->latency_ns.Percentile(50) / 1000.0;
    point.p99_us = result->latency_ns.Percentile(99) / 1000.0;
    co_await (*cluster)->Drain();
    ok = true;
  };

  sched.Spawn(body());
  sched.Run();
  if (!ok) {
    std::fprintf(stderr, "RunPoint failed: %s io=%llu write=%d\n",
                 spec.Name().c_str(),
                 static_cast<unsigned long long>(io_size), is_write);
  }
  return point;
}

inline std::string HumanSize(uint64_t bytes) {
  char buf[32];
  if (bytes >= (1ull << 20)) {
    std::snprintf(buf, sizeof(buf), "%lluM",
                  static_cast<unsigned long long>(bytes >> 20));
  } else {
    std::snprintf(buf, sizeof(buf), "%lluK",
                  static_cast<unsigned long long>(bytes >> 10));
  }
  return buf;
}

}  // namespace vde::bench
