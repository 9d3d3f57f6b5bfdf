// The one bench harness: the paper's testbed (§3.2) as a simulated
// cluster, the bench image defaults, the four compared configurations, one
// point runner, and the flag parser, gate reporter and JSON writer every
// bench shares.
//
// Every bench point builds a FRESH cluster on its own sim::Scheduler — no
// cross-contamination, bounded memory, deterministic output.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
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

// 1 node x 4 OSDs, a single replica, 32 PGs: store transactions and
// metadata traffic map 1:1 to client transactions (replication multiplies
// both sides equally anyway), and a point stays small.
inline rados::ClusterConfig SmallCluster() {
  rados::ClusterConfig config = PaperCluster();
  config.nodes = 1;
  config.osds_per_node = 4;
  config.replication = 1;
  config.pg_count = 32;
  return config;
}

// Image options with the bench defaults: a cheap LUKS key derivation (10
// PBKDF2 iterations, 8 AF stripes) and IV seed 1, so the master key and
// every IV are the same on every run.
inline rbd::ImageOptions BenchImage(uint64_t size,
                                    const core::EncryptionSpec& spec = {}) {
  rbd::ImageOptions options;
  options.size = size;
  options.enc = spec;
  options.enc.iv_seed = 1;
  options.luks.pbkdf2_iterations = 10;
  options.luks.af_stripes = 8;
  return options;
}

// The layout's short name in bench tables: "unaligned", "object-end",
// "omap" or "none".
inline const char* LayoutName(core::IvLayout layout) {
  switch (layout) {
    case core::IvLayout::kUnaligned: return "unaligned";
    case core::IvLayout::kObjectEnd: return "object-end";
    case core::IvLayout::kOmap: return "omap";
    case core::IvLayout::kNone: break;
  }
  return "none";
}

// The paper's 64 GiB image.
inline rbd::ImageOptions PaperImage(const core::EncryptionSpec& spec) {
  return BenchImage(64ull << 30, spec);
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

// --- Flags, exit code, gates, artifacts ---

// True when `flag` appears verbatim on the command line.
inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

// Points that failed to run in this process. A failed point still prints
// its (zeroed) row, but the bench must not exit 0 on it.
inline int& FailedPoints() {
  static int failed = 0;
  return failed;
}

// The process exit code: non-zero if a gate failed or any point failed.
inline int ExitCode(bool gates_ok = true) {
  return gates_ok && FailedPoints() == 0 ? 0 : 1;
}

inline const char* PassFail(bool pass) { return pass ? "PASS" : "FAIL"; }

// Collects a bench's gate verdicts.
class Gates {
 public:
  // Records a verdict the caller prints itself (a PASS/FAIL table cell).
  bool Record(bool pass) {
    ok_ = ok_ && pass;
    return pass;
  }
  // Records a verdict and prints "<label>: PASS" or "<label>: FAIL",
  // followed by `tail`.
  bool Report(const char* label, bool pass, const char* tail = "\n") {
    std::printf("%s: %s%s", label, PassFail(pass), tail);
    return Record(pass);
  }
  bool ok() const { return ok_; }
  // Prints the final "gates: PASS|FAIL" verdict and returns the exit code.
  int Finish() {
    std::printf("gates: %s\n", PassFail(ok_));
    return ExitCode(ok_);
  }

 private:
  bool ok_ = true;
};

// Writes a bench artifact (JSON summary, trace) to `path`.
inline bool WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t n = std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return n == content.size();
}

// --- Running simulations ---

// Runs `body` (a coroutine factory) on a fresh scheduler until no event is
// left and returns the final sim clock: the frame for flows that drive the
// cluster themselves instead of through RunFio. `body` outlives the run, so
// its by-reference captures stay valid.
template <typename Body>
sim::SimTime RunSim(Body body) {
  sim::Scheduler sched;
  sched.Spawn(body());
  return sched.Run();
}

// One image of a point and the workload that drives it. The image name
// stays per bench: object names hash to PGs, so it sets the sim numbers.
struct Tenant {
  std::string image;
  rbd::ImageOptions options;
  workload::FioConfig fio;
  // Write the working set right after creating this image, then take the
  // point's `after_prefill` steps — before the next image is created.
  bool prefill = false;
  // A noisy neighbor: stopped once every other tenant met its op quota.
  bool background = false;
};

// A cluster step around the measured run: flush the images it applies to
// (the one just prefilled, or every image after the run), or drain the
// cluster.
enum class Step { kFlush, kDrain };

// When Point::probe is called.
enum class Phase { kRunStart, kEnd };

using Images = std::vector<std::shared_ptr<rbd::Image>>;

// One fio point: a fresh scheduler, a cluster, one image per tenant, the
// measured run, and the flush/drain steps the caller asks for, in order.
struct Point {
  rados::ClusterConfig cluster = PaperCluster();
  unsigned cores = 0;  // > 0 enables the N-core CPU model
  // One tenant runs on a FioRunner, more on a MultiFioRunner.
  std::vector<Tenant> tenants;
  std::vector<Step> after_prefill{Step::kDrain};
  std::vector<Step> after_run{Step::kDrain};
  // Read-only look at the cluster and the images right before the measured
  // run and after the last step (counter deltas, capacity gauges, trace
  // exports). It must not issue IO; it is not called if the point failed.
  std::function<void(Phase, rados::Cluster&, const Images&)> probe;
};

struct Outcome {
  bool ok = false;
  sim::SimTime clock = 0;  // final sim clock, once no event is left
  uint64_t events = 0;     // events the scheduler processed
  // One per tenant, in tenant order; all zero if the point failed.
  std::vector<workload::FioResult> results;
};

namespace internal {

inline sim::Task<Status> TakeSteps(const std::vector<Step>& steps,
                                   rados::Cluster& cluster,
                                   const Images& images) {
  for (const Step step : steps) {
    if (step == Step::kDrain) {
      co_await cluster.Drain();
      continue;
    }
    for (const auto& image : images) {
      VDE_CO_RETURN_IF_ERROR(co_await image->Flush());
    }
  }
  co_return Status::Ok();
}

inline sim::Task<Status> RunBody(const Point& point, Outcome& out) {
  auto cluster = co_await rados::Cluster::Create(point.cluster);
  if (!cluster.ok()) co_return cluster.status();
  Images images;
  std::vector<workload::FioTenant> tenants;
  for (const Tenant& t : point.tenants) {
    auto image = co_await rbd::Image::Create(**cluster, t.image, "pw",
                                             t.options);
    if (!image.ok()) co_return image.status();
    images.push_back(std::move(*image));
    if (t.prefill) {
      // Prefill leaves a FioRunner's state as it found it, so the runner
      // built for the measured run below sees the same seeds.
      workload::FioRunner filler(*images.back(), t.fio);
      VDE_CO_RETURN_IF_ERROR(co_await filler.Prefill());
      const Images just_filled{images.back()};
      VDE_CO_RETURN_IF_ERROR(
          co_await TakeSteps(point.after_prefill, **cluster, just_filled));
    }
    tenants.push_back({t.image, images.back().get(), t.fio, t.background});
  }

  if (point.probe) point.probe(Phase::kRunStart, **cluster, images);
  if (tenants.size() == 1) {
    workload::FioRunner runner(*images[0], tenants[0].fio);
    auto result = co_await runner.Run();
    if (!result.ok()) co_return result.status();
    out.results.push_back(std::move(*result));
  } else {
    workload::MultiFioRunner runner(std::move(tenants));
    auto results = co_await runner.Run();
    if (!results.ok()) co_return results.status();
    for (auto& r : *results) out.results.push_back(std::move(r.result));
  }
  VDE_CO_RETURN_IF_ERROR(
      co_await TakeSteps(point.after_run, **cluster, images));
  if (point.probe) point.probe(Phase::kEnd, **cluster, images);
  co_return Status::Ok();
}

}  // namespace internal

// Runs one point to completion. A failure is printed to stderr with
// `what` and counted in FailedPoints(), so the bench exits non-zero.
inline Outcome RunFio(const Point& point, const std::string& what) {
  Outcome out;
  Status status = Status::IoError("the simulation ended mid-point");
  sim::Scheduler sched;
  if (point.cores > 0) sched.ConfigureCores(point.cores);
  auto body = [&]() -> sim::Task<void> {
    status = co_await internal::RunBody(point, out);
  };
  sched.Spawn(body());
  out.clock = sched.Run();
  out.events = sched.events_processed();
  out.ok = status.ok();
  if (!out.ok) {
    out.results.assign(point.tenants.size(), {});
    FailedPoints()++;
    std::fprintf(stderr, "bench point failed: %s: %s\n", what.c_str(),
                 status.ToString().c_str());
  }
  return out;
}

// --- The paper-figure point ---

// One random read or write point on a fresh cluster, QD=32; returns its
// bandwidth in MB/s (0 if it failed). Reads prefill the working set first
// so every block has valid ciphertext + IV.
inline double RunPoint(const rbd::ImageOptions& image, uint64_t io_size,
                       bool is_write,
                       const rados::ClusterConfig& cluster = PaperCluster(),
                       uint64_t ops_override = 0,
                       const char* image_name = "bench") {
  workload::FioConfig fio;
  fio.is_write = is_write;
  fio.io_size = io_size;
  fio.queue_depth = 32;
  fio.total_ops = ops_override ? ops_override : OpsForSize(io_size);
  // Spread the working set across many objects (the paper uses a full
  // 64 GiB image): small-IO points must not serialize on a few PGs.
  fio.working_set = std::max<uint64_t>(fio.total_ops * io_size, 768ull << 20);
  Point point;
  point.cluster = cluster;
  point.tenants.push_back({image_name, image, fio, /*prefill=*/!is_write});
  const Outcome out =
      RunFio(point, "RunPoint " + image.enc.Name() + " io=" +
                        std::to_string(io_size) +
                        (is_write ? " write" : " read"));
  return out.results[0].BandwidthMBps();
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
