// Multi-core pipelined data plane bench: the sharded executor, the
// split objstore apply, and guest-side striping, measured together.
//
// Three self-check gates (exit non-zero on regression):
//
//  1. CLOCK IDENTITY — with one core and default (no-stripe) layout,
//     the N-core CPU model lands on the SAME simulated clock as the
//     disabled model for a qd=1 sequential write run: per-shard
//     charges that never queue must cost exactly what the legacy
//     serial Sleep charged.
//
//  2. STRIPING — on 4 cores, a single image doing sequential 4 KiB
//     writes at depth 32 gets faster when striped (16 KiB units
//     across 8 objects) than with the contiguous 4 MiB layout: the
//     stripe spreads the in-flight window across objects, so commit
//     bookkeeping runs on different cores instead of serializing on
//     one object's lock.
//
//  3. CORE SCALING — four tenants doing random 4 KiB writes at depth
//     8 each scale with the core count: aggregate IOPS at 2 cores is
//     at least 1.7x the 1-core figure, and at 4 cores at least 3.0x.
//
// The cluster uses a deliberately CPU-heavy objstore::CostModel
// (commit bookkeeping raised to 120 us) so the gates measure the core
// model, not the network or the NVMe queues.
//
// Usage: bench_pipeline [--quick]
#include <cstdio>
#include <string>

#include "cluster_fixture.h"

namespace {

using namespace vde;

// Small cluster, replication 1, with the commit stage inflated via the
// shared cost model (the same struct the object store charges from).
rados::ClusterConfig PipelineCluster() {
  rados::ClusterConfig cfg = bench::SmallCluster();
  cfg.store.costs.write_op_apply_cost = 120 * sim::kUs;
  return cfg;
}

// One point on a fresh cluster: `images` identical tenants (1 = plain
// FioRunner), each running `fio` with a per-tenant seed. cores == 0
// leaves the N-core CPU model disabled (the legacy serial charge).
bench::Outcome RunFioPoint(size_t cores, uint64_t stripe_unit,
                           uint64_t stripe_count, size_t images,
                           workload::FioConfig fio) {
  // The LUKS2 baseline.
  rbd::ImageOptions options = bench::BenchImage(1ull << 30);
  options.stripe_unit = stripe_unit;
  options.stripe_count = stripe_count;
  bench::Point point;
  point.cluster = PipelineCluster();
  point.cores = static_cast<unsigned>(cores);
  for (size_t i = 0; i < images; ++i) {
    fio.seed = 7 + i;
    point.tenants.push_back({"pipe" + std::to_string(i), options, fio});
  }
  point.after_run = {bench::Step::kFlush, bench::Step::kDrain};
  return bench::RunFio(
      point, "RunFioPoint cores=" + std::to_string(cores) +
                 " su=" + std::to_string(stripe_unit) +
                 " sc=" + std::to_string(stripe_count) +
                 " images=" + std::to_string(images));
}

// Aggregate IOPS over all tenants of a point.
double Iops(const bench::Outcome& run) {
  double iops = 0;
  for (const workload::FioResult& r : run.results) iops += r.Iops();
  return iops;
}

workload::FioConfig SeqWriteFio(uint64_t ops, size_t queue_depth) {
  workload::FioConfig fio;
  fio.is_write = true;
  fio.pattern = workload::FioConfig::Pattern::kSequential;
  fio.io_size = 4096;
  fio.queue_depth = queue_depth;
  fio.total_ops = ops;
  return fio;
}

workload::FioConfig RandWriteFio(uint64_t ops) {
  workload::FioConfig fio;
  fio.is_write = true;
  fio.pattern = workload::FioConfig::Pattern::kRandom;
  fio.io_size = 4096;
  fio.queue_depth = 8;
  fio.total_ops = ops;
  fio.working_set = 256ull << 20;  // ~64 objects: spreads shards evenly
  return fio;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::HasFlag(argc, argv, "--quick");
  bench::Gates gates;

  // --- Gate 1: 1-core model == disabled model, exactly ------------------
  {
    const workload::FioConfig fio = SeqWriteFio(quick ? 256 : 1024, 1);
    const bench::Outcome off = RunFioPoint(0, 0, 1, 1, fio);
    const bench::Outcome one = RunFioPoint(1, 0, 1, 1, fio);
    const bool pass = gates.Record(
        off.ok && one.ok && off.clock == one.clock &&
        off.results[0].ops == one.results[0].ops &&
        off.results[0].bytes == one.results[0].bytes);
    std::printf("Clock identity (qd=1 seq 4K write, no stripe)\n");
    std::printf("  disabled %llu ns vs 1-core %llu ns: %s\n",
                static_cast<unsigned long long>(off.clock),
                static_cast<unsigned long long>(one.clock),
                bench::PassFail(pass));
    std::fflush(stdout);
  }

  // --- Gate 2: striping beats the contiguous layout ---------------------
  {
    const workload::FioConfig fio = SeqWriteFio(quick ? 1500 : 6000, 32);
    const bench::Outcome flat = RunFioPoint(4, 0, 1, 1, fio);
    const bench::Outcome striped = RunFioPoint(4, 16 * 1024, 8, 1, fio);
    const double ratio = Iops(flat) > 0 ? Iops(striped) / Iops(flat) : 0;
    const bool pass = gates.Record(flat.ok && striped.ok && ratio >= 1.3);
    std::printf("\nStriping (4 cores, seq 4K write qd=32)\n");
    std::printf("  %-22s %10.0f iops\n", "contiguous 4M", Iops(flat));
    std::printf("  %-22s %10.0f iops  (%.2fx, need >=1.30x): %s\n",
                "su=16K sc=8", Iops(striped), ratio, bench::PassFail(pass));
    std::fflush(stdout);
  }

  // --- Gate 3: multi-tenant aggregate scales with cores -----------------
  {
    const workload::FioConfig fio = RandWriteFio(quick ? 700 : 2000);
    const bench::Outcome c1 = RunFioPoint(1, 0, 1, 4, fio);
    const bench::Outcome c2 = RunFioPoint(2, 0, 1, 4, fio);
    const bench::Outcome c4 = RunFioPoint(4, 0, 1, 4, fio);
    const double s2 = Iops(c1) > 0 ? Iops(c2) / Iops(c1) : 0;
    const double s4 = Iops(c1) > 0 ? Iops(c4) / Iops(c1) : 0;
    std::printf("\nCore scaling (4 tenants, rand 4K write qd=8 each)\n");
    std::printf("  %-8s %12s %8s\n", "cores", "agg_iops", "scale");
    std::printf("  %-8d %12.0f %8s\n", 1, Iops(c1), "1.00x");
    std::printf("  %-8d %12.0f %7.2fx  (need >=1.70x)\n", 2, Iops(c2), s2);
    std::printf("  %-8d %12.0f %7.2fx  (need >=3.00x)\n", 4, Iops(c4), s4);
    gates.Report("  scaling",
                 c1.ok && c2.ok && c4.ok && s2 >= 1.7 && s4 >= 3.0);
    std::fflush(stdout);
  }

  return gates.Finish();
}
