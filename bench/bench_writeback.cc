// Write-back coalescing on the database-style 512 B stream (the paper's
// worst case for length-preserving encryption plus per-sector metadata,
// §3.1): object-store transactions and RMW block reads per guest write,
// with the per-image write-back buffer off (head behavior: one RMW read +
// one transaction per sub-block write) vs on (adjacent writes merge in the
// staging buffer and flush once per block/window).
//
// Usage: bench_writeback [--quick]
#include <cstdio>

#include "cluster_fixture.h"

namespace {

using namespace vde;

struct WbPoint {
  double txns_per_write = 0;
  double rmw_per_write = 0;
  double p50_us = 0;
  uint64_t wb_hits = 0;
  uint64_t wb_flushes = 0;
};

WbPoint RunDbPoint(const core::EncryptionSpec& spec, bool coalesce,
                   uint64_t ops) {
  bench::Point point;
  // Single replica so store transaction counts map 1:1 to client
  // transactions.
  point.cluster = bench::SmallCluster();
  rbd::ImageOptions options = bench::BenchImage(1ull << 30, spec);
  options.writeback.coalesce = coalesce;
  workload::FioConfig fio = workload::FioConfig::Db();
  fio.total_ops = ops;
  fio.working_set = 64ull << 20;
  point.tenants.push_back({"wbbench", options, fio, /*prefill=*/true});
  // The durability barrier after the run: staged blocks flush there and
  // count too.
  point.after_prefill = {bench::Step::kFlush, bench::Step::kDrain};
  point.after_run = {bench::Step::kFlush, bench::Step::kDrain};

  WbPoint out;
  uint64_t txns_before = 0, rmw_before = 0, writes_before = 0;
  point.probe = [&](bench::Phase phase, rados::Cluster& cluster,
                    const bench::Images& images) {
    const rbd::ImageStats& stats = images[0]->stats();
    if (phase == bench::Phase::kRunStart) {
      txns_before = cluster.TotalStoreStats().transactions;
      rmw_before = stats.rmw_blocks;
      writes_before = stats.writes;
      return;
    }
    const double writes = static_cast<double>(stats.writes - writes_before);
    const uint64_t txns = cluster.TotalStoreStats().transactions;
    out.txns_per_write = static_cast<double>(txns - txns_before) / writes;
    out.rmw_per_write =
        static_cast<double>(stats.rmw_blocks - rmw_before) / writes;
    out.wb_hits = stats.wb_hits;
    out.wb_flushes = stats.wb_flushes;
  };
  const bench::Outcome run = bench::RunFio(
      point, "RunDbPoint " + spec.Name() + (coalesce ? " coalesce" : ""));
  out.p50_us = run.results[0].latency_ns.Percentile(50) / 1000.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vde;
  using namespace vde::bench;

  const uint64_t ops = HasFlag(argc, argv, "--quick") ? 1024 : 4096;

  std::printf("Write-back coalescing, db workload (512 B sequential stream, "
              "QD=8, %llu ops)\n",
              static_cast<unsigned long long>(ops));
  std::printf("%12s | %-25s | %-25s | speedup\n", "",
              "write-back OFF (head)", "write-back ON");
  std::printf("%12s | %12s %12s | %12s %12s |\n", "config", "txns/write",
              "rmw/write", "txns/write", "rmw/write");
  for (const auto& named : PaperSpecs()) {
    const WbPoint off = RunDbPoint(named.spec, /*coalesce=*/false, ops);
    const WbPoint on = RunDbPoint(named.spec, /*coalesce=*/true, ops);
    std::printf("%12s | %12.3f %12.3f | %12.3f %12.3f | %5.1fx txns  "
                "(hits=%llu flushes=%llu, p50 %0.0fus -> %0.0fus)\n",
                named.name, off.txns_per_write, off.rmw_per_write,
                on.txns_per_write, on.rmw_per_write,
                on.txns_per_write > 0
                    ? off.txns_per_write / on.txns_per_write
                    : 0.0,
                static_cast<unsigned long long>(on.wb_hits),
                static_cast<unsigned long long>(on.wb_flushes), off.p50_us,
                on.p50_us);
    std::fflush(stdout);
  }
  return ExitCode();
}
