// Client-side IV-metadata cache on the workloads it exists for (§3.1
// "metadata in memory"): metadata fetch bytes and latency for reread and
// RMW-heavy streams, cache off vs on, across the metadata geometries.
//
// "Off" runs use an enabled cache with ZERO capacity: the consult path is
// live and counts every extent's metadata fetch, but nothing is retained —
// the same IO the disabled cache issues, with the accounting needed for
// the comparison. A separate passthrough section proves that equivalence
// on the sim clock (zero-capacity AND fully-disabled runs must be
// bit-identical).
//
// Self-check gates (exit non-zero on regression):
//  - reread + RMW: cache-on fetches strictly fewer metadata bytes than
//    cache-off for the object-end and OMAP geometries, and hit-path
//    latency does not regress;
//  - passthrough: disabled-cache and zero-capacity runs end at the SAME
//    sim-clock time (the cache adds zero cost to the miss/disabled path).
//
// Usage: bench_iv_cache [--quick]
#include <cstdio>

#include "cluster_fixture.h"

namespace {

using namespace vde;

rbd::IvCacheConfig CacheOff() {
  rbd::IvCacheConfig c;
  c.enabled = true;
  c.max_objects = 0;  // consult + count, retain nothing
  return c;
}

rbd::IvCacheConfig CacheOn() {
  rbd::IvCacheConfig c;
  c.enabled = true;
  c.max_objects = 64;
  return c;
}

rbd::IvCacheConfig CacheDisabled() { return {}; }

// One workload point on a fresh single-replica cluster (store/metadata
// traffic maps 1:1 to client transactions).
bench::Outcome RunCachePoint(const core::EncryptionSpec& spec,
                             const rbd::IvCacheConfig& cache,
                             const workload::FioConfig& fio_template,
                             uint64_t ops) {
  bench::Point point;
  point.cluster = bench::SmallCluster();
  rbd::ImageOptions options = bench::BenchImage(1ull << 30, spec);
  options.iv_cache = cache;
  workload::FioConfig fio = fio_template;
  fio.total_ops = ops;
  point.tenants.push_back({"ivbench", options, fio, /*prefill=*/true});
  point.after_prefill = {bench::Step::kFlush, bench::Step::kDrain};
  point.after_run = {bench::Step::kFlush, bench::Step::kDrain};
  return bench::RunFio(point, "RunCachePoint " + spec.Name());
}

workload::FioConfig RereadFio() {
  workload::FioConfig fio;
  fio.is_write = false;
  fio.io_size = 4096;
  fio.queue_depth = 16;
  fio.working_set = 8ull << 20;  // 2048 blocks: every op is a reread soon
  return fio;
}

workload::FioConfig RmwFio() {
  // The db-style 512 B stream: every block's first write pays one RMW
  // block read — the single-block extents where every geometry profits.
  workload::FioConfig fio = workload::FioConfig::Db();
  fio.working_set = 8ull << 20;
  return fio;
}

const core::EncryptionSpec kObjectEnd{core::CipherMode::kXtsRandom,
                                      core::IvLayout::kObjectEnd};
const core::EncryptionSpec kOmap{core::CipherMode::kXtsRandom,
                                 core::IvLayout::kOmap};
const core::EncryptionSpec kUnaligned{core::CipherMode::kXtsRandom,
                                      core::IvLayout::kUnaligned};

// Prints one row and records its verdict; `gated` controls whether this
// spec participates in the exit code (unaligned is informational: its
// multi-block reads stay on the full-fetch path by design).
void ReportSection(bench::Gates& gates, const char* workload,
                   const core::EncryptionSpec& spec,
                   const bench::Outcome& off_run, const bench::Outcome& on_run,
                   bool gated) {
  const rbd::ImageStats& off = off_run.results[0].image;
  const rbd::ImageStats& on = on_run.results[0].image;
  const double off_p50_us = off_run.results[0].latency_ns.Percentile(50) / 1e3;
  const double on_p50_us = on_run.results[0].latency_ns.Percentile(50) / 1e3;
  const double ratio =
      off.iv_meta_bytes_fetched > 0
          ? static_cast<double>(on.iv_meta_bytes_fetched) /
                static_cast<double>(off.iv_meta_bytes_fetched)
          : 1.0;
  const bool fewer_bytes = on.iv_meta_bytes_fetched < off.iv_meta_bytes_fetched;
  const bool latency_ok = on_p50_us <= off_p50_us * 1.01;
  const bool pass =
      off_run.ok && on_run.ok && (!gated || (fewer_bytes && latency_ok));
  gates.Record(pass);
  std::printf("%8s %-11s | %10llu %10llu (%.2fx) | hits=%llu saved=%llu | "
              "p50 %6.0f -> %6.0f us %s\n",
              workload, bench::LayoutName(spec.layout),
              static_cast<unsigned long long>(off.iv_meta_bytes_fetched),
              static_cast<unsigned long long>(on.iv_meta_bytes_fetched), ratio,
              static_cast<unsigned long long>(on.iv_hits),
              static_cast<unsigned long long>(on.iv_meta_bytes_saved),
              off_p50_us, on_p50_us, gated ? bench::PassFail(pass) : "(info)");
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::HasFlag(argc, argv, "--quick");
  const uint64_t reread_ops = quick ? 1024 : 4096;
  const uint64_t rmw_ops = quick ? 1024 : 4096;

  std::printf("IV-metadata cache: metadata fetch bytes, cache off "
              "(zero-capacity) vs on (%llu reread / %llu rmw ops)\n",
              static_cast<unsigned long long>(reread_ops),
              static_cast<unsigned long long>(rmw_ops));
  std::printf("%8s %-11s | %10s %10s %7s | %s\n", "workload", "layout",
              "off bytes", "on bytes", "", "cache-on detail");

  bench::Gates gates;
  struct Scenario {
    const char* name;
    workload::FioConfig fio;
    uint64_t ops;
  };
  const Scenario scenarios[] = {{"reread", RereadFio(), reread_ops},
                                {"rmw", RmwFio(), rmw_ops}};
  for (const Scenario& sc : scenarios) {
    for (const auto* spec : {&kObjectEnd, &kOmap, &kUnaligned}) {
      const bool gated = spec != &kUnaligned;
      const bench::Outcome off =
          RunCachePoint(*spec, CacheOff(), sc.fio, sc.ops);
      const bench::Outcome on = RunCachePoint(*spec, CacheOn(), sc.fio, sc.ops);
      ReportSection(gates, sc.name, *spec, off, on, gated);
      std::fflush(stdout);
    }
  }

  // Passthrough: a disabled cache and a zero-capacity cache must issue
  // byte-identical IO — same sim clock, to the nanosecond — on a mixed
  // read/write/discard stream (the miss path carries zero overhead).
  std::printf("\nPassthrough (disabled vs zero-capacity cache, identical "
              "seeds)\n");
  bool passthrough_ok = true;
  workload::FioConfig mixed;
  mixed.rw_mix_pct = 50;
  mixed.io_size = 3072;  // sub-block + straddling: exercises the RMW path
  mixed.offset_align = 512;
  mixed.discard_pct = 5;
  mixed.queue_depth = 8;
  mixed.working_set = 8ull << 20;
  const uint64_t pt_ops = quick ? 512 : 2048;
  for (const auto* spec : {&kObjectEnd, &kOmap, &kUnaligned}) {
    const bench::Outcome disabled =
        RunCachePoint(*spec, CacheDisabled(), mixed, pt_ops);
    const bench::Outcome zero = RunCachePoint(*spec, CacheOff(), mixed, pt_ops);
    const bool same = disabled.ok && zero.ok && disabled.clock == zero.clock;
    passthrough_ok = passthrough_ok && same;
    std::printf("  %-11s clock delta %lld ns %s\n",
                bench::LayoutName(spec->layout),
                static_cast<long long>(zero.clock) -
                    static_cast<long long>(disabled.clock),
                same ? "(identical)" : "(OVERHEAD!)");
  }
  gates.Report("passthrough", passthrough_ok);
  return gates.Finish();
}
