// Multi-tenant QoS: noisy-neighbor isolation on one shared client.
//
// Scenario: a latency-sensitive victim (4 KiB random reads) and a
// bandwidth-hungry aggressor (64 KiB deep-queue write stream) serve from
// the same client process against the same small cluster. Three runs:
//
//   solo       victim alone — the baseline p99
//   qos off    both tenants, unbounded dispatch (head behavior): the
//              aggressor floods the OSDs and the victim's tail collapses
//   qos on     both tenants on one qos::Scheduler: the aggressor is
//              rate-limited (bandwidth bucket) and depth-capped
//
// Acceptance: with QoS on, victim p99 stays within 2x of solo while the
// aggressor is held to its cap; with QoS off it degrades well past that.
// A second table shows the passthrough requirement: a disabled policy must
// not move the simulated clock by a single nanosecond on the fig3/fig4
// single-image shapes.
//
// Usage: bench_qos [--quick]
#include <cstdio>
#include <string>

#include "cluster_fixture.h"
#include "qos/scheduler.h"

namespace {

using namespace vde;

const core::EncryptionSpec kObjectEnd{core::CipherMode::kXtsRandom,
                                      core::IvLayout::kObjectEnd};

rbd::ImageOptions TenantImage(std::shared_ptr<qos::Scheduler> qos,
                              qos::QosPolicy policy) {
  rbd::ImageOptions o = bench::BenchImage(4ull << 30, kObjectEnd);
  o.qos_scheduler = std::move(qos);
  o.qos = policy;
  return o;
}

workload::FioConfig VictimFio(uint64_t ops) {
  workload::FioConfig fio;
  fio.io_size = 4096;
  fio.queue_depth = 8;
  fio.total_ops = ops;
  fio.working_set = 64ull << 20;
  return fio;
}

enum class Mode { kSolo, kContendedOff, kContendedOn };

// One full scenario on a fresh cluster. The aggressor runs as a background
// tenant: it hammers for exactly as long as the victim measures. Its image
// is created once the victim's working set is prefilled. Results are the
// victim's, then (contended) the aggressor's.
bench::Outcome RunScenario(Mode mode, uint64_t victim_ops) {
  std::shared_ptr<qos::Scheduler> qos;
  qos::QosPolicy victim_policy, aggressor_policy;
  if (mode == Mode::kContendedOn) {
    // Isolation against a bandwidth hog comes from capping the hog:
    // the depth cap bounds how many heavy 64K writes sit in the OSD
    // queues at once, and the bandwidth bucket holds its sustained
    // rate to the ceiling. (DWRR weights arbitrate a scarce host-wide
    // window — Scheduler::Config::max_inflight_total — which this
    // scenario deliberately leaves unbounded: squeezing the victim's
    // own dispatch window would hurt the latencies we protect; the
    // weighted-sharing behavior is covered by tests/qos/.)
    qos = std::make_shared<qos::Scheduler>();
    victim_policy.enabled = true;
    aggressor_policy.enabled = true;
    aggressor_policy.max_bps = 64ull << 20;  // 64 MiB/s ceiling
    aggressor_policy.max_queue_depth = 4;
  }
  bench::Point point;
  point.cluster = bench::SmallCluster();
  point.tenants.push_back({"victim", TenantImage(qos, victim_policy),
                           VictimFio(victim_ops), /*prefill=*/true});
  point.after_prefill = {bench::Step::kFlush, bench::Step::kDrain};
  point.after_run = {};
  if (mode != Mode::kSolo) {
    workload::FioConfig aggressor_fio;
    aggressor_fio.is_write = true;
    aggressor_fio.io_size = 64 * 1024;
    aggressor_fio.queue_depth = 32;
    aggressor_fio.total_ops = 1u << 30;  // bounded by the victim finishing
    aggressor_fio.working_set = 256ull << 20;
    point.tenants.push_back({"aggressor", TenantImage(qos, aggressor_policy),
                             aggressor_fio, /*prefill=*/false,
                             /*background=*/true});
    point.after_run = {bench::Step::kFlush, bench::Step::kDrain};
  }
  return bench::RunFio(
      point, "scenario (mode " + std::to_string(static_cast<int>(mode)) + ")");
}

// Prints the victim's columns of one scenario row.
void VictimColumns(const char* scenario, const bench::Outcome& run) {
  const workload::FioResult& victim = run.results[0];
  std::printf("%-18s | %9.0f %9.0f %9.0f | ", scenario,
              victim.latency_ns.Percentile(50) / 1e3,
              victim.latency_ns.Percentile(99) / 1e3, victim.Iops());
}

double VictimP99(const bench::Outcome& run) {
  return run.results[0].latency_ns.Percentile(99) / 1e3;
}

// Passthrough check: the same single-image point with no scheduler vs an
// attached-but-disabled one must land on the identical simulated clock.
bench::Outcome RunPassthroughPoint(uint64_t io_size, bool is_write,
                                   bool attach, uint64_t ops) {
  std::shared_ptr<qos::Scheduler> qos;
  if (attach) qos = std::make_shared<qos::Scheduler>();
  workload::FioConfig fio;
  fio.is_write = is_write;
  fio.io_size = io_size;
  fio.queue_depth = 32;
  fio.total_ops = ops;
  fio.working_set = 128ull << 20;
  bench::Point point;
  point.cluster = bench::SmallCluster();
  point.tenants.push_back({"pt", TenantImage(qos, qos::QosPolicy{}), fio,
                           /*prefill=*/!is_write});
  point.after_run = {};
  return bench::RunFio(point, "passthrough point");
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::HasFlag(argc, argv, "--quick");
  const uint64_t victim_ops = quick ? 256 : 1024;

  std::printf("Noisy neighbor: victim 4K randread QD8 vs aggressor 64K "
              "write QD32, one client (%llu victim ops)\n",
              static_cast<unsigned long long>(victim_ops));
  const bench::Outcome solo = RunScenario(Mode::kSolo, victim_ops);
  const bench::Outcome off = RunScenario(Mode::kContendedOff, victim_ops);
  const bench::Outcome on = RunScenario(Mode::kContendedOn, victim_ops);
  const workload::FioResult& on_aggressor = on.results[1];
  std::printf("%-18s | %9s %9s %9s | %12s\n", "scenario", "p50(us)",
              "p99(us)", "iops", "aggr MB/s");
  VictimColumns("victim solo", solo);
  std::printf("%12s\n", "-");
  VictimColumns("contended, QoS off", off);
  std::printf("%12.0f\n", off.results[1].BandwidthMBps());
  VictimColumns("contended, QoS on", on);
  std::printf("%12.0f\n", on_aggressor.BandwidthMBps());
  const double solo_p99 = VictimP99(solo);
  const double degraded = solo_p99 > 0 ? VictimP99(off) / solo_p99 : 0;
  const double isolated = solo_p99 > 0 ? VictimP99(on) / solo_p99 : 0;
  std::printf("victim p99 vs solo: QoS off %.1fx, QoS on %.1fx "
              "(aggressor throttled %llu times, held to %.0f MB/s)\n",
              degraded, isolated,
              static_cast<unsigned long long>(
                  on_aggressor.image.qos_throttled),
              on_aggressor.BandwidthMBps());
  bench::Gates gates;
  gates.Report("isolation",
               solo.ok && off.ok && on.ok && isolated <= 2.0 &&
                   degraded > isolated,
               " (acceptance: QoS-on p99 within 2x of solo)\n\n");

  std::printf("Passthrough overhead (disabled policy vs no scheduler, "
              "identical seeds)\n");
  const uint64_t pt_ops = quick ? 192 : 512;
  bool passthrough_ok = true;
  struct Shape {
    const char* name;
    uint64_t io_size;
    bool is_write;
  };
  const Shape shapes[] = {{"4K randread", 4096, false},
                          {"4K randwrite", 4096, true},
                          {"64K randread", 65536, false},
                          {"64K randwrite", 65536, true}};
  for (const Shape& s : shapes) {
    const bench::Outcome bare =
        RunPassthroughPoint(s.io_size, s.is_write, /*attach=*/false, pt_ops);
    const bench::Outcome attached =
        RunPassthroughPoint(s.io_size, s.is_write, /*attach=*/true, pt_ops);
    const bool same = bare.ok && attached.ok && bare.clock == attached.clock;
    passthrough_ok = passthrough_ok && same;
    std::printf("  %-13s %8.1f MB/s | clock delta %lld ns %s\n", s.name,
                attached.results[0].BandwidthMBps(),
                static_cast<long long>(attached.clock) -
                    static_cast<long long>(bare.clock),
                same ? "(identical)" : "(OVERHEAD!)");
  }
  gates.Report("passthrough", passthrough_ok);
  return bench::ExitCode(gates.ok());
}
