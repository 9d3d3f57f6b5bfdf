// vdebench: the repository benchmark. Runs one named workload against the
// paper cluster (3 nodes x 9 OSDs, 3x replication, 4 MiB objects) through
// the public rados::Cluster / rbd::Image / workload::FioRunner API, as a
// closed loop of `queue_depth` simulated in-flight IOs on one host thread,
// and reports both clocks:
//
//   host clock  what running the virtual disk costs this program, which
//               really encrypts, MACs, CRCs and stores every byte
//   sim clock   what the modelled Ceph RBD cluster delivers to the guest
//
// Usage:
//   vdebench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//
// One run sets up and measures the workload several times on fresh
// clusters (host figures are medians over batches and repetitions) and
// checks that every repetition reads bit-identical sim-clock figures. The
// measured phase is a fixed op count sized from --seconds, so the sim
// figures depend only on the seed and --seconds. --trace 1 traces the
// middle repetition (the obs plane on), replays single layers under host
// timers, and reports per-layer figures instead of end-to-end ones. The
// last stdout line is one JSON object.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "metrics.h"
#include "rados/cluster.h"
#include "rbd/image.h"
#include "replay.h"
#include "sim/scheduler.h"
#include "spans.h"
#include "workload/fio.h"

namespace vdebench {
namespace {

using namespace vde;

struct Workload {
  const char* name;
  core::EncryptionSpec spec;
  workload::FioConfig fio;  // shape; seed and total_ops are set per run
  bool prefill = false;
  size_t iv_cache_objects = 0;  // 0 = IV cache off
  // Nominal measured-phase rate of this program on a 4-core x86 host,
  // used only to size the op count from --seconds.
  double ops_per_host_s = 1000;
};

std::vector<Workload> Workloads() {
  std::vector<Workload> all;
  {
    // Big writes without a cache: host time goes to the object store's
    // journal (CRC + payload copies) and to stored replicas.
    Workload w{"bulk-write", {}, {}};
    w.spec.mode = core::CipherMode::kXtsRandom;
    w.spec.layout = core::IvLayout::kObjectEnd;
    w.fio.is_write = true;
    w.fio.io_size = 64 << 10;
    w.fio.queue_depth = 32;
    w.fio.working_set = 1ull << 30;
    w.ops_per_host_s = 800;
    all.push_back(w);
  }
  {
    // Authenticated small reads over twice the IV cache's reach: every
    // read verifies an HMAC, nearly every read misses the cache and
    // fetches its OMAP rows; no journal writes in the measured phase.
    Workload w{"auth-read", {}, {}};
    w.spec.mode = core::CipherMode::kXtsRandom;
    w.spec.layout = core::IvLayout::kOmap;
    w.spec.integrity = core::Integrity::kHmac;
    w.fio.is_write = false;
    w.fio.io_size = 4096;
    w.fio.queue_depth = 32;
    w.fio.working_set = 128ull << 20;
    w.prefill = true;
    w.iv_cache_objects = 16;  // 64 MiB reach: half the working set
    w.ops_per_host_s = 16000;
    all.push_back(w);
  }
  {
    // The database tenant: sub-block IO on a sector grid, mixed with
    // discards, through write-back RMW, GCM, the codec and authenticated
    // trim bitmaps; the working set fits the IV cache.
    Workload w{"db-mixed", {}, {}};
    w.spec.mode = core::CipherMode::kGcmRandom;
    w.spec.layout = core::IvLayout::kObjectEnd;
    w.spec.compression.codec = core::Compression::kLz;
    w.fio.rw_mix_pct = 70;
    w.fio.io_size = 2048;
    w.fio.offset_align = 512;
    w.fio.discard_pct = 5;
    w.fio.queue_depth = 8;
    w.fio.working_set = 64ull << 20;
    w.fio.compressibility_pct = 50;
    w.prefill = true;
    w.iv_cache_objects = 64;
    w.ops_per_host_s = 1800;
    all.push_back(w);
  }
  return all;
}

rados::ClusterConfig ClusterFor(const Workload& w) {
  rados::ClusterConfig c;
  c.nodes = 3;
  c.osds_per_node = 9;
  c.replication = 3;
  c.pg_count = 128;
  // Short ciphertexts only release capacity at sub-sector granularity.
  if (w.spec.compression.enabled()) c.store.alloc_unit = 512;
  return c;
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Peak resident set of this process so far, in MiB. One process runs one
// workload, so this is the workload's peak.
double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// Cluster-wide counters read before and after the measured phase.
struct Counters {
  rbd::ImageStats image;
  objstore::StoreStats store;
  dev::DeviceStats device;
  uint64_t kv_gets = 0;
  uint64_t kv_wal_bytes = 0;
  uint64_t net_bytes = 0;
  uint64_t events = 0;
  uint64_t obs_ops = 0;
  std::array<uint64_t, obs::kNumStages> stage_ns{};
};

Counters ReadCounters(rbd::Image& image, rados::Cluster& cluster) {
  Counters c;
  c.image = image.stats();
  c.store = cluster.TotalStoreStats();
  c.device = cluster.TotalDeviceStats();
  for (size_t i = 0; i < cluster.osd_count(); ++i) {
    const kv::KvStats& kv = cluster.osd(i).store().kv_store().stats();
    c.kv_gets += kv.gets + kv.range_gets;
    c.kv_wal_bytes += kv.wal_bytes;
  }
  c.net_bytes = cluster.client_nic().egress().bytes_transferred() +
                cluster.mon_nic().egress().bytes_transferred();
  for (size_t n = 0; n < cluster.config().nodes; ++n) {
    c.net_bytes += cluster.node_nic(n).egress().bytes_transferred();
  }
  c.events = sim::Scheduler::Current().events_processed();
  c.obs_ops = image.obs().latency_hist().count();
  const auto stages = image.obs().StageSnapshot();
  for (size_t s = 0; s < obs::kNumStages; ++s) c.stage_ns[s] = stages[s].sum();
  return c;
}

// Everything the sim clock decides about one repetition. Two repetitions
// of the same code and seed must agree on every field, traced or not.
struct SimSignature {
  uint64_t ops = 0, bytes = 0, duration_ns = 0;
  uint64_t measured_events = 0, final_ns = 0, final_events = 0;
  double p50_ns = 0, p99_ns = 0;

  bool operator==(const SimSignature&) const = default;
  std::string ToString() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "ops=%llu bytes=%llu duration_ns=%llu events=%llu "
                  "final_ns=%llu final_events=%llu p50_ns=%.17g "
                  "p99_ns=%.17g",
                  static_cast<unsigned long long>(ops),
                  static_cast<unsigned long long>(bytes),
                  static_cast<unsigned long long>(duration_ns),
                  static_cast<unsigned long long>(measured_events),
                  static_cast<unsigned long long>(final_ns),
                  static_cast<unsigned long long>(final_events), p50_ns,
                  p99_ns);
    return buf;
  }
};

struct Rep {
  bool traced = false;
  std::string error;  // empty = every op succeeded and verified
  double setup_s = 0;
  double measure_s = 0;
  double peak_rss_mb = 0;  // process peak when the rep ended
  uint64_t attempted = 0;  // measured ops + read-back checks
  uint64_t failed = 0;
  std::vector<double> batch_mbps;  // host MB/s of each batch
  // Sim-clock results of the measured batches, merged.
  uint64_t ops = 0;
  uint64_t bytes = 0;
  sim::SimTime duration = 0;
  Histogram latency_ns;
  Counters before, after;
  SimSignature sig;
};

// Measured batches per repetition: each is one FioRunner::Run.
constexpr int kBatches = 8;

// Reads back a sample of the bulk-write working set: every 4 KiB block must
// hold the workload's content for that block (written) or zeros (never
// written). Counts checked blocks into `rep`.
sim::Task<void> ReadBack(rbd::Image& image, const workload::FioConfig& fio,
                         Rep* rep) {
  constexpr int kSamples = 128;
  Rng pick(fio.seed ^ 0xC0FFEE);
  const uint64_t slots = fio.working_set / fio.io_size;
  Bytes expect(core::kBlockSize);
  uint64_t written = 0;
  for (int i = 0; i < kSamples; ++i) {
    const uint64_t off = pick.NextBelow(slots) * fio.io_size;
    auto got = co_await image.Read(off, fio.io_size);
    rep->attempted++;
    if (!got.ok()) {
      rep->failed++;
      rep->error = "read-back: " + got.status().ToString();
      continue;
    }
    bool ok = true;
    for (uint64_t b = 0; b < fio.io_size; b += core::kBlockSize) {
      const ByteSpan block(got->data() + b, core::kBlockSize);
      FillWorkloadBlock(fio.seed, fio.compressibility_pct,
                        (off + b) / core::kBlockSize, expect);
      if (std::equal(block.begin(), block.end(), expect.begin())) {
        ++written;
      } else if (std::any_of(block.begin(), block.end(),
                             [](uint8_t v) { return v != 0; })) {
        ok = false;
      }
    }
    if (!ok) {
      rep->failed++;
      rep->error = "read-back mismatch at offset " + std::to_string(off);
    }
  }
  if (written == 0 && rep->error.empty()) {
    rep->failed++;
    rep->error = "read-back found no written block";
  }
}

// One repetition on a fresh scheduler and cluster: set up, then (unless
// `setup_only`) measure kBatches batches of `batch_ops` ops and check the
// results.
Rep RunRep(const Workload& w, uint64_t seed, uint64_t batch_ops, bool traced,
           bool setup_only, Spans& spans, uint64_t trace) {
  Rep rep;
  rep.traced = traced;
  Spans::Scope rep_span(
      spans, setup_only ? "setup_trial" : (traced ? "rep.traced" : "rep"),
      trace);
  const double t0 = Now();

  sim::Scheduler sched;
  // The constructor reads VDE_SIM_CORES; pin the paper-figure timeline so
  // an ambient variable cannot change any sim figure.
  sched.ConfigureCores(0);

  workload::FioConfig fio = w.fio;
  fio.seed = seed;
  fio.total_ops = batch_ops;
  fio.verify = true;

  auto body = [&]() -> sim::Task<void> {
    auto setup = std::make_unique<Spans::Scope>(spans, "setup", trace);
    std::unique_ptr<Spans::Scope> step =
        std::make_unique<Spans::Scope>(spans, "setup.cluster_create", trace);
    auto cluster = co_await rados::Cluster::Create(ClusterFor(w));
    step.reset();
    if (!cluster.ok()) {
      rep.error = "cluster: " + cluster.status().ToString();
      co_return;
    }
    rbd::ImageOptions options;
    options.size = 64ull << 30;
    options.enc = w.spec;
    options.enc.iv_seed = seed;
    options.luks.pbkdf2_iterations = 10;
    options.luks.af_stripes = 8;
    options.iv_cache.enabled = w.iv_cache_objects > 0;
    options.iv_cache.max_objects = w.iv_cache_objects;
    options.obs.enabled = traced;
    step = std::make_unique<Spans::Scope>(spans, "setup.image_create", trace);
    auto image = co_await rbd::Image::Create(**cluster, "bench", "pw", options);
    step.reset();
    if (!image.ok()) {
      rep.error = "image: " + image.status().ToString();
      co_return;
    }
    workload::FioRunner runner(**image, fio);
    if (w.prefill) {
      step = std::make_unique<Spans::Scope>(spans, "setup.prefill", trace);
      const Status s = co_await runner.Prefill();
      step.reset();
      if (!s.ok()) {
        rep.error = "prefill: " + s.ToString();
        co_return;
      }
    }
    step = std::make_unique<Spans::Scope>(spans, "setup.drain", trace);
    co_await (*cluster)->Drain();
    step.reset();
    setup.reset();
    rep.setup_s = Now() - t0;
    if (setup_only) co_return;

    rep.before = ReadCounters(**image, **cluster);
    Spans::Scope measure(spans, "measure", trace);
    for (int b = 0; b < kBatches; ++b) {
      const double m0 = Now();
      auto result = co_await runner.Run();
      const double dt = Now() - m0;
      rep.measure_s += dt;
      rep.attempted += fio.total_ops;
      if (!result.ok()) {
        rep.after = ReadCounters(**image, **cluster);
        rep.failed++;
        rep.error = "run: " + result.status().ToString();
        co_return;
      }
      rep.batch_mbps.push_back(static_cast<double>(result->bytes) / dt / 1e6);
      rep.ops += result->ops;
      rep.bytes += result->bytes;
      rep.duration += result->duration;
      rep.latency_ns.Merge(result->latency_ns);
    }
    measure.End();
    rep.after = ReadCounters(**image, **cluster);

    Spans::Scope check(spans, "verify", trace);
    co_await (*cluster)->Drain();
    if (fio.WritePct() == 100) co_await ReadBack(**image, fio, &rep);
    if (const Status s = co_await (*image)->Close(); !s.ok()) {
      rep.failed++;
      rep.error = "close: " + s.ToString();
    }
    co_await (*cluster)->Drain();
  };
  sched.Spawn(body());
  sched.Run();

  rep.peak_rss_mb = PeakRssMb();
  rep.sig.ops = rep.ops;
  rep.sig.bytes = rep.bytes;
  rep.sig.duration_ns = rep.duration;
  rep.sig.measured_events = rep.after.events - rep.before.events;
  rep.sig.final_ns = sched.now();
  rep.sig.final_events = sched.events_processed();
  rep.sig.p50_ns = rep.latency_ns.Percentile(50);
  rep.sig.p99_ns = rep.latency_ns.Percentile(99);
  return rep;
}

// Per-layer figures of one traced repetition: counter deltas and obs-plane
// stage time over its measured phase (kBatches FioRunner::Run calls, each
// with its one-queue-depth warmup), each with its base.
std::vector<Metric> LayerMetrics(const Rep& r, double host_s_untraced) {
  const Counters& a = r.after;
  const Counters& b = r.before;
  const rbd::ImageStats is = rbd::ImageStats::Delta(a.image, b.image);
  const double ops = static_cast<double>(is.reads + is.writes + is.discards);
  const double obs_ops = static_cast<double>(a.obs_ops - b.obs_ops);
  const double wr = static_cast<double>(is.bytes_written);
  const double rd = static_cast<double>(is.bytes_read);
  const double events = static_cast<double>(a.events - b.events);
  auto n = [](uint64_t v) { return static_cast<double>(v); };
  auto d = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  auto stage = [&](obs::Stage s) {
    const size_t i = static_cast<size_t>(s);
    return MakeRatio(d(a.stage_ns[i], b.stage_ns[i]), obs_ops);
  };
  std::vector<Metric> m;
  auto add = [&](const char* name, const char* unit, Ratio q,
                 const char* base) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%.17g / %.17g %s", q.num, q.base, base);
    m.push_back({name, unit, q.value(), buf});
  };
  add("rbd.iv_cache.hit_ratio", "ratio",
      MakeRatio(n(is.iv_hits), n(is.iv_hits + is.iv_misses)),
      "iv cache lookups");
  add("rbd.meta_bytes_fetched_per_op", "B/op",
      MakeRatio(n(is.iv_meta_bytes_fetched), ops), "guest ops");
  add("rbd.rmw_blocks_per_write", "blocks/write",
      MakeRatio(n(is.rmw_blocks), n(is.writes)), "guest writes");
  add("rbd.wb.hit_ratio", "ratio",
      MakeRatio(n(is.wb_hits), n(is.wb_hits + is.wb_stages)),
      "staged writes (hits + new stages)");
  add("rbd.trim.bitmap_updates_per_op", "updates/op",
      MakeRatio(n(is.trim_bitmap_updates), ops), "guest ops");
  add("rbd.wb_ns_per_op", "ns/op", stage(obs::Stage::kWb), "traced ops");
  add("core.crypto_ns_per_op", "ns/op", stage(obs::Stage::kCrypto),
      "traced ops");
  add("core.compress_ns_per_op", "ns/op", stage(obs::Stage::kCompress),
      "traced ops");
  add("core.compress_ratio", "B/B",
      MakeRatio(n(is.compress_stored_bytes), n(is.compress_in_bytes)),
      "bytes offered to the codec");
  add("objstore.txns_per_op", "txns/op",
      MakeRatio(d(a.store.transactions, b.store.transactions), ops),
      "guest ops");
  add("objstore.journal_bytes_per_user_byte", "B/B",
      MakeRatio(d(a.store.journal_bytes, b.store.journal_bytes), wr),
      "guest bytes written");
  add("objstore.store_ns_per_op", "ns/op", stage(obs::Stage::kStore),
      "traced ops");
  add("kv.gets_per_read", "gets/read",
      MakeRatio(d(a.kv_gets, b.kv_gets), n(is.reads)),
      "guest reads (point + range gets)");
  add("kv.wal_bytes_per_user_byte", "B/B",
      MakeRatio(d(a.kv_wal_bytes, b.kv_wal_bytes), wr),
      "guest bytes written");
  add("device.write_amp", "B/B",
      MakeRatio(d(a.device.bytes_written, b.device.bytes_written), wr),
      "guest bytes written");
  add("device.read_amp", "B/B",
      MakeRatio(d(a.device.bytes_read, b.device.bytes_read), rd),
      "guest bytes read");
  add("device.device_ns_per_op", "ns/op", stage(obs::Stage::kDevice),
      "traced ops");
  add("rados.replicate_ns_per_op", "ns/op", stage(obs::Stage::kReplicate),
      "traced ops");
  add("net.bytes_per_user_byte", "B/B",
      MakeRatio(d(a.net_bytes, b.net_bytes), wr + rd),
      "guest bytes moved");
  add("sim.events_per_op", "events/op", MakeRatio(events, ops), "guest ops");
  add("sim.host_ns_per_event", "ns/event",
      MakeRatio(host_s_untraced * 1e9, events),
      "sim events (untraced host time)");
  return m;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (k == "--workload") {
        a->workload = v;
      } else if (k == "--seed") {
        a->seed = std::stoull(v);
      } else if (k == "--seconds") {
        a->seconds = std::stoi(v);
      } else if (k == "--trace") {
        a->trace = std::stoi(v);
      } else if (k == "--spans") {
        a->spans_path = v;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds >= 1 &&
         a->seconds <= 600 && (a->trace == 0 || a->trace == 1);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: vdebench --workload bulk-write|auth-read|db-mixed "
                 "--seed N --seconds S --trace 0|1 [--spans PATH]\n");
    return 2;
  }
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__)
  std::fprintf(stderr,
               "vdebench: refusing to report from an unoptimised or "
               "sanitizer build\n");
  return 3;
#endif
  const Workload* w = nullptr;
  const std::vector<Workload> all = Workloads();
  for (const Workload& c : all) {
    if (args.workload == c.name) w = &c;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "vdebench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }

  // kReps repetitions; a traced run traces the middle one.
  constexpr int kReps = 3;
  // The measured phases of all repetitions together take about --seconds
  // on the reference host; at least 1000 ops per repetition, so the p99
  // has 10 samples beyond it.
  const uint64_t batch_ops = std::max<uint64_t>(
      1000 / kBatches, static_cast<uint64_t>(w->ops_per_host_s * args.seconds /
                                             (kReps * kBatches)));

  std::printf("workload %s: %s, io=%llu align=%llu write=%u%% discard=%u%% "
              "qd=%zu working_set=%llu MiB prefill=%d iv_cache_objects=%zu "
              "compressibility=%u%%\n",
              w->name, w->spec.Name().c_str(),
              static_cast<unsigned long long>(w->fio.io_size),
              static_cast<unsigned long long>(w->fio.offset_align),
              w->fio.WritePct(), w->fio.discard_pct, w->fio.queue_depth,
              static_cast<unsigned long long>(w->fio.working_set >> 20),
              w->prefill, w->iv_cache_objects, w->fio.compressibility_pct);
  std::printf("env: nproc=%ld compiler=\"%s\" build=%s seed=%llu "
              "sim_cores=0 reps=%d batches=%d ops_per_batch=%llu trace=%d\n",
              sysconf(_SC_NPROCESSORS_ONLN), __VERSION__, VDEBENCH_BUILD_TYPE,
              static_cast<unsigned long long>(args.seed), kReps, kBatches,
              static_cast<unsigned long long>(batch_ops), args.trace);

  Spans spans;
  uint64_t next_trace = 0;  // span trace id of each repetition or replay
  std::vector<Rep> done;
  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  // Without a prefill, set-up takes about a millisecond and its time
  // depends on the heap's state. Before the repetitions, on the fresh heap
  // every run starts from, kSetupTrials set-up-only trials sample it; the
  // repetitions add their own set-up times.
  constexpr int kSetupTrials = 25;
  std::vector<double> setups;
  for (int t = 0; args.trace == 0 && !w->prefill && t < kSetupTrials; ++t) {
    const Rep trial =
        RunRep(*w, args.seed, batch_ops, false, true, spans, next_trace++);
    if (!trial.error.empty()) {
      std::printf("setup trial FAILED: %s\n", trial.error.c_str());
      correct = false;
      failed++;
      break;
    }
    setups.push_back(trial.setup_s);
  }
  for (int i = 0; correct && i < kReps; ++i) {
    const bool traced = args.trace == 1 && i == 1;
    done.push_back(
        RunRep(*w, args.seed, batch_ops, traced, false, spans, next_trace++));
    const Rep& r = done.back();
    attempted += r.attempted;
    failed += r.failed;
    std::printf("rep %d%s: setup_s=%.4f measure_s=%.4f host_mbps=%.3f "
                "peak_rss_mb=%.1f sim: %s\n",
                i, traced ? " (traced)" : "", r.setup_s, r.measure_s,
                Median(r.batch_mbps), r.peak_rss_mb, r.sig.ToString().c_str());
    if (!r.error.empty()) {
      std::printf("rep %d FAILED: %s\n", i, r.error.c_str());
      correct = false;
      break;
    }
    if (!(r.sig == done.front().sig)) {
      std::printf("rep %d FAILED: sim-clock figures differ from rep 0\n", i);
      correct = false;
      break;
    }
  }
  std::vector<Metric> metrics;
  if (correct) {
    const Rep& r0 = done.front();
    std::printf("sim_signature: %s\n", r0.sig.ToString().c_str());
    const double error_rate =
        static_cast<double>(failed) / static_cast<double>(attempted);
    std::printf("error_rate = %.17g fraction (%llu failed / %llu attempted: "
                "measured ops + read-back checks)\n",
                error_rate, static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    if (args.trace == 0) {
      std::vector<double> batch_mbps;
      for (const Rep& r : done) {
        setups.push_back(r.setup_s);
        batch_mbps.insert(batch_mbps.end(), r.batch_mbps.begin(),
                          r.batch_mbps.end());
      }
      std::printf("setup samples: %zu\n", setups.size());
      metrics = {
          {"setup_s", "s", Median(setups), ""},
          {"host_mbps", "MB/s", Median(batch_mbps), ""},
          {"peak_rss_mb", "MiB", PeakRssMb(), ""},
          {"sim_mbps", "MB/s",
           static_cast<double>(r0.bytes) * 1e3 /
               static_cast<double>(r0.duration),
           ""},
          {"sim_p50_us", "us", r0.sig.p50_ns / 1e3, ""},
          {"sim_p99_us", "us", r0.sig.p99_ns / 1e3, ""},
      };
      std::printf("latency samples: %llu measured ops per rep (%llu beyond "
                  "the p99)\n",
                  static_cast<unsigned long long>(r0.latency_ns.count()),
                  static_cast<unsigned long long>(
                      r0.latency_ns.count() / 100));
    } else {
      // Rep 0 runs on a cold heap; the traced rep 1 is compared with its
      // warm untraced neighbour, rep 2.
      const Rep& traced = done[1];
      const Rep& untraced = done[2];
      metrics = LayerMetrics(traced, untraced.measure_s);
      const double warm_mbps = Median(untraced.batch_mbps);
      const double traced_mbps = Median(traced.batch_mbps);
      char base[96];
      std::snprintf(base, sizeof(base),
                    "host_mbps untraced %.4f vs traced %.4f", warm_mbps,
                    traced_mbps);
      metrics.push_back(
          {"obs.trace_overhead_pct", "%",
           MakeRatio((warm_mbps - traced_mbps) * 100, warm_mbps).value(),
           base});
      ReplayInput in;
      in.spec = w->spec;
      in.spec.iv_seed = args.seed;
      in.io_size = w->fio.io_size;
      in.seed = args.seed;
      in.compressibility_pct = w->fio.compressibility_pct;
      in.store = ClusterFor(*w).store;
      ReplayResult replay = ReplayLayers(in, spans, next_trace++);
      if (!replay.error.empty()) {
        std::printf("replay FAILED: %s\n", replay.error.c_str());
        correct = false;
        failed++;
      }
      metrics.insert(metrics.end(), replay.metrics.begin(),
                     replay.metrics.end());
    }
    for (const Metric& m : metrics) {
      std::printf("  %-40s %.6g %s%s%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.base.empty() ? "" : "   base: ",
                  m.base.c_str());
    }
  }
  for (const auto& [name, s] : spans.SelfSeconds()) {
    std::printf("span self time: %-32s %.4f s\n", name.c_str(), s);
  }
  if (!args.spans_path.empty() && !spans.WriteChromeJson(args.spans_path)) {
    std::printf("could not write spans to %s\n", args.spans_path.c_str());
    correct = false;
  }
  if (failed > 0) correct = false;
  std::printf("%s\n", ResultLine(correct, std::max<uint64_t>(attempted, 1),
                                 failed, correct ? metrics : std::vector<Metric>{})
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace vdebench

int main(int argc, char** argv) { return vdebench::Main(argc, argv); }
