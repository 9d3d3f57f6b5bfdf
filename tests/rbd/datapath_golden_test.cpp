// Clock golden for the rbd datapath. One scripted, seeded sequence of
// image IO reaches every read and commit site of the datapath:
//  - aligned write-through and staged sub-block writes;
//  - a merge-window write-out and a staging eviction;
//  - an RMW write-through whose edges come from a stage and from the store;
//  - a partial discard, a write-zeroes with both edges partial, and a
//    full-object discard;
//  - head reads (store, cleared-marker and never-written objects), a
//    snapshot read and a flush;
//  - a close, a warm reopen off the metadata plane and a read.
// It runs on the three metadata geometries x {xts-random, xts-random+hmac,
// gcm-random+lz}, with write-back, the IV cache and the metadata plane on.
// The final sim clock, the scheduler's event count, the ImageStats deltas
// and a hash of every byte read back are pinned per case, for the default
// timeline and the 4-core CPU model (the .mc4 run). A datapath refactor
// must leave all four untouched; a deliberate cost-model change re-records
// the table and says so.
#include <gtest/gtest.h>

#include <sstream>

#include "../testutil.h"
#include "device/nvme.h"
#include "rbd/image.h"
#include "util/rng.h"

namespace vde::rbd {
namespace {

constexpr uint64_t kObjSize = 64 * 1024;  // 16 blocks
constexpr uint64_t kImgSize = 8ull << 20;
constexpr uint64_t kBlk = core::kBlockSize;

// The values a run ends on.
struct Outcome {
  uint64_t now = 0;
  uint64_t events = 0;
  uint64_t stats_hash = 0;
  uint64_t data_hash = 0;
};

struct Case {
  const char* name;
  core::CipherMode mode;
  core::IvLayout layout;
  core::Integrity integrity;
  bool lz;
  Outcome single;  // golden, default timeline
  Outcome mc4;     // golden, 4-core CPU model
};

// FNV-1a, 64-bit.
class Fnv {
 public:
  void Add(ByteSpan bytes) {
    for (const uint8_t b : bytes) {
      h_ ^= b;
      h_ *= 0x100000001b3ull;
    }
  }
  void Add(uint64_t v) {
    uint8_t le[8];
    for (int i = 0; i < 8; ++i) le[i] = static_cast<uint8_t>(v >> (8 * i));
    Add(ByteSpan(le, 8));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string StatsLine(const ImageStats& s) {
  std::ostringstream os;
#define VDE_GOLDEN_FIELD(f) os << #f "=" << s.f << ' ';
  VDE_IMAGE_STATS_COUNTERS(VDE_GOLDEN_FIELD)
#undef VDE_GOLDEN_FIELD
  return os.str();
}

void HashStats(const ImageStats& s, Fnv& h) {
#define VDE_GOLDEN_FIELD(f) h.Add(uint64_t{s.f});
  VDE_IMAGE_STATS_COUNTERS(VDE_GOLDEN_FIELD)
#undef VDE_GOLDEN_FIELD
}

// Half-compressible payload: every other 512 B run is zeros, so the codec
// stores blocks compressed on the lz cases.
Bytes Payload(Rng& rng, size_t n) {
  Bytes out(n, 0);
  for (size_t off = 0; off < n; off += 1024) {
    rng.Fill(MutByteSpan(out.data() + off, std::min<size_t>(512, n - off)));
  }
  return out;
}

core::EncryptionSpec SpecOf(const Case& c) {
  core::EncryptionSpec s;
  s.mode = c.mode;
  s.layout = c.layout;
  s.integrity = c.integrity;
  s.iv_seed = 7;
  if (c.lz) s.compression.codec = core::Compression::kLz;
  return s;
}

WritebackConfig ScriptWriteback() {
  WritebackConfig wb;
  wb.flush_window = 1 * sim::kMs;
  wb.max_staged_blocks = 2;  // the third stage evicts the oldest
  return wb;
}

MetaStoreConfig ScriptPlane(dev::BlockDevice* meta) {
  MetaStoreConfig c;
  c.enabled = true;
  c.device = meta;
  c.journal_flush_rows = 4;  // pressure flushes at request ends
  return c;
}

struct Trace {
  Fnv data;
  std::vector<ImageStats> deltas;
  bool finished = false;
};

sim::Task<void> Script(const Case& c, Trace* out) {
  dev::NvmeDevice meta_dev;
  rados::ClusterConfig cc;
  cc.store.journal_size = 8ull << 20;
  cc.store.kv_region_size = 32ull << 20;
  if (c.lz) cc.store.alloc_unit = 512;
  auto cluster = co_await rados::Cluster::Create(cc);
  CO_ASSERT_OK(cluster.status());
  Rng rng(19);
  auto read = [&](Image& img, uint64_t off, uint64_t len,
                  objstore::SnapId snap) -> sim::Task<Status> {
    auto got = co_await img.Read(off, len, snap);
    VDE_CO_RETURN_IF_ERROR(got.status());
    out->data.Add(*got);
    co_return Status::Ok();
  };
  {
    ImageOptions o;
    o.size = kImgSize;
    o.object_size = kObjSize;
    o.enc = SpecOf(c);
    o.luks.pbkdf2_iterations = 10;
    o.luks.af_stripes = 8;
    o.writeback = ScriptWriteback();
    o.iv_cache.enabled = true;
    o.meta_store = ScriptPlane(&meta_dev);
    auto created = co_await Image::Create(**cluster, "golden", "pw", o);
    CO_ASSERT_OK(created.status());
    Image& img = **created;
    const ImageStats before = img.stats();
    // Object 0: aligned write-through of blocks 0-3; object 1: blocks 0-1.
    CO_ASSERT_OK(co_await img.Write(0, Payload(rng, 4 * kBlk)));
    CO_ASSERT_OK(co_await img.Write(kObjSize, Payload(rng, 2 * kBlk)));
    // Staged sub-block writes: block 5 (never written), block 1 (live),
    // then block 9, whose stage evicts block 5's.
    CO_ASSERT_OK(co_await img.Write(5 * kBlk + 512, Payload(rng, 1024)));
    CO_ASSERT_OK(co_await img.Write(1 * kBlk + 100, Payload(rng, 200)));
    CO_ASSERT_OK(co_await img.Write(9 * kBlk + 2048, Payload(rng, 700)));
    // Past the merge window: block 1's stage is written out and kept.
    co_await sim::Sleep{2 * sim::kMs};
    CO_ASSERT_OK(co_await img.Write(1 * kBlk + 400, Payload(rng, 100)));
    // RMW write-through over blocks 9-11: the head edge is staged, the
    // tail edge comes from the store.
    CO_ASSERT_OK(
        co_await img.Write(9 * kBlk + 1000, Payload(rng, 2 * kBlk + 2000)));
    // Partial discard (blocks 2-3), write-zeroes with both edges partial
    // (blocks 12-14), full-object discard (object 1).
    CO_ASSERT_OK(co_await img.Discard(2 * kBlk, 2 * kBlk));
    CO_ASSERT_OK(co_await img.WriteZeroes(12 * kBlk + 300, 2 * kBlk + 500));
    CO_ASSERT_OK(co_await img.Discard(kObjSize, kObjSize));
    // Head reads: object 0 with a staged overlay, object 1's cleared
    // markers, a never-written object.
    CO_ASSERT_OK(co_await read(img, 0, kObjSize, objstore::kHeadSnap));
    CO_ASSERT_OK(co_await read(img, kObjSize, 2 * kBlk, objstore::kHeadSnap));
    CO_ASSERT_OK(co_await read(img, 5 * kObjSize, kBlk, objstore::kHeadSnap));
    // Snapshot, overwrite, snapshot read, flush.
    auto snap = co_await img.SnapCreate("s");
    CO_ASSERT_OK(snap.status());
    CO_ASSERT_OK(co_await img.Write(0, Payload(rng, kBlk)));
    CO_ASSERT_OK(co_await read(img, 0, 4 * kBlk, *snap));
    CO_ASSERT_OK(co_await img.Write(6 * kBlk + 10, Payload(rng, 20)));
    CO_ASSERT_OK(co_await img.Flush());
    CO_ASSERT_OK(co_await img.Close());
    out->deltas.push_back(ImageStats::Delta(img.stats(), before));
  }
  {
    auto reopened = co_await Image::Open(
        **cluster, "golden", "pw", ScriptWriteback(), nullptr, {},
        {.enabled = true}, ScriptPlane(&meta_dev));
    CO_ASSERT_OK(reopened.status());
    Image& img = **reopened;
    const ImageStats before = img.stats();
    CO_ASSERT_OK(co_await read(img, 0, kObjSize, objstore::kHeadSnap));
    CO_ASSERT_OK(co_await img.Close());
    out->deltas.push_back(ImageStats::Delta(img.stats(), before));
  }
  co_await (*cluster)->Drain();
  out->finished = true;
}

// Replays the script on a fresh scheduler; `cores` receives its CPU model
// (0 = off, 4 under VDE_SIM_CORES=4).
Outcome RunScript(const Case& c, unsigned* cores,
                  std::vector<ImageStats>* deltas) {
  sim::Scheduler sched;
  Trace trace;
  sched.Spawn(Script(c, &trace));
  sched.Run();
  EXPECT_TRUE(trace.finished) << "script did not run to completion";
  Outcome o;
  *cores = sched.cores();
  o.now = sched.now();
  o.events = sched.events_processed();
  Fnv stats;
  for (const ImageStats& d : trace.deltas) HashStats(d, stats);
  o.stats_hash = stats.value();
  o.data_hash = trace.data.value();
  *deltas = std::move(trace.deltas);
  return o;
}

using core::CipherMode;
using core::Integrity;
using core::IvLayout;

// {now, events, stats hash, data hash} per case and timeline.
constexpr Case kCases[] = {
    {"xts_random_unaligned", CipherMode::kXtsRandom, IvLayout::kUnaligned,
     Integrity::kNone, false,
     {25857903u, 1110u, 0x5f819b7d50342634ull, 0xfc78e2fd751711cull},
     {26592903u, 1143u, 0x5f819b7d50342634ull, 0xfc78e2fd751711cull}},
    {"xts_random_object_end", CipherMode::kXtsRandom, IvLayout::kObjectEnd,
     Integrity::kNone, false,
     {22441199u, 1192u, 0x5f819b7d50342634ull, 0xfc78e2fd751711cull},
     {23351199u, 1225u, 0x5f819b7d50342634ull, 0xfc78e2fd751711cull}},
    {"xts_random_omap", CipherMode::kXtsRandom, IvLayout::kOmap,
     Integrity::kNone, false,
     {22237131u, 1195u, 0xc6f8aed7814081ecull, 0xfc78e2fd751711cull},
     {23296635u, 1201u, 0xc6f8aed7814081ecull, 0xfc78e2fd751711cull}},
    {"xts_random_hmac_unaligned", CipherMode::kXtsRandom, IvLayout::kUnaligned,
     Integrity::kHmac, false,
     {30525133u, 1279u, 0x577da6c42d6c4b51ull, 0xfc78e2fd751711cull},
     {31643933u, 1315u, 0x577da6c42d6c4b51ull, 0xfc78e2fd751711cull}},
    {"xts_random_hmac_object_end", CipherMode::kXtsRandom, IvLayout::kObjectEnd,
     Integrity::kHmac, false,
     {27050421u, 1357u, 0xfdd1734b3dc65732ull, 0xfc78e2fd751711cull},
     {28205421u, 1393u, 0xfdd1734b3dc65732ull, 0xfc78e2fd751711cull}},
    {"xts_random_hmac_omap", CipherMode::kXtsRandom, IvLayout::kOmap,
     Integrity::kHmac, false,
     {26516521u, 1339u, 0xcbbc58f29d21044full, 0xfc78e2fd751711cull},
     {27656889u, 1345u, 0xcbbc58f29d21044full, 0xfc78e2fd751711cull}},
    {"gcm_random_lz_unaligned", CipherMode::kGcmRandom, IvLayout::kUnaligned,
     Integrity::kNone, true,
     {32342598u, 1340u, 0xd78af44f0802c448ull, 0xfc78e2fd751711cull},
     {34266398u, 1376u, 0xd78af44f0802c448ull, 0xfc78e2fd751711cull}},
    {"gcm_random_lz_object_end", CipherMode::kGcmRandom, IvLayout::kObjectEnd,
     Integrity::kNone, true,
     {28869926u, 1418u, 0x647e21a69193d302ull, 0xfc78e2fd751711cull},
     {30584926u, 1454u, 0x647e21a69193d302ull, 0xfc78e2fd751711cull}},
    {"gcm_random_lz_omap", CipherMode::kGcmRandom, IvLayout::kOmap,
     Integrity::kNone, true,
     {28337931u, 1400u, 0x4a5a06263874774ull, 0xfc78e2fd751711cull},
     {29980555u, 1406u, 0x4a5a06263874774ull, 0xfc78e2fd751711cull}},
};

class DatapathGolden : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(
    Cases, DatapathGolden, ::testing::Range<size_t>(0, std::size(kCases)),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return std::string(kCases[info.param].name);
    });

TEST_P(DatapathGolden, ClockStatsAndBytesArePinned) {
  const Case& c = kCases[GetParam()];
  std::vector<ImageStats> deltas;
  unsigned cores = 0;
  const Outcome got = RunScript(c, &cores, &deltas);
  ASSERT_EQ(deltas.size(), 2u);
  ASSERT_TRUE(cores == 0 || cores == 4)
      << "goldens exist for the default timeline and 4 cores only";
  const Outcome& want = cores == 4 ? c.mc4 : c.single;

  // The script reaches every site it claims to.
  const ImageStats& s = deltas[0];
  EXPECT_GE(s.wb_stages, 3u);
  EXPECT_GE(s.wb_flushes, 3u) << "eviction, merge window and drains";
  EXPECT_GE(s.rmw_merged, 1u);
  EXPECT_GE(s.rmw_blocks, 3u) << "stage reads and the store edge";
  EXPECT_GE(s.discards, 3u);
  if (c.integrity == core::Integrity::kHmac ||
      c.mode == core::CipherMode::kGcmRandom) {
    EXPECT_GT(s.meta_journal_flushes, 0u);
    EXPECT_GT(deltas[1].meta_warm_hits, 0u);
  }

  std::ostringstream printed;
  printed << "{" << got.now << "u, " << got.events << "u, 0x" << std::hex
          << got.stats_hash << "ull, 0x" << got.data_hash << "ull}"
          << std::dec << "\n  open: " << StatsLine(deltas[0])
          << "\n  reopen: " << StatsLine(deltas[1]);
  EXPECT_EQ(got.now, want.now) << printed.str();
  EXPECT_EQ(got.events, want.events) << printed.str();
  EXPECT_EQ(got.stats_hash, want.stats_hash) << printed.str();
  EXPECT_EQ(got.data_hash, want.data_hash) << printed.str();
}

}  // namespace
}  // namespace vde::rbd
