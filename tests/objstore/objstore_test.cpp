// Object store tests: transactional writes, OMAP, RMW accounting,
// snapshots/clones, remove, and journal behavior.
#include <algorithm>

#include <gtest/gtest.h>

#include "../testutil.h"
#include "device/nvme.h"
#include "objstore/object_store.h"
#include "util/rng.h"

namespace vde::objstore {
namespace {

StoreConfig SmallStore() {
  StoreConfig c;
  c.journal_size = 8ull << 20;
  c.kv_region_size = 32ull << 20;
  c.max_object_size = (4ull << 20) + (1ull << 20);
  c.kv.wal_size = 1ull << 20;
  c.kv.memtable_limit = 1ull << 20;
  return c;
}

Transaction WriteTxn(const std::string& oid, uint64_t off, Bytes data) {
  Transaction txn;
  txn.oid = oid;
  OsdOp op;
  op.type = OsdOp::Type::kWrite;
  op.offset = off;
  op.length = data.size();
  op.data = std::move(data);
  txn.ops.push_back(std::move(op));
  return txn;
}

Transaction ReadTxn(const std::string& oid, uint64_t off, uint64_t len) {
  Transaction txn;
  txn.oid = oid;
  OsdOp op;
  op.type = OsdOp::Type::kRead;
  op.offset = off;
  op.length = len;
  txn.ops.push_back(std::move(op));
  return txn;
}

TEST(ObjectStore, WriteReadRoundtrip) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    CO_ASSERT_OK(store.status());
    auto& os = **store;
    Rng rng(1);
    const Bytes data = rng.RandomBytes(8192);
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("obj1", 4096, data), {}));
    auto got = co_await os.ExecuteRead(ReadTxn("obj1", 4096, 8192), kHeadSnap);
    CO_ASSERT_OK(got.status());
    EXPECT_EQ(got->data, data);
    EXPECT_EQ(os.ObjectSize("obj1"), 4096u + 8192u);
  });
}

TEST(ObjectStore, UnalignedWriteReadBytes) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    Rng rng(2);
    // The unaligned IV layout writes at byte offsets like 4112.
    const Bytes data = rng.RandomBytes(4112);
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("obj", 4112, data), {}));
    auto got = co_await os.ExecuteRead(ReadTxn("obj", 4112, 4112), kHeadSnap);
    CO_ASSERT_OK(got.status());
    EXPECT_EQ(got->data, data);
  });
}

TEST(ObjectStore, UnalignedWritesChargeRmw) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    Rng rng(3);
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("a", 0, rng.RandomBytes(4096)), {}));
    co_await os.Drain();
    EXPECT_EQ(os.stats().rmw_sectors, 0u) << "aligned write needs no RMW";
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("a", 100, rng.RandomBytes(5000)), {}));
    co_await os.Drain();
    EXPECT_EQ(os.stats().rmw_sectors, 2u) << "head and tail sectors RMW";
  });
}

TEST(ObjectStore, MultiOpTransactionAppliesAll) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    Rng rng(4);
    const Bytes data = rng.RandomBytes(4096);
    // Data write + IV write in ONE transaction (the paper's object-end path).
    Transaction txn;
    txn.oid = "combo";
    OsdOp w1;
    w1.type = OsdOp::Type::kWrite;
    w1.offset = 0;
    w1.length = 4096;
    w1.data = data;
    const Bytes iv = rng.RandomBytes(16);
    OsdOp w2;
    w2.type = OsdOp::Type::kWrite;
    w2.offset = 4ull << 20;  // metadata region at object end
    w2.length = 16;
    w2.data = iv;
    txn.ops.push_back(std::move(w1));
    txn.ops.push_back(std::move(w2));
    CO_ASSERT_OK(co_await os.Apply(txn, {}));

    auto d = co_await os.ExecuteRead(ReadTxn("combo", 0, 4096), kHeadSnap);
    auto i = co_await os.ExecuteRead(ReadTxn("combo", 4ull << 20, 16), kHeadSnap);
    CO_ASSERT_OK(d.status());
    CO_ASSERT_OK(i.status());
    EXPECT_EQ(d->data, data);
    EXPECT_EQ(i->data, iv);
  });
}

TEST(ObjectStore, OmapSetAndRangeGet) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    Transaction txn;
    txn.oid = "omapobj";
    OsdOp op;
    op.type = OsdOp::Type::kOmapSet;
    for (uint32_t i = 0; i < 32; ++i) {
      Bytes key(8);
      StoreU64Be(key.data(), i);
      op.omap_kvs.emplace_back(key, BytesOf("iv" + std::to_string(i)));
    }
    txn.ops.push_back(std::move(op));
    CO_ASSERT_OK(co_await os.Apply(txn, {}));

    Transaction get;
    get.oid = "omapobj";
    OsdOp g;
    g.type = OsdOp::Type::kOmapGetRange;
    Bytes lo(8), hi(8);
    StoreU64Be(lo.data(), 10);
    StoreU64Be(hi.data(), 20);
    g.omap_start = lo;
    g.omap_end = hi;
    get.ops.push_back(std::move(g));
    auto got = co_await os.ExecuteRead(get, kHeadSnap);
    CO_ASSERT_OK(got.status());
    CO_ASSERT_EQ(got->omap_values.size(), 10u);
    EXPECT_EQ(got->omap_values[0].second, BytesOf("iv10"));
    EXPECT_EQ(got->omap_values[9].second, BytesOf("iv19"));
  });
}

TEST(ObjectStore, DataAndOmapInOneTransaction) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    Rng rng(5);
    Transaction txn;
    txn.oid = "mix";
    OsdOp w;
    w.type = OsdOp::Type::kWrite;
    w.offset = 0;
    w.length = 4096;
    w.data = rng.RandomBytes(4096);
    OsdOp o;
    o.type = OsdOp::Type::kOmapSet;
    Bytes key(8);
    StoreU64Be(key.data(), 0);
    o.omap_kvs.emplace_back(key, rng.RandomBytes(16));
    txn.ops.push_back(std::move(w));
    txn.ops.push_back(std::move(o));
    CO_ASSERT_OK(co_await os.Apply(txn, {}));
    EXPECT_EQ(os.stats().transactions, 1u);
  });
}

TEST(ObjectStore, RemoveFreesObjectAndOmap) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    Rng rng(6);
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("gone", 0, rng.RandomBytes(4096)), {}));
    Transaction omap;
    omap.oid = "gone";
    OsdOp o;
    o.type = OsdOp::Type::kOmapSet;
    o.omap_kvs.emplace_back(BytesOf("k"), BytesOf("v"));
    omap.ops.push_back(std::move(o));
    CO_ASSERT_OK(co_await os.Apply(omap, {}));
    EXPECT_TRUE(os.ObjectExists("gone"));

    Transaction rm;
    rm.oid = "gone";
    OsdOp r;
    r.type = OsdOp::Type::kRemove;
    rm.ops.push_back(std::move(r));
    CO_ASSERT_OK(co_await os.Apply(rm, {}));
    EXPECT_FALSE(os.ObjectExists("gone"));

    // OMAP rows must be gone too.
    Transaction get;
    get.oid = "gone";
    OsdOp g;
    g.type = OsdOp::Type::kOmapGetRange;
    get.ops.push_back(std::move(g));
    auto got = co_await os.ExecuteRead(get, kHeadSnap);
    CO_ASSERT_OK(got.status());
    EXPECT_TRUE(got->omap_values.empty());
  });
}

TEST(ObjectStore, SnapshotPreservesOldData) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    Rng rng(7);
    const Bytes v1 = rng.RandomBytes(4096);
    const Bytes v2 = rng.RandomBytes(4096);
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("snapobj", 0, v1), {}));
    // Snapshot id 5 taken; subsequent write carries snapc.seq = 5.
    SnapContext snapc{5, {5}};
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("snapobj", 0, v2), snapc));
    EXPECT_EQ(os.CloneCount("snapobj"), 1u);

    auto head = co_await os.ExecuteRead(ReadTxn("snapobj", 0, 4096), kHeadSnap);
    auto old = co_await os.ExecuteRead(ReadTxn("snapobj", 0, 4096), 5);
    CO_ASSERT_OK(head.status());
    CO_ASSERT_OK(old.status());
    EXPECT_EQ(head->data, v2);
    EXPECT_EQ(old->data, v1);
  });
}

TEST(ObjectStore, SnapshotClonesOmapRows) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    // Object with data + OMAP IV, then snapshot, then overwrite both.
    auto put = [&os](Bytes iv, const SnapContext& snapc) -> sim::Task<Status> {
      Transaction txn;
      txn.oid = "ivobj";
      OsdOp w;
      w.type = OsdOp::Type::kWrite;
      w.offset = 0;
      w.length = 4096;
      w.data = Bytes(4096, iv[0]);
      OsdOp o;
      o.type = OsdOp::Type::kOmapSet;
      Bytes key(8);
      StoreU64Be(key.data(), 0);
      o.omap_kvs.emplace_back(key, std::move(iv));
      txn.ops.push_back(std::move(w));
      txn.ops.push_back(std::move(o));
      co_return co_await os.Apply(txn, snapc);
    };
    CO_ASSERT_OK(co_await put(Bytes(16, 0xAA), {}));
    SnapContext snapc{9, {9}};
    CO_ASSERT_OK(co_await put(Bytes(16, 0xBB), snapc));

    Transaction get;
    get.oid = "ivobj";
    OsdOp g;
    g.type = OsdOp::Type::kOmapGetRange;
    get.ops.push_back(std::move(g));
    auto head = co_await os.ExecuteRead(get, kHeadSnap);
    auto old = co_await os.ExecuteRead(get, 9);
    CO_ASSERT_OK(head.status());
    CO_ASSERT_OK(old.status());
    CO_ASSERT_EQ(head->omap_values.size(), 1u);
    CO_ASSERT_EQ(old->omap_values.size(), 1u);
    EXPECT_EQ(head->omap_values[0].second, Bytes(16, 0xBB));
    EXPECT_EQ(old->omap_values[0].second, Bytes(16, 0xAA));
  });
}

TEST(ObjectStore, MultipleSnapshots) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("m", 0, Bytes(4096, 1)), {}));
    SnapContext snap10;
    snap10.seq = 10;
    snap10.snaps = {10};
    SnapContext snap20;
    snap20.seq = 20;
    snap20.snaps = {20, 10};
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("m", 0, Bytes(4096, 2)), snap10));
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("m", 0, Bytes(4096, 3)), snap20));
    auto s10 = co_await os.ExecuteRead(ReadTxn("m", 0, 1), 10);
    auto s20 = co_await os.ExecuteRead(ReadTxn("m", 0, 1), 20);
    auto head = co_await os.ExecuteRead(ReadTxn("m", 0, 1), kHeadSnap);
    CO_ASSERT_OK(s10.status());
    CO_ASSERT_OK(s20.status());
    CO_ASSERT_OK(head.status());
    EXPECT_EQ(s10->data[0], 1);
    EXPECT_EQ(s20->data[0], 2);
    EXPECT_EQ(head->data[0], 3);
  });
}

TEST(ObjectStore, SnapshotWithoutLaterWriteReadsHead) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("q", 0, Bytes(4096, 7)), {}));
    // Snapshot 3 exists but object never written after -> head serves it.
    auto got = co_await os.ExecuteRead(ReadTxn("q", 0, 1), 3);
    CO_ASSERT_OK(got.status());
    EXPECT_EQ(got->data[0], 7);
  });
}

TEST(ObjectStore, JournalGrowsWithPayload) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    Rng rng(8);
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("j", 0, rng.RandomBytes(64 * 1024)), {}));
    EXPECT_GE(os.stats().journal_bytes, 64u * 1024);
  });
}

TEST(ObjectStore, JournalCheckpointWhenFull) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    StoreConfig cfg = SmallStore();
    cfg.journal_size = 1ull << 20;  // tiny journal: forces checkpoints
    auto store = co_await ObjectStore::Open(nvme, cfg);
    auto& os = **store;
    Rng rng(9);
    for (int i = 0; i < 40; ++i) {
      CO_ASSERT_OK(
          co_await os.Apply(WriteTxn("ck", 0, rng.RandomBytes(128 * 1024)), {}));
    }
    // All 40 x 128K journaled through a 1M journal => checkpoints happened
    // and nothing failed.
    EXPECT_EQ(os.stats().transactions, 40u);
  });
}

TEST(ObjectStore, ReadOfMissingObjectFails) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    auto got = co_await os.ExecuteRead(ReadTxn("nope", 0, 4096), kHeadSnap);
    EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
  });
}

TEST(ObjectStore, WriteBeyondMaxObjectRejected) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    const auto status =
        co_await os.Apply(WriteTxn("big", 5ull << 20, Bytes(4096, 0)), {});
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  });
}

// A hostile offset near 2^64 must not wrap the bounds check back inside
// the extent: every data op, and both raw-access hooks, reject it.
TEST(ObjectStore, WrappingOffsetsRejectedForEveryDataOp) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    const Bytes a(4096, 0xAA);
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("a", 0, a), {}));
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("b", 0, Bytes(4096, 0xBB)), {}));
    const uint64_t hostile = ~uint64_t{0} - 4095;  // 2^64 - 4096

    EXPECT_EQ((co_await os.Apply(WriteTxn("b", hostile, Bytes(8192, 0xEE)),
                                 {}))
                  .code(),
              StatusCode::kInvalidArgument);
    for (const OsdOp::Type type : {OsdOp::Type::kZero, OsdOp::Type::kTrim}) {
      Transaction txn = ReadTxn("b", hostile, 8192);
      txn.ops[0].type = type;
      EXPECT_EQ((co_await os.Apply(txn, {})).code(),
                StatusCode::kInvalidArgument);
    }
    auto read = co_await os.ExecuteRead(ReadTxn("b", hostile, 8192), kHeadSnap);
    EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(os.TamperObjectData("b", hostile, Bytes(8192, 0xEE)).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(os.PeekObjectData("b", hostile, 8192).status().code(),
              StatusCode::kInvalidArgument);

    // Neither object's bytes moved.
    auto got_a = os.PeekObjectData("a", 0, 4096);
    auto got_b = os.PeekObjectData("b", 0, 4096);
    CO_ASSERT_OK(got_a.status());
    CO_ASSERT_OK(got_b.status());
    EXPECT_EQ(*got_a, a);
    EXPECT_EQ(*got_b, Bytes(4096, 0xBB));
  });
}

TEST(ObjectStore, HeadReadPastMaxObjectSizeRejected) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("a", 0, Bytes(16, 0xAA)), {}));
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("b", 0, Bytes(4096, 0xBB)), {}));
    const uint64_t max = SmallStore().max_object_size;
    auto past = co_await os.ExecuteRead(ReadTxn("a", max, 4096), kHeadSnap);
    EXPECT_EQ(past.status().code(), StatusCode::kInvalidArgument);
    auto straddle =
        co_await os.ExecuteRead(ReadTxn("a", max - 4096, 8192), kHeadSnap);
    EXPECT_EQ(straddle.status().code(), StatusCode::kInvalidArgument);
    auto last = co_await os.ExecuteRead(ReadTxn("a", max - 4096, 4096),
                                        kHeadSnap);
    CO_ASSERT_OK(last.status());
  });
}

// A clone's extent holds only the bytes it captured; a snapshot read past
// them must read zeros, not the extent the store allocated next.
TEST(ObjectStore, SnapshotReadPastCloneSizeReadsZeros) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    const Bytes v1(16, 0xA1);
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("a", 0, v1), {}));
    SnapContext snapc{5, {5}};
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("a", 0, Bytes(16, 0xA2)), snapc));
    CO_ASSERT_EQ(os.CloneCount("a"), 1u);
    // `b` is allocated right behind a's 4 KiB clone extent.
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("b", 0, Bytes(8192, 0xBB)), {}));

    auto beyond = co_await os.ExecuteRead(ReadTxn("a", 4096, 4096), 5);
    CO_ASSERT_OK(beyond.status());
    EXPECT_EQ(beyond->data, Bytes(4096, 0));
    auto straddle = co_await os.ExecuteRead(ReadTxn("a", 0, 8192), 5);
    CO_ASSERT_OK(straddle.status());
    Bytes want(8192, 0);
    std::copy(v1.begin(), v1.end(), want.begin());
    EXPECT_EQ(straddle->data, want);
  });
}

// Page refs on a data op: two stores (two replicas) adopt one copy, and a
// tamper on one leaves the other's bytes alone. An op whose device offset
// is not page-aligned falls back to copying, with the same bytes.
TEST(ObjectStore, SharedPageRefsStayIndependentPerStore) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme1 = std::make_shared<dev::NvmeDevice>();
    auto nvme2 = std::make_shared<dev::NvmeDevice>();
    auto store1 = co_await ObjectStore::Open(nvme1, SmallStore());
    auto store2 = co_await ObjectStore::Open(nvme2, SmallStore());
    auto& s1 = **store1;
    auto& s2 = **store2;
    const Bytes data = Rng(12).RandomBytes(16 * 4096 + 300);
    for (const uint64_t off : {uint64_t{0}, uint64_t{512}}) {
      Transaction txn = WriteTxn("p", off, data);
      txn.ops[0].pages = dev::MakePages(data);
      CO_ASSERT_OK(co_await s1.Apply(txn, {}));
      CO_ASSERT_OK(co_await s2.Apply(txn, {}));
      CO_ASSERT_OK(s1.TamperObjectData("p", off + 4096 + 1, Bytes(2, 0)));
      auto got1 = s1.PeekObjectData("p", off, data.size());
      auto got2 = s2.PeekObjectData("p", off, data.size());
      CO_ASSERT_OK(got1.status());
      CO_ASSERT_OK(got2.status());
      EXPECT_EQ(*got2, data) << "offset " << off;
      Bytes tampered = data;
      tampered[4096 + 1] = tampered[4096 + 2] = 0;
      EXPECT_EQ(*got1, tampered) << "offset " << off;
    }
  });
}

// The clone adopts the head's pages; rewriting the head afterwards, by
// partial writes, whole pages and trims, leaves the snapshot intact.
TEST(ObjectStore, CloneSharingSurvivesHeadRewrites) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    Rng rng(13);
    const Bytes v1 = rng.RandomBytes(16 * 4096 + 100);
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("c", 0, v1), {}));
    SnapContext snapc{3, {3}};
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("c", 100, Bytes(10, 1)), snapc));
    CO_ASSERT_OK(
        co_await os.Apply(WriteTxn("c", 8192, Bytes(4096, 2)), snapc));
    Transaction trim = ReadTxn("c", 5 * 4096, 3 * 4096);
    trim.ops[0].type = OsdOp::Type::kTrim;
    CO_ASSERT_OK(co_await os.Apply(trim, snapc));
    CO_ASSERT_OK(os.TamperObjectData("c", 16 * 4096 + 1, Bytes(5, 3)));
    auto old = co_await os.ExecuteRead(ReadTxn("c", 0, v1.size()), 3);
    CO_ASSERT_OK(old.status());
    EXPECT_EQ(old->data, v1);
    auto head = co_await os.ExecuteRead(ReadTxn("c", 0, 4096 * 3), kHeadSnap);
    CO_ASSERT_OK(head.status());
    EXPECT_EQ(head->data[100], 1);
    EXPECT_EQ(head->data[8192], 2);
  });
}

// --- Tracked discard (kTrim) ---

Transaction TrimTxn(const std::string& oid, uint64_t off, uint64_t len) {
  Transaction txn;
  txn.oid = oid;
  OsdOp op;
  op.type = OsdOp::Type::kTrim;
  op.offset = off;
  op.length = len;
  txn.ops.push_back(std::move(op));
  return txn;
}

TEST(ObjectStoreTrim, TrimFreesCapacityAndReadsZeros) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    Rng rng(2);
    CO_ASSERT_OK(co_await os.Apply(
        WriteTxn("t", 0, rng.RandomBytes(64 * 4096)), {}));
    co_await os.Drain();
    const uint64_t free_before = os.space().free_bytes;

    CO_ASSERT_OK(co_await os.Apply(TrimTxn("t", 16 * 4096, 32 * 4096), {}));
    // TRIM actually grows allocator capacity, by exactly the fully
    // covered sectors, and the trimmed map tracks the logical range.
    EXPECT_EQ(os.space().free_bytes, free_before + 32 * 4096);
    EXPECT_EQ(os.space().punched_bytes, 32u * 4096);
    EXPECT_EQ(os.TrimmedBytes("t"), 32u * 4096);
    EXPECT_EQ(os.stats().trim_ops, 1u);
    EXPECT_EQ(os.stats().bytes_trimmed, 32u * 4096);

    auto got = co_await os.ExecuteRead(ReadTxn("t", 16 * 4096, 32 * 4096),
                                       kHeadSnap);
    CO_ASSERT_OK(got.status());
    EXPECT_TRUE(std::all_of(got->data.begin(), got->data.end(),
                            [](uint8_t b) { return b == 0; }));
  });
}

TEST(ObjectStoreTrim, TrimmedReadSkipsDevice) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    Rng rng(3);
    CO_ASSERT_OK(co_await os.Apply(
        WriteTxn("t", 0, rng.RandomBytes(16 * 4096)), {}));
    CO_ASSERT_OK(co_await os.Apply(TrimTxn("t", 0, 8 * 4096), {}));
    co_await os.Drain();

    const uint64_t reads_before = nvme->stats().read_ops;
    auto got = co_await os.ExecuteRead(ReadTxn("t", 4096, 4 * 4096),
                                       kHeadSnap);
    CO_ASSERT_OK(got.status());
    // Fully inside the trimmed map: served as zeros with zero device IO.
    EXPECT_EQ(nvme->stats().read_ops, reads_before);
    EXPECT_EQ(os.stats().trimmed_reads, 1u);
    // A read straddling the trimmed boundary still goes to the device.
    auto edge = co_await os.ExecuteRead(ReadTxn("t", 4 * 4096, 8 * 4096),
                                        kHeadSnap);
    CO_ASSERT_OK(edge.status());
    EXPECT_GT(nvme->stats().read_ops, reads_before);
  });
}

TEST(ObjectStoreTrim, RewriteRestoresBackingAndClearsMap) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    Rng rng(4);
    CO_ASSERT_OK(co_await os.Apply(
        WriteTxn("t", 0, rng.RandomBytes(16 * 4096)), {}));
    CO_ASSERT_OK(co_await os.Apply(TrimTxn("t", 0, 16 * 4096), {}));
    EXPECT_EQ(os.space().punched_bytes, 16u * 4096);

    const Bytes fresh = rng.RandomBytes(4 * 4096);
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("t", 4096, fresh), {}));
    // The rewritten sectors are re-backed; the rest stay punched.
    EXPECT_EQ(os.space().punched_bytes, 12u * 4096);
    EXPECT_EQ(os.stats().bytes_restored, 4u * 4096);
    EXPECT_EQ(os.TrimmedBytes("t"), 12u * 4096);

    auto got = co_await os.ExecuteRead(ReadTxn("t", 4096, 4 * 4096),
                                       kHeadSnap);
    CO_ASSERT_OK(got.status());
    EXPECT_EQ(got->data, fresh);
    // Bytes around the rewrite still read zeros.
    auto before = co_await os.ExecuteRead(ReadTxn("t", 0, 4096), kHeadSnap);
    CO_ASSERT_OK(before.status());
    EXPECT_TRUE(std::all_of(before->data.begin(), before->data.end(),
                            [](uint8_t b) { return b == 0; }));
  });
}

TEST(ObjectStoreTrim, CloneFreezesTrimmedStateAndRemoveReclaimsAll) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    Rng rng(5);
    const uint64_t free_initial = os.space().free_bytes;
    const Bytes data = rng.RandomBytes(8 * 4096);
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("t", 0, data), {}));
    CO_ASSERT_OK(co_await os.Apply(TrimTxn("t", 0, 4 * 4096), {}));

    // Snapshot 1 freezes the half-trimmed state; then rewrite the head.
    SnapContext snapc;
    snapc.seq = 1;
    snapc.snaps = {1};
    const Bytes head = rng.RandomBytes(8 * 4096);
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("t", 0, head), snapc));

    // The clone reads zeros where the head was trimmed pre-snapshot and
    // the preserved bytes elsewhere; the head reads the rewrite.
    auto snap = co_await os.ExecuteRead(ReadTxn("t", 0, 8 * 4096), 1);
    CO_ASSERT_OK(snap.status());
    EXPECT_TRUE(std::all_of(snap->data.begin(),
                            snap->data.begin() + 4 * 4096,
                            [](uint8_t b) { return b == 0; }));
    EXPECT_TRUE(std::equal(snap->data.begin() + 4 * 4096, snap->data.end(),
                           data.begin() + 4 * 4096));
    auto now = co_await os.ExecuteRead(ReadTxn("t", 0, 8 * 4096), kHeadSnap);
    CO_ASSERT_OK(now.status());
    EXPECT_EQ(now->data, head);

    // Remove reclaims the head extent in one piece even though parts of
    // it had been punched (clone extents stay allocated).
    Transaction rm;
    rm.oid = "t";
    OsdOp op;
    op.type = OsdOp::Type::kRemove;
    rm.ops.push_back(std::move(op));
    CO_ASSERT_OK(co_await os.Apply(rm, snapc));
    EXPECT_EQ(os.space().punched_bytes, 0u);
    EXPECT_LT(os.space().free_bytes, free_initial);  // clone still held
    co_await os.Drain();
  });
}

TEST(ObjectStoreTrim, DiscardOnlyTxnDoesNotMaterializeObject) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    CO_ASSERT_OK(co_await os.Apply(TrimTxn("ghost", 0, 64 * 4096), {}));
    EXPECT_FALSE(os.ObjectExists("ghost"));
    EXPECT_EQ(os.stats().objects_created, 0u);
  });
}

TEST(ObjectStoreTrim, TamperedDataBypassesTrimBookkeeping) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    Rng rng(6);
    CO_ASSERT_OK(co_await os.Apply(
        WriteTxn("t", 0, rng.RandomBytes(4 * 4096)), {}));
    // The attacker zeroes live bytes: no trimmed-map entry appears, no
    // capacity is released — the store just serves the zeroed bytes.
    CO_ASSERT_OK(os.TamperObjectData("t", 0, Bytes(4096, 0)));
    EXPECT_EQ(os.TrimmedBytes("t"), 0u);
    EXPECT_EQ(os.space().punched_bytes, 0u);
    auto got = co_await os.ExecuteRead(ReadTxn("t", 0, 4096), kHeadSnap);
    CO_ASSERT_OK(got.status());
    EXPECT_TRUE(std::all_of(got->data.begin(), got->data.end(),
                            [](uint8_t b) { return b == 0; }));
  });
}

// --- Cost-only journal: identical charges, no stored bytes ---

// The serialized journal record the store once built and stored for every
// transaction, kept verbatim as the size reference for the cost-only
// journal: its byte count must equal what the store now charges.
Bytes ReferenceJournalRecord(const Transaction& txn, const SnapContext& snapc) {
  Bytes out;
  AppendU32Le(out, static_cast<uint32_t>(txn.oid.size()));
  AppendBytes(out, BytesOf(txn.oid));
  AppendU64Le(out, snapc.seq);
  AppendU32Le(out, static_cast<uint32_t>(txn.ops.size()));
  for (const auto& op : txn.ops) {
    AppendU8(out, static_cast<uint8_t>(op.type));
    AppendU64Le(out, op.offset);
    AppendU64Le(out, op.length);
    AppendU32Le(out, static_cast<uint32_t>(op.data.size()));
    AppendBytes(out, op.data);
    AppendU32Le(out, static_cast<uint32_t>(op.omap_kvs.size()));
    for (const auto& [k, v] : op.omap_kvs) {
      AppendU16Le(out, static_cast<uint16_t>(k.size()));
      AppendBytes(out, k);
      AppendU32Le(out, static_cast<uint32_t>(v.size()));
      AppendBytes(out, v);
    }
  }
  return out;
}

OsdOp DataOp(OsdOp::Type type, uint64_t off, uint64_t len, Bytes data = {}) {
  OsdOp op;
  op.type = type;
  op.offset = off;
  op.length = len;
  op.data = std::move(data);
  return op;
}

OsdOp OmapSetOp(Rng& rng, size_t keys) {
  OsdOp op;
  op.type = OsdOp::Type::kOmapSet;
  for (size_t i = 0; i < keys; ++i) {
    op.omap_kvs.emplace_back(rng.RandomBytes(8), rng.RandomBytes(16 + 13 * i));
  }
  return op;
}

// A fixed mix of every journaled op shape: aligned/unaligned/sub-sector
// writes, writefull, zero, trim, an OMAP batch, and multi-op transactions
// (data + object-end IV write + OMAP rows in one).
std::vector<Transaction> JournalMix() {
  Rng rng(21);
  std::vector<Transaction> mix;
  mix.push_back(WriteTxn("a", 0, rng.RandomBytes(4096)));
  mix.push_back(WriteTxn("a", 100, rng.RandomBytes(5000)));
  mix.push_back(WriteTxn("a", 8192, rng.RandomBytes(300)));
  Transaction full;
  full.oid = "b";
  full.ops.push_back(
      DataOp(OsdOp::Type::kWriteFull, 0, 0, rng.RandomBytes(64 * 1024)));
  mix.push_back(std::move(full));
  Transaction zero;
  zero.oid = "a";
  zero.ops.push_back(DataOp(OsdOp::Type::kZero, 4096, 4096));
  mix.push_back(std::move(zero));
  mix.push_back(TrimTxn("b", 8192, 16384));
  Transaction omap;
  omap.oid = "c";
  omap.ops.push_back(OmapSetOp(rng, 5));
  mix.push_back(std::move(omap));
  Transaction multi;
  multi.oid = "d";
  multi.ops.push_back(
      DataOp(OsdOp::Type::kWrite, 0, 128 * 1024, rng.RandomBytes(128 * 1024)));
  multi.ops.push_back(
      DataOp(OsdOp::Type::kWrite, 4ull << 20, 512, rng.RandomBytes(512)));
  multi.ops.push_back(OmapSetOp(rng, 3));
  multi.ops.push_back(DataOp(OsdOp::Type::kTrim, 64 * 1024, 8192));
  mix.push_back(std::move(multi));
  return mix;
}

struct JournalRun {
  uint64_t journal_bytes = 0;
  uint64_t reference_bytes = 0;
  uint64_t transactions = 0;
  uint64_t write_ops = 0;
  uint64_t bytes_written = 0;
  sim::SimTime end_time = 0;
  bool journal_region_zero = false;
};

// Applies the mix `rounds` times on a fresh store — first one transaction
// at a time, then each round's transactions concurrently (appends in flight
// together) — under a snapshot context that forces clones midway.
JournalRun RunJournalMix(uint64_t journal_size, int rounds) {
  JournalRun run;
  testutil::RunSim([&]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    StoreConfig cfg = SmallStore();
    cfg.journal_size = journal_size;
    auto store = co_await ObjectStore::Open(nvme, cfg);
    CO_ASSERT_OK(store.status());
    auto& os = **store;
    const std::vector<Transaction> mix = JournalMix();
    for (int r = 0; r < rounds; ++r) {
      SnapContext snapc;
      snapc.seq = static_cast<uint64_t>(r / 2);
      for (const auto& txn : mix) {
        run.reference_bytes += ReferenceJournalRecord(txn, snapc).size();
      }
      if (r % 2 == 0) {
        for (const auto& txn : mix) CO_ASSERT_OK(co_await os.Apply(txn, snapc));
      } else {
        std::vector<Status> results(mix.size());
        std::vector<sim::Task<void>> tasks;
        for (size_t i = 0; i < mix.size(); ++i) {
          tasks.push_back([](ObjectStore& os, const Transaction& txn,
                             const SnapContext& snapc,
                             Status* out) -> sim::Task<void> {
            *out = co_await os.Apply(txn, snapc);
          }(os, mix[i], snapc, &results[i]));
        }
        co_await sim::WhenAll(std::move(tasks));
        for (const Status& s : results) CO_ASSERT_OK(s);
      }
    }
    co_await os.Drain();
    run.journal_bytes = os.stats().journal_bytes;
    run.transactions = os.stats().transactions;
    run.write_ops = nvme->stats().write_ops;
    run.bytes_written = nvme->stats().bytes_written;
    run.end_time = sim::Scheduler::Current().now();
    // The journal region holds no bytes: its pages were never allocated.
    Bytes region(journal_size);
    nvme->PeekRead(0, region);
    run.journal_region_zero = std::all_of(
        region.begin(), region.end(), [](uint8_t b) { return b == 0; });
  });
  return run;
}

// Golden values below were recorded from the store that serialized, CRC'd
// and stored every record through a kv::Wal: the cost-only journal must
// charge the device the same ops and bytes and end on the same sim time.
TEST(ObjectStoreJournal, CostOnlyJournalChargesLikeTheStoredOne) {
  const JournalRun run = RunJournalMix(8ull << 20, 6);
  EXPECT_EQ(run.transactions, 6u * JournalMix().size());
  EXPECT_EQ(run.journal_bytes, run.reference_bytes);
  EXPECT_EQ(run.write_ops, 106u);
  EXPECT_EQ(run.bytes_written, 11354112u);
  EXPECT_EQ(run.end_time, 8139191u);
  EXPECT_TRUE(run.journal_region_zero);
}

TEST(ObjectStoreJournal, CheckpointsChargeLikeTheStoredOne) {
  // A 1 MiB journal wraps several times over 24 rounds (~5 MiB of records).
  const JournalRun run = RunJournalMix(1ull << 20, 24);
  EXPECT_EQ(run.transactions, 24u * JournalMix().size());
  EXPECT_EQ(run.journal_bytes, run.reference_bytes);
  EXPECT_EQ(run.write_ops, 439u);
  EXPECT_EQ(run.bytes_written, 58372096u);
  EXPECT_EQ(run.end_time, 30374895u);
  EXPECT_TRUE(run.journal_region_zero);
}

TEST(ObjectStoreJournal, RecordLargerThanJournalIsOutOfSpace) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    StoreConfig cfg = SmallStore();
    cfg.journal_size = 64 * 1024;
    auto store = co_await ObjectStore::Open(nvme, cfg);
    CO_ASSERT_OK(store.status());
    Rng rng(22);
    const Status s = co_await (*store)->Apply(
        WriteTxn("big", 0, rng.RandomBytes(64 * 1024)), {});
    EXPECT_EQ(s.code(), StatusCode::kOutOfSpace);
    EXPECT_EQ((*store)->stats().transactions, 0u);
  });
}

}  // namespace
}  // namespace vde::objstore
