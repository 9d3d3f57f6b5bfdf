#include <gtest/gtest.h>

#include "device/nvme.h"
#include "device/sparse_ram.h"
#include "net/link.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace vde::dev {
namespace {

TEST(SparseRam, HolesReadZero) {
  SparseRam ram(1 << 20);
  Bytes out(100, 0xFF);
  ram.ReadAt(5000, out);
  EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                          [](uint8_t b) { return b == 0; }));
  EXPECT_EQ(ram.allocated_pages(), 0u);
}

TEST(SparseRam, WriteReadRoundtripAcrossPages) {
  SparseRam ram(1 << 20);
  Rng rng(1);
  const Bytes data = rng.RandomBytes(10000);  // spans 3 pages
  ram.WriteAt(4000, data);
  Bytes out(10000);
  ram.ReadAt(4000, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(ram.allocated_pages(), 4u);  // bytes 4000..14000 touch pages 0-3
}

TEST(SparseRam, PartialPageWritePreservesNeighbors) {
  SparseRam ram(1 << 20);
  const Bytes a(4096, 0xAA);
  ram.WriteAt(0, a);
  const Bytes b(10, 0xBB);
  ram.WriteAt(100, b);
  Bytes out(4096);
  ram.ReadAt(0, out);
  EXPECT_EQ(out[99], 0xAA);
  EXPECT_EQ(out[100], 0xBB);
  EXPECT_EQ(out[109], 0xBB);
  EXPECT_EQ(out[110], 0xAA);
}

// --- Copy-on-write shared pages ---

bool AllZero(ByteSpan bytes) {
  return std::all_of(bytes.begin(), bytes.end(),
                     [](uint8_t b) { return b == 0; });
}

Bytes ReadBack(const SparseRam& ram, uint64_t offset, size_t length) {
  Bytes out(length);
  ram.ReadAt(offset, out);
  return out;
}

// Two RAMs (two replicas) adopt the same two pages; the test keeps its own
// refs too, standing in for the transaction that built them.
struct SharedPair {
  Bytes data = Rng(3).RandomBytes(2 * kPageSize);
  std::vector<PageRef> pages = MakePages(data);
  SparseRam a{1 << 20};
  SparseRam b{1 << 20};

  SharedPair() {
    a.Adopt(0, pages);
    b.Adopt(0, pages);
  }
};

TEST(SparseRam, MakePagesCopiesOnlyWholePages) {
  const Bytes data = Rng(1).RandomBytes(2 * kPageSize + 100);
  const auto pages = MakePages(data);
  ASSERT_EQ(pages.size(), 2u);
  EXPECT_TRUE(std::equal(pages[1]->data, pages[1]->data + kPageSize,
                         data.begin() + kPageSize));
}

TEST(SparseRam, AdoptSharesPagesAcrossRams) {
  SharedPair p;
  EXPECT_EQ(p.pages[0].use_count(), 3);
  EXPECT_EQ(p.a.Share(0, 1)[0].get(), p.pages[0].get());
  EXPECT_EQ(ReadBack(p.a, 0, p.data.size()), p.data);
  EXPECT_EQ(ReadBack(p.b, 0, p.data.size()), p.data);
}

TEST(SparseRam, PartialWriteCopiesASharedPage) {
  SharedPair p;
  p.a.WriteAt(100, Bytes(10, 0xEE));
  EXPECT_NE(p.a.Share(0, 1)[0].get(), p.pages[0].get());
  EXPECT_EQ(p.pages[0].use_count(), 2);  // the test's ref and b's
  EXPECT_EQ(ReadBack(p.b, 0, p.data.size()), p.data);
  Bytes want = p.data;
  std::fill(want.begin() + 100, want.begin() + 110, 0xEE);
  EXPECT_EQ(ReadBack(p.a, 0, want.size()), want);
  // The page a did not touch is still shared.
  EXPECT_EQ(p.a.Share(kPageSize, 1)[0].get(), p.pages[1].get());
}

TEST(SparseRam, PartialPunchCopiesASharedPage) {
  SharedPair p;
  p.a.Punch(kPageSize + 8, 64);
  EXPECT_NE(p.a.Share(kPageSize, 1)[0].get(), p.pages[1].get());
  EXPECT_EQ(ReadBack(p.b, 0, p.data.size()), p.data);
  EXPECT_TRUE(AllZero(ReadBack(p.a, kPageSize + 8, 64)));
  EXPECT_EQ(ReadBack(p.a, kPageSize, 8),
            Bytes(p.data.begin() + kPageSize, p.data.begin() + kPageSize + 8));
}

TEST(SparseRam, PunchOfAZeroRangeKeepsThePageShared) {
  // A zero-padded slot whose tail is trimmed in the same transaction: the
  // punch changes no byte, so it must not copy the page.
  Bytes data = Rng(4).RandomBytes(kPageSize);
  std::fill(data.begin() + 1000, data.end(), 0);
  const auto pages = MakePages(data);
  SparseRam ram(1 << 20);
  ram.Adopt(0, pages);
  ram.Punch(1000, kPageSize - 1000);
  EXPECT_EQ(ram.Share(0, 1)[0].get(), pages[0].get());
  EXPECT_EQ(ReadBack(ram, 0, kPageSize), data);
}

TEST(SparseRam, FullPageOverwriteReplacesASharedPage) {
  SharedPair p;
  const Bytes fresh(kPageSize, 0x5A);
  p.a.WriteAt(0, fresh);
  EXPECT_NE(p.a.Share(0, 1)[0].get(), p.pages[0].get());
  EXPECT_EQ(ReadBack(p.a, 0, kPageSize), fresh);
  EXPECT_EQ(ReadBack(p.b, 0, p.data.size()), p.data);
  EXPECT_TRUE(std::equal(p.pages[0]->data, p.pages[0]->data + kPageSize,
                         p.data.begin()));
}

TEST(SparseRam, WholePagePunchDropsOnlyThisRamsRef) {
  SharedPair p;
  p.a.Punch(0, kPageSize);
  EXPECT_EQ(p.pages[0].use_count(), 2);
  EXPECT_EQ(p.a.allocated_pages(), 1u);
  EXPECT_TRUE(AllZero(ReadBack(p.a, 0, kPageSize)));
  EXPECT_EQ(ReadBack(p.b, 0, p.data.size()), p.data);
}

TEST(SparseRam, UniquePageIsWrittenInPlace) {
  SparseRam ram(1 << 20);
  ram.Adopt(0, MakePages(Bytes(kPageSize, 1)));  // the RAM's ref is the only one
  const PageRef before = ram.Share(0, 1)[0];
  const Page* page = before.get();
  ram.WriteAt(10, Bytes(5, 2));  // `before` makes the page shared: copy
  EXPECT_NE(ram.Share(0, 1)[0].get(), page);
  const Page* copy = ram.Share(0, 1)[0].get();
  ram.WriteAt(20, Bytes(5, 3));  // now unique: in place
  ram.WriteAt(0, Bytes(kPageSize, 4));
  EXPECT_EQ(ram.Share(0, 1)[0].get(), copy);
  EXPECT_EQ(before->data[10], 1);
}

TEST(SparseRam, AdoptingAHoleReleasesThePage) {
  SparseRam ram(1 << 20);
  ram.WriteAt(kPageSize, Bytes(kPageSize, 9));
  ram.Adopt(0, std::vector<PageRef>(2));
  EXPECT_EQ(ram.allocated_pages(), 0u);
  EXPECT_TRUE(AllZero(ReadBack(ram, 0, 2 * kPageSize)));
}

TEST(Nvme, PokeWriteOnOneDeviceLeavesTheOtherCopy) {
  // The tamper hooks reach a device through PokeWrite: on a page another
  // device shares, the write lands on this device's private copy.
  NvmeDevice d1, d2;
  const Bytes data = Rng(5).RandomBytes(4 * kPageSize);
  const auto pages = MakePages(data);
  d1.PokeAdopt(8 * kPageSize, pages);
  d2.PokeAdopt(8 * kPageSize, d1.PeekPages(8 * kPageSize, pages.size()));
  d1.PokeWrite(9 * kPageSize + 7, Bytes(3, 0xFF));
  Bytes out(data.size());
  d2.PeekRead(8 * kPageSize, out);
  EXPECT_EQ(out, data);
  d1.PeekRead(8 * kPageSize, out);
  EXPECT_EQ(out[kPageSize + 7], 0xFF);
}

sim::Task<void> DoIo(NvmeDevice& dev, std::vector<Status>* results) {
  Rng rng(7);
  const Bytes data = rng.RandomBytes(8192);
  results->push_back(co_await dev.Write(4096, data));
  Bytes out(8192);
  results->push_back(co_await dev.Read(4096, out));
  results->push_back(out == data ? Status::Ok() : Status::Corruption());
  // Unaligned IO must be rejected.
  Bytes small(100);
  results->push_back(co_await dev.Read(4096, small));
  results->push_back(co_await dev.Write(10, data));
}

TEST(Nvme, AlignedIoRoundtripAndRejection) {
  sim::Scheduler sched;
  NvmeDevice dev;
  std::vector<Status> results;
  sched.Spawn(DoIo(dev, &results));
  sched.Run();
  ASSERT_EQ(results.size(), 5u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  EXPECT_TRUE(results[2].ok()) << "data mismatch through device";
  EXPECT_EQ(results[3].code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(results[4].code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dev.stats().write_ops, 1u);
  EXPECT_EQ(dev.stats().read_ops, 1u);
  EXPECT_EQ(dev.stats().sectors_written, 2u);
}

sim::Task<void> OneWrite(NvmeDevice& dev, size_t bytes) {
  const Bytes data(bytes, 0xCD);
  (void)co_await dev.Write(0, data);
}

TEST(Nvme, CostModelChargesLatencyPlusTransfer) {
  sim::Scheduler sched;
  NvmeConfig cfg;
  cfg.write_latency = 10 * sim::kUs;
  cfg.write_gbps = 1.0;  // 1 ns per byte
  NvmeDevice dev(cfg);
  sched.Spawn(OneWrite(dev, 4096));
  sched.Run();
  EXPECT_EQ(sched.now(), 10 * sim::kUs + 4096u);
}

sim::Task<void> ParallelReads(NvmeDevice& dev, int n, size_t bytes) {
  std::vector<sim::Task<void>> tasks;
  for (int i = 0; i < n; ++i) {
    tasks.push_back([](NvmeDevice& d, size_t len, uint64_t off) -> sim::Task<void> {
      Bytes out(len);
      (void)co_await d.Read(off, out);
    }(dev, bytes, static_cast<uint64_t>(i) * bytes));
  }
  co_await sim::WhenAll(std::move(tasks));
}

TEST(Nvme, ChannelsBoundConcurrency) {
  sim::Scheduler sched;
  NvmeConfig cfg;
  cfg.read_latency = 100 * sim::kUs;
  cfg.read_gbps = 1000.0;  // transfer time negligible
  cfg.channels = 4;
  NvmeDevice dev(cfg);
  sched.Spawn(ParallelReads(dev, 8, 4096));
  sched.Run();
  // 8 ops over 4 channels at 100us each => 2 waves => 200us (+epsilon).
  EXPECT_GE(sched.now(), 200 * sim::kUs);
  EXPECT_LT(sched.now(), 210 * sim::kUs);
}

sim::Task<void> SendOne(net::Nic& a, net::Nic& b, size_t bytes) {
  co_await net::Send(a, b, bytes);
}

TEST(Nic, SendChargesSerializationAndPropagation) {
  sim::Scheduler sched;
  net::NicConfig cfg;
  cfg.gbytes_per_sec = 1.0;  // 1 ns/byte
  cfg.propagation = 10 * sim::kUs;
  cfg.streams = 1;
  net::Nic a(cfg), b(cfg);
  sched.Spawn(SendOne(a, b, 1000));
  sched.Run();
  // Cut-through: max(egress, ingress) serialization + propagation.
  EXPECT_EQ(sched.now(), 1000u + 10 * sim::kUs);
  EXPECT_EQ(a.egress().bytes_transferred(), 1000u);
  EXPECT_EQ(b.ingress().bytes_transferred(), 1000u);
}

sim::Task<void> ManySends(net::Nic& a, net::Nic& b, int n, size_t bytes) {
  std::vector<sim::Task<void>> tasks;
  for (int i = 0; i < n; ++i) tasks.push_back(SendOne(a, b, bytes));
  co_await sim::WhenAll(std::move(tasks));
}

TEST(Nic, EgressSerializesFlows) {
  sim::Scheduler sched;
  net::NicConfig cfg;
  cfg.gbytes_per_sec = 1.0;
  cfg.propagation = 0;
  cfg.streams = 1;
  net::Nic a(cfg), b(cfg);
  sched.Spawn(ManySends(a, b, 4, 1000));
  sched.Run();
  // 4 messages serialized on the (single-stream) pipes; egress and ingress
  // overlap per message, so the last finishes at 4000ns.
  EXPECT_EQ(sched.now(), 4000u);
}

}  // namespace
}  // namespace vde::dev
