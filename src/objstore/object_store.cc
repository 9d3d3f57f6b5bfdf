#include "objstore/object_store.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"

namespace vde::objstore {

namespace {

// Journal record size: the oid, the snap seq and, per op, its header,
// payload and omap kvs — what a full serialization of `txn` would occupy.
// Only the size is journaled: it alone drives the commit cost.
uint64_t TxnRecordSize(const Transaction& txn) {
  uint64_t n = 4 + txn.oid.size() + 8 + 4;
  for (const auto& op : txn.ops) {
    n += 1 + 8 + 8 + 4 + op.data.size() + 4;
    for (const auto& [k, v] : op.omap_kvs) n += 2 + k.size() + 4 + v.size();
  }
  return n;
}

// Journal frame header: crc u32, len u32, generation u64 (kv::Wal's frame).
constexpr uint64_t kJournalFrameHeader = 16;

bool IsWriteClass(OsdOp::Type t) {
  switch (t) {
    case OsdOp::Type::kWrite:
    case OsdOp::Type::kWriteFull:
    case OsdOp::Type::kZero:
    case OsdOp::Type::kTrim:
    case OsdOp::Type::kOmapSet:
    case OsdOp::Type::kCreate:
    case OsdOp::Type::kRemove:
      return true;
    case OsdOp::Type::kRead:
    case OsdOp::Type::kOmapGetRange:
      return false;
  }
  return false;
}

}  // namespace

ObjectStore::ObjectStore(std::shared_ptr<dev::NvmeDevice> device,
                         StoreConfig config)
    : device_(std::move(device)), config_(config) {}

sim::Task<Result<std::shared_ptr<ObjectStore>>> ObjectStore::Open(
    std::shared_ptr<dev::NvmeDevice> device, StoreConfig config) {
  std::shared_ptr<ObjectStore> store(
      new ObjectStore(std::move(device), config));
  Status s = co_await store->Init();
  if (!s.ok()) co_return s;
  co_return store;
}

sim::Task<Status> ObjectStore::Init() {
  const uint64_t cap = device_->capacity_bytes();
  kv_base_ = config_.journal_size;
  data_base_ = kv_base_ + config_.kv_region_size;
  if (data_base_ >= cap) co_return Status::InvalidArgument("device too small");

  kv_region_ = std::make_unique<dev::RegionDevice>(*device_, kv_base_,
                                                   config_.kv_region_size);
  auto kv = co_await kv::KvStore::Open(*kv_region_, config_.kv);
  if (!kv.ok()) co_return kv.status();
  kv_ = std::move(kv).value();

  alloc_ = std::make_unique<dev::ExtentAllocator>(
      cap - data_base_, config_.alloc_unit != 0 ? config_.alloc_unit
                                                : device_->sector_size());
  co_return Status::Ok();
}

bool ObjectStore::ObjectExists(const std::string& oid) const {
  return objects_.contains(oid);
}

uint64_t ObjectStore::ObjectSize(const std::string& oid) const {
  const auto it = objects_.find(oid);
  return it == objects_.end() ? 0 : it->second.size;
}

size_t ObjectStore::CloneCount(const std::string& oid) const {
  const auto it = objects_.find(oid);
  return it == objects_.end() ? 0 : it->second.clones.size();
}

uint64_t ObjectStore::TrimmedBytes(const std::string& oid) const {
  const auto it = objects_.find(oid);
  if (it == objects_.end()) return 0;
  uint64_t total = 0;
  for (const auto& [off, len] : it->second.trimmed) total += len;
  return total;
}

StoreSpace ObjectStore::space() const {
  StoreSpace s;
  s.total_bytes = alloc_->total_bytes();
  s.free_bytes = alloc_->free_bytes();
  s.punched_bytes = alloc_->punched_bytes();
  s.fragments = alloc_->fragments();
  s.punched_fragments = alloc_->punched_fragments();
  return s;
}

Status ObjectStore::TamperObjectData(const std::string& oid, uint64_t offset,
                                     ByteSpan data) {
  const auto it = objects_.find(oid);
  if (it == objects_.end()) return Status::NotFound(oid);
  if (OutOfObject(offset, data.size())) {
    return Status::InvalidArgument("tamper beyond object extent");
  }
  // Raw tampering bypasses the transaction path on purpose: no journal,
  // no trimmed-map bookkeeping — the attacker reaches the bytes, not the
  // onode metadata.
  device_->PokeWrite(data_base_ + it->second.base + offset, data);
  return Status::Ok();
}

sim::Task<Status> ObjectStore::TamperOmapRow(const std::string& oid,
                                             ByteSpan key, Bytes value) {
  kv::WriteBatch batch;
  batch.Put(OmapKey(oid, kHeadSnap, key), std::move(value));
  co_return co_await kv_->Write(std::move(batch));
}

Result<Bytes> ObjectStore::PeekObjectData(const std::string& oid,
                                          uint64_t offset,
                                          size_t length) const {
  const auto it = objects_.find(oid);
  if (it == objects_.end()) return Status::NotFound(oid);
  if (OutOfObject(offset, length)) {
    return Status::InvalidArgument("peek beyond object extent");
  }
  Bytes out(length);
  device_->PeekRead(data_base_ + it->second.base + offset, out);
  return out;
}

sim::Task<Result<Bytes>> ObjectStore::PeekOmapRow(const std::string& oid,
                                                  ByteSpan key) {
  auto row = co_await kv_->Get(OmapKey(oid, kHeadSnap, key));
  VDE_CO_RETURN_IF_ERROR(row.status());
  if (!row->has_value()) co_return Status::NotFound("omap row");
  co_return std::move(**row);
}

bool ObjectStore::OutOfObject(uint64_t offset, uint64_t length) const {
  // Two comparisons, not `offset + length > max`: a hostile offset near
  // 2^64 must not wrap the sum back inside the extent.
  return offset > config_.max_object_size ||
         length > config_.max_object_size - offset;
}

void ObjectStore::PokeData(uint64_t abs_offset, const OsdOp& op) {
  size_t adopted = 0;
  if (!op.pages.empty() && abs_offset % dev::kPageSize == 0) {
    assert(op.pages.size() * dev::kPageSize <= op.data.size());
    device_->PokeAdopt(abs_offset, op.pages);
    adopted = op.pages.size() * dev::kPageSize;
  }
  device_->PokeWrite(abs_offset + adopted, ByteSpan(op.data).subspan(adopted));
}

Result<ObjectStore::Onode*> ObjectStore::GetOrCreate(const std::string& oid) {
  auto it = objects_.find(oid);
  if (it != objects_.end()) return &it->second;
  auto extent = alloc_->Allocate(config_.max_object_size);
  if (!extent.ok()) return extent.status();
  Onode node;
  node.base = *extent;
  stats_.objects_created++;
  return &objects_.emplace(oid, node).first->second;
}

Bytes ObjectStore::OmapKey(const std::string& oid, SnapId snap,
                           ByteSpan user_key) const {
  Bytes key;
  key.reserve(oid.size() + 10 + user_key.size());
  AppendBytes(key, BytesOf(oid));
  AppendU8(key, 0);
  uint8_t snap_be[8];
  StoreU64Be(snap_be, snap);
  AppendBytes(key, ByteSpan(snap_be, 8));
  AppendBytes(key, user_key);
  return key;
}

sim::Task<void> ObjectStore::ChargeApply(std::shared_ptr<ObjectStore> self,
                                         uint64_t abs_offset,
                                         uint64_t length) {
  // Final-location write of the sectors covering [abs_offset, +length).
  // Partial head/tail sectors require a read-modify-write.
  const uint32_t sector = self->device_->sector_size();
  const uint64_t first = abs_offset / sector * sector;
  const uint64_t last = (abs_offset + length + sector - 1) / sector * sector;
  if (abs_offset % sector != 0) {
    self->stats_.rmw_sectors++;
    (void)co_await self->device_->ChargeRead(first, sector);
  }
  const uint64_t tail_sector = (abs_offset + length) / sector * sector;
  if ((abs_offset + length) % sector != 0 && tail_sector != first) {
    self->stats_.rmw_sectors++;
    (void)co_await self->device_->ChargeRead(tail_sector, sector);
  }
  (void)co_await self->device_->ChargeWrite(first, last - first);
  self->stats_.apply_sectors_written += (last - first) / sector;
  self->appliers_.Done();
}

sim::Task<void> ObjectStore::ChargeExtent(std::shared_ptr<ObjectStore> self,
                                          bool is_write, uint64_t abs_offset,
                                          uint64_t length) {
  const uint32_t sector = self->device_->sector_size();
  const uint64_t aligned = (length + sector - 1) / sector * sector;
  if (is_write) {
    (void)co_await self->device_->ChargeWrite(abs_offset, aligned);
  } else {
    (void)co_await self->device_->ChargeRead(abs_offset, aligned);
  }
  self->appliers_.Done();
}

sim::Task<Status> ObjectStore::AppendJournal(uint64_t record) {
  // The frame's sector run is rewritten in one device write (the dirty tail
  // sector plus newly filled ones). The offset advances only after the
  // write, so appends in flight together start from the same offset and
  // the modelled journal fills slower than journal_bytes says; reserving
  // the frame up front would fix that but moves the sim clock.
  const uint64_t start = journal_off_;
  const uint64_t end = start + kJournalFrameHeader + record;
  if (end > config_.journal_size) co_return Status::OutOfSpace("journal full");
  const uint32_t sector = device_->sector_size();
  const uint64_t first = start / sector * sector;
  const uint64_t last = (end + sector - 1) / sector * sector;
  VDE_CO_RETURN_IF_ERROR(co_await device_->ChargeWrite(first, last - first));
  journal_off_ = end;
  co_return Status::Ok();
}

sim::Task<void> ObjectStore::Drain() {
  co_await appliers_.Wait();
}

sim::Task<Status> ObjectStore::MaybeClone(const std::string& oid, Onode& node,
                                          const SnapContext& snapc) {
  if (snapc.seq == 0 || snapc.seq <= node.head_seq) co_return Status::Ok();
  const uint64_t old_seq = node.head_seq;
  node.head_seq = snapc.seq;
  if (node.size == 0 && old_seq == 0) {
    // Object born after the snapshot: nothing to preserve.
    co_return Status::Ok();
  }
  // Preserve current head data for snapshots in (old_seq, snapc.seq].
  auto extent = alloc_->Allocate(std::max<uint64_t>(node.size, 1));
  if (!extent.ok()) co_return extent.status();
  Clone clone{snapc.seq, *extent, node.size, node.trimmed};
  if (node.size > 0) {
    // Copy only the live runs: trimmed ranges read zeros through the
    // clone's own trimmed map, so materializing zero pages for them would
    // waste the sparseness TRIM just bought. A run whose source and
    // destination are page-aligned adopts the head's pages (copy-on-write
    // keeps the two apart); the rest is copied.
    uint64_t pos = 0;
    Bytes run;
    for (auto it = node.trimmed.begin(); pos < node.size; ++it) {
      const uint64_t run_end =
          it == node.trimmed.end() ? node.size : std::min(it->first, node.size);
      if (pos < run_end) {
        const uint64_t src = data_base_ + node.base + pos;
        const uint64_t dst = data_base_ + clone.base + pos;
        uint64_t shared = 0;
        if (src % dev::kPageSize == 0 && dst % dev::kPageSize == 0) {
          const size_t count = (run_end - pos) / dev::kPageSize;
          device_->PokeAdopt(dst, device_->PeekPages(src, count));
          shared = count * dev::kPageSize;
        }
        run.resize(run_end - pos - shared);
        device_->PeekRead(src + shared, run);
        device_->PokeWrite(dst + shared, run);
      }
      if (it == node.trimmed.end()) break;
      pos = it->first + it->second;
    }
    // Charge the copy in the background (Ceph clones lazily; we charge the
    // full copy up front in background time).
    appliers_.Add(2);
    sim::Scheduler::Current().Spawn(
        ChargeExtent(shared_from_this(), false, data_base_ + node.base,
                     node.size));
    sim::Scheduler::Current().Spawn(
        ChargeExtent(shared_from_this(), true, data_base_ + clone.base,
                     node.size));
  }
  // Clone the OMAP rows so per-snapshot IVs stay readable.
  const Bytes head_lo = OmapKey(oid, kHeadSnap, {});
  Bytes head_hi = OmapKey(oid, kHeadSnap, {});
  head_hi.insert(head_hi.end(), 17, 0xFF);
  auto rows = co_await kv_->Scan(head_lo, head_hi);
  if (!rows.ok()) co_return rows.status();
  if (!rows->empty()) {
    kv::WriteBatch batch;
    for (const auto& [k, v] : *rows) {
      // Re-prefix: strip the head prefix, re-attach the clone's snap id.
      const ByteSpan user_key(k.data() + head_lo.size(),
                              k.size() - head_lo.size());
      batch.Put(OmapKey(oid, clone.covers_up_to, user_key), v);
    }
    VDE_CO_RETURN_IF_ERROR(co_await kv_->Write(std::move(batch)));
  }
  node.clones.push_back(clone);
  stats_.clones++;
  co_return Status::Ok();
}

sim::SharedLock& ObjectStore::ObjectLock(const std::string& oid) {
  auto& lock = object_locks_[oid];
  if (!lock) lock = std::make_unique<sim::SharedLock>();
  return *lock;
}

void ObjectStore::MaybePruneLock(const std::string& oid) {
  if (objects_.find(oid) != objects_.end()) return;
  const auto it = object_locks_.find(oid);
  if (it != object_locks_.end() && it->second->idle()) {
    object_locks_.erase(it);
  }
}

sim::Task<Status> ObjectStore::Apply(const Transaction& txn,
                                     const SnapContext& snapc) {
  for (const auto& op : txn.ops) {
    if (!IsWriteClass(op.type)) {
      co_return Status::InvalidArgument("read op in write transaction");
    }
  }
  // 1. Commit point: journal the whole transaction. Journaling pipelines
  // across transactions (like the OSD's journal/WAL stage); only the apply
  // stage below is ordered per object.
  const uint64_t record = TxnRecordSize(txn);
  obs::SpanScope journal_span(txn.trace, obs::Stage::kDevice);
  Status js = co_await AppendJournal(record);
  if (js.code() == StatusCode::kOutOfSpace) {
    // Checkpoint: applied state is durable by construction once the
    // background charges drain, so the journal can restart.
    co_await Drain();
    journal_off_ = 0;
    js = co_await AppendJournal(record);
  }
  journal_span.End();
  VDE_CO_RETURN_IF_ERROR(js);
  stats_.transactions++;
  stats_.journal_bytes += record;

  // Pipelined apply (core model on): the prepare stage — payload staging
  // penalties for sub-sector and unaligned ops — runs BEFORE the
  // per-object exclusive lock, on a rotating core ("any core" stage work),
  // so it overlaps the previous transaction's commit stage. With the core
  // model off the penalties charge inside the lock, exactly as before.
  sim::Scheduler& sched = sim::Scheduler::Current();
  if (sched.core_model_enabled()) {
    const uint32_t sector = device_->sector_size();
    sim::SimTime prepare = 0;
    for (const auto& op : txn.ops) {
      if (op.type == OsdOp::Type::kWrite ||
          op.type == OsdOp::Type::kWriteFull ||
          op.type == OsdOp::Type::kZero || op.type == OsdOp::Type::kTrim) {
        const uint64_t len =
            op.type == OsdOp::Type::kWriteFull ? op.data.size() : op.length;
        const uint64_t off =
            op.type == OsdOp::Type::kWriteFull ? 0 : op.offset;
        prepare += config_.costs.PreparePenalty(
            op.type == OsdOp::Type::kTrim, off, len, sector);
      }
    }
    if (prepare > 0) co_await sim::ChargeCpu{sched.NextShard(), prepare};
  }

  sim::SharedLock& lock = ObjectLock(txn.oid);
  co_await lock.AcquireExclusive();
  const Status status = co_await ApplyLocked(txn, snapc);
  lock.ReleaseExclusive();
  MaybePruneLock(txn.oid);
  co_return status;
}

sim::Task<Status> ObjectStore::ApplyLocked(const Transaction& txn,
                                           const SnapContext& snapc) {
  // 2. Resolve the object and preserve snapshot state before mutating.
  const bool is_remove = txn.ops.size() == 1 &&
                         txn.ops[0].type == OsdOp::Type::kRemove;
  if (is_remove) {
    auto it = objects_.find(txn.oid);
    if (it == objects_.end()) co_return Status::NotFound(txn.oid);
    // Scrub the extent before recycling it: a later tenant of this
    // allocation must never read the removed object's (cipher)text.
    device_->PokeTrim(data_base_ + it->second.base, config_.max_object_size);
    alloc_->Free(it->second.base, config_.max_object_size);
    // Drop head OMAP rows (clone namespaces survive for snapshot reads).
    const Bytes lo = OmapKey(txn.oid, kHeadSnap, {});
    Bytes hi = lo;
    hi.insert(hi.end(), 17, 0xFF);
    auto rows = co_await kv_->Scan(lo, hi);
    if (!rows.ok()) co_return rows.status();
    if (!rows->empty()) {
      kv::WriteBatch batch;
      for (const auto& [k, v] : *rows) batch.Delete(k);
      VDE_CO_RETURN_IF_ERROR(co_await kv_->Write(std::move(batch)));
    }
    objects_.erase(it);
    co_return Status::Ok();
  }

  // Discarding a never-written object is a no-op: materializing it would
  // permanently reserve a full extent for TRIMmed nothing.
  if (objects_.find(txn.oid) == objects_.end()) {
    bool discard_only = true;
    for (const auto& op : txn.ops) {
      if (op.type == OsdOp::Type::kZero || op.type == OsdOp::Type::kTrim) {
        continue;
      }
      if (op.type == OsdOp::Type::kOmapSet &&
          std::all_of(op.omap_kvs.begin(), op.omap_kvs.end(),
                      [](const auto& kv) { return kv.second.empty(); })) {
        continue;
      }
      discard_only = false;
      break;
    }
    if (discard_only) co_return Status::Ok();
  }

  auto node_or = GetOrCreate(txn.oid);
  if (!node_or.ok()) co_return node_or.status();
  Onode& node = **node_or;
  VDE_CO_RETURN_IF_ERROR(co_await MaybeClone(txn.oid, node, snapc));

  // 3. Apply ops: instant visibility, background device-cost charges.
  const uint32_t sector = device_->sector_size();
  sim::Scheduler& sched = sim::Scheduler::Current();
  // Per-object work pins to the object's core (deterministic FNV shard):
  // commits of independent objects run on independent cores, commits of
  // one object serialize — the RADOS per-object ordering made physical.
  const uint64_t obj_shard = sim::ShardOf(txn.oid);
  const bool pipelined = sched.core_model_enabled();
  for (const auto& op : txn.ops) {
    // Software cost of the data-op apply path (sync).
    if (op.type == OsdOp::Type::kWrite || op.type == OsdOp::Type::kWriteFull ||
        op.type == OsdOp::Type::kZero || op.type == OsdOp::Type::kTrim) {
      const uint64_t len =
          op.type == OsdOp::Type::kWriteFull ? op.data.size() : op.length;
      const uint64_t off = op.type == OsdOp::Type::kWriteFull ? 0 : op.offset;
      // Commit-stage cost; the prepare-stage penalties were charged before
      // the lock when pipelining, and fold in here when not.
      sim::SimTime cost = config_.costs.write_op_apply_cost;
      if (!pipelined) {
        cost += config_.costs.PreparePenalty(op.type == OsdOp::Type::kTrim,
                                             off, len, sector);
      }
      co_await sim::ChargeCpu{obj_shard, cost};
    }
    switch (op.type) {
      case OsdOp::Type::kCreate:
        break;  // GetOrCreate already materialized the object
      case OsdOp::Type::kWrite: {
        if (OutOfObject(op.offset, op.data.size())) {
          co_return Status::InvalidArgument("write beyond max object size");
        }
        // Rewriting a trimmed range re-backs its punched sectors and takes
        // the range out of the trimmed-extent map (idempotent otherwise).
        stats_.bytes_restored += alloc_->Restore(node.base + op.offset,
                                                 op.data.size());
        IntervalMapRemove(node.trimmed, op.offset, op.data.size());
        PokeData(data_base_ + node.base + op.offset, op);
        node.size = std::max(node.size, op.offset + op.data.size());
        appliers_.Add(1);
        sim::Scheduler::Current().Spawn(ChargeApply(
            shared_from_this(), data_base_ + node.base + op.offset,
            op.data.size()));
        break;
      }
      case OsdOp::Type::kWriteFull: {
        if (op.data.size() > config_.max_object_size) {
          co_return Status::InvalidArgument("writefull beyond max size");
        }
        stats_.bytes_restored += alloc_->Restore(node.base, op.data.size());
        node.trimmed.clear();
        PokeData(data_base_ + node.base, op);
        // A shrinking WriteFull truncates: the old tail reads as zeros, as
        // it will in any later snapshot clone. Host-side only, so the sim
        // clock does not move.
        if (node.size > op.data.size()) {
          device_->PokeTrim(data_base_ + node.base + op.data.size(),
                            node.size - op.data.size());
        }
        node.size = op.data.size();
        appliers_.Add(1);
        sim::Scheduler::Current().Spawn(
            ChargeApply(shared_from_this(), data_base_ + node.base,
                        op.data.size()));
        break;
      }
      case OsdOp::Type::kZero: {
        if (OutOfObject(op.offset, op.length)) {
          co_return Status::InvalidArgument("zero beyond max object size");
        }
        // Punch instead of writing zero pages: reads return zeros either
        // way and TRIMmed ranges actually release memory. Deallocation is
        // metadata-only — no final-location device write to charge (the
        // per-op software cost above still applies).
        device_->PokeTrim(data_base_ + node.base + op.offset, op.length);
        break;
      }
      case OsdOp::Type::kTrim: {
        if (OutOfObject(op.offset, op.length)) {
          co_return Status::InvalidArgument("trim beyond max object size");
        }
        // Tracked discard: the range enters the trimmed-extent map (reads
        // inside it never touch the device), the data plane drops the
        // pages, and fully covered sectors return to the allocator — TRIM
        // actually grows free capacity instead of writing a zero pattern.
        device_->PokeTrim(data_base_ + node.base + op.offset, op.length);
        stats_.bytes_trimmed += IntervalMapAdd(node.trimmed, op.offset,
                                               op.length);
        alloc_->Punch(node.base + op.offset, op.length);
        stats_.trim_ops++;
        break;
      }
      case OsdOp::Type::kOmapSet: {
        kv::WriteBatch batch;
        for (const auto& [k, v] : op.omap_kvs) {
          batch.Put(OmapKey(txn.oid, kHeadSnap, k), v);
        }
        // OMAP mutations funnel through the store's single kv commit lane
        // (kv_sync_thread); per-key software cost is what makes the OMAP
        // layout collapse at large IO sizes (Fig. 3b/4).
        co_await kv_lane_.Acquire();
        sim::SemGuard lane(kv_lane_);
        co_await sim::ChargeCpu{
            obj_shard, config_.costs.omap_key_write_cost * op.omap_kvs.size()};
        obs::SpanScope kv_span(txn.trace, obs::Stage::kDevice);
        VDE_CO_RETURN_IF_ERROR(co_await kv_->Write(std::move(batch)));
        kv_span.End();
        break;
      }
      case OsdOp::Type::kRemove:
        co_return Status::InvalidArgument("remove must be a lone op");
      case OsdOp::Type::kRead:
      case OsdOp::Type::kOmapGetRange:
        co_return Status::InvalidArgument("read op in write txn");
    }
  }
  co_return Status::Ok();
}

sim::Task<Result<ReadResult>> ObjectStore::ExecuteRead(const Transaction& txn,
                                                       SnapId snap) {
  sim::SharedLock& lock = ObjectLock(txn.oid);
  co_await lock.AcquireShared();
  auto result = co_await ExecuteReadLocked(txn, snap);
  lock.ReleaseShared();
  MaybePruneLock(txn.oid);
  co_return result;
}

sim::Task<Result<ReadResult>> ObjectStore::ExecuteReadLocked(
    const Transaction& txn, SnapId snap) {
  ReadResult result;
  const auto it = objects_.find(txn.oid);

  // Resolve which data extent / omap namespace / trimmed map serves `snap`.
  // A head extent spans max_object_size; a clone's spans only the `size`
  // bytes it captured, and bytes past them read as zeros (the device range
  // beyond belongs to whatever extent comes next).
  uint64_t base = 0;
  uint64_t backed = config_.max_object_size;
  SnapId omap_ns = kHeadSnap;
  bool exists = false;
  const TrimmedMap* trimmed = nullptr;
  if (it != objects_.end()) {
    const Onode& node = it->second;
    if (snap == kHeadSnap) {
      base = node.base;
      trimmed = &node.trimmed;
      exists = true;
    } else {
      // Oldest clone that still covers `snap`; else the head.
      const Clone* chosen = nullptr;
      for (const auto& clone : node.clones) {
        if (clone.covers_up_to >= snap) {
          chosen = &clone;
          break;
        }
      }
      if (chosen != nullptr) {
        base = chosen->base;
        backed = chosen->size;
        omap_ns = chosen->covers_up_to;
        trimmed = &chosen->trimmed;
      } else {
        base = node.base;
        trimmed = &node.trimmed;
      }
      exists = true;
    }
  }

  // Execute all read ops concurrently ("IV reads in parallel to data IO").
  struct OpOut {
    Bytes data;
    std::vector<std::pair<Bytes, Bytes>> omap;
    Status status;
  };
  std::vector<OpOut> outs(txn.ops.size());
  std::vector<sim::Task<void>> tasks;
  for (size_t i = 0; i < txn.ops.size(); ++i) {
    const OsdOp& op = txn.ops[i];
    if (op.type == OsdOp::Type::kRead) {
      if (!exists) {
        co_return Status::NotFound(txn.oid);
      }
      if (OutOfObject(op.offset, op.length)) {
        co_return Status::InvalidArgument("read beyond max object size");
      }
      // Trimmed-read fast path: a range fully inside the trimmed-extent
      // map is zeros by definition — no device IO, no device-time charge.
      if (trimmed != nullptr &&
          IntervalMapCovers(*trimmed, op.offset, op.length)) {
        outs[i].data.assign(op.length, 0);
        outs[i].status = Status::Ok();
        stats_.trimmed_reads++;
        continue;
      }
      tasks.push_back([](ObjectStore* self, const OsdOp* op, uint64_t base,
                         uint64_t backed, obs::TraceContext* trace,
                         OpOut* out) -> sim::Task<void> {
        const uint32_t sector = self->device_->sector_size();
        const uint64_t abs = self->data_base_ + base + op->offset;
        const uint64_t first = abs / sector * sector;
        const uint64_t last =
            (abs + op->length + sector - 1) / sector * sector;
        Bytes covered(last - first);
        obs::SpanScope dev_span(trace, obs::Stage::kDevice);
        out->status = co_await self->device_->Read(first, covered);
        dev_span.End();
        if (out->status.ok()) {
          out->data.assign(
              covered.begin() + static_cast<long>(abs - first),
              covered.begin() + static_cast<long>(abs - first + op->length));
          if (op->offset + op->length > backed) {
            const uint64_t keep =
                op->offset < backed ? backed - op->offset : 0;
            std::fill(out->data.begin() + static_cast<long>(keep),
                      out->data.end(), 0);
          }
        }
      }(this, &op, base, backed, txn.trace, &outs[i]));
    } else if (op.type == OsdOp::Type::kOmapGetRange) {
      tasks.push_back([](ObjectStore* self, const std::string oid,
                         const OsdOp* op, SnapId ns,
                         obs::TraceContext* trace,
                         OpOut* out) -> sim::Task<void> {
        const Bytes lo = self->OmapKey(oid, ns, op->omap_start);
        Bytes hi;
        if (op->omap_end.empty()) {
          hi = self->OmapKey(oid, ns, {});
          hi.insert(hi.end(), 17, 0xFF);
        } else {
          hi = self->OmapKey(oid, ns, op->omap_end);
        }
        obs::SpanScope dev_span(trace, obs::Stage::kDevice);
        auto rows = co_await self->kv_->Scan(lo, hi, op->omap_max);
        dev_span.End();
        if (!rows.ok()) {
          out->status = rows.status();
          co_return;
        }
        const size_t prefix = self->OmapKey(oid, ns, {}).size();
        for (auto& [k, v] : *rows) {
          out->omap.emplace_back(Bytes(k.begin() + static_cast<long>(prefix),
                                       k.end()),
                                 std::move(v));
        }
      }(this, txn.oid, &op, omap_ns, txn.trace, &outs[i]));
    } else {
      co_return Status::InvalidArgument("write op in read txn");
    }
  }
  co_await sim::WhenAll(std::move(tasks));

  for (auto& out : outs) {
    if (!out.status.ok()) co_return out.status;
    AppendBytes(result.data, out.data);
    for (auto& kv : out.omap) result.omap_values.push_back(std::move(kv));
  }
  co_return result;
}

}  // namespace vde::objstore
