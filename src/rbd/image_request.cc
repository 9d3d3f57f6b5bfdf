#include "rbd/image_request.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "rbd/image.h"
#include "rbd/iv_cache.h"
#include "sim/sync.h"

namespace vde::rbd {

namespace {

using core::kBlockSize;

// IoKind and obs::OpKind mirror each other so the obs module stays
// rbd-independent; keep the numeric mapping in lockstep.
static_assert(static_cast<uint8_t>(IoKind::kRead) ==
              static_cast<uint8_t>(obs::OpKind::kRead));
static_assert(static_cast<uint8_t>(IoKind::kWrite) ==
              static_cast<uint8_t>(obs::OpKind::kWrite));
static_assert(static_cast<uint8_t>(IoKind::kDiscard) ==
              static_cast<uint8_t>(obs::OpKind::kDiscard));
static_assert(static_cast<uint8_t>(IoKind::kWriteZeroes) ==
              static_cast<uint8_t>(obs::OpKind::kWriteZeroes));
static_assert(static_cast<uint8_t>(IoKind::kFlush) ==
              static_cast<uint8_t>(obs::OpKind::kFlush));

obs::OpKind ToOpKind(IoKind kind) {
  return static_cast<obs::OpKind>(static_cast<uint8_t>(kind));
}

// A one-or-few-block sub-extent of a covering extent.
core::ObjectExtent SubExtent(const core::ObjectExtent& cover, size_t blk,
                             size_t count) {
  core::ObjectExtent e = cover;
  e.first_block = cover.first_block + blk;
  e.block_count = count;
  e.image_block = cover.image_block + blk;
  return e;
}

// Walks the iovec segments overlapping [buf_off, buf_off+len), invoking
// `fn(segment_slice, offset_in_range)` per piece.
template <typename SpanT, typename Fn>
void ForEachSegment(const std::vector<SpanT>& iov, uint64_t buf_off,
                    uint64_t len, Fn&& fn) {
  uint64_t skip = buf_off;
  uint64_t done = 0;
  for (const auto& seg : iov) {
    if (done == len) break;
    if (skip >= seg.size()) {
      skip -= seg.size();
      continue;
    }
    const size_t take = std::min<size_t>(seg.size() - skip, len - done);
    fn(seg.subspan(skip, take), done);
    done += take;
    skip = 0;
  }
  assert(done == len);
}

// The single segment slice holding [buf_off, buf_off+len), or empty if the
// range spans segments.
template <typename SpanT>
SpanT ContiguousAt(const std::vector<SpanT>& iov, uint64_t buf_off,
                   uint64_t len) {
  uint64_t pos = 0;
  for (const auto& seg : iov) {
    if (buf_off < pos + seg.size()) {
      const uint64_t in_seg = buf_off - pos;
      if (in_seg + len <= seg.size()) return seg.subspan(in_seg, len);
      return {};
    }
    pos += seg.size();
  }
  return {};
}

// Partially-covered edge blocks of a write range: each pays the format's
// sub-block merge surcharge on top of streaming the payload bytes.
size_t PartialEdges(uint64_t byte_off, uint64_t byte_len, size_t block_count) {
  const bool head = byte_off % kBlockSize != 0;
  const bool tail = (byte_off + byte_len) % kBlockSize != 0;
  if (head && tail && block_count == 1) return 1;  // same block twice
  return (head ? 1 : 0) + (tail ? 1 : 0);
}

// Releases a write-back hold when the owning chunk task finishes (or
// earlier, via Release).
class HoldGuard {
 public:
  HoldGuard(Writeback& wb, Writeback::Hold* hold) : wb_(wb), hold_(hold) {}
  HoldGuard(const HoldGuard&) = delete;
  HoldGuard& operator=(const HoldGuard&) = delete;
  ~HoldGuard() { Release(); }

  void Release() {
    if (hold_ != nullptr) wb_.Release(hold_);
    hold_ = nullptr;
  }

 private:
  Writeback& wb_;
  Writeback::Hold* hold_;
};

}  // namespace

ImageRequest::ImageRequest(Image& image, IoKind kind, uint64_t offset,
                           uint64_t length, std::vector<ByteSpan> src,
                           std::vector<MutByteSpan> dst, objstore::SnapId snap,
                           CompletionPtr completion)
    : image_(image),
      kind_(kind),
      offset_(offset),
      length_(length),
      src_(std::move(src)),
      dst_(std::move(dst)),
      snap_(snap),
      completion_(std::move(completion)) {}

Status ImageRequest::Validate() const {
  if (kind_ == IoKind::kFlush) return Status::Ok();
  if (length_ == 0) return Status::InvalidArgument("zero-length IO");
  if (offset_ + length_ < offset_ || offset_ + length_ > image_.size()) {
    return Status::InvalidArgument("IO past end of image");
  }
  uint64_t iov_len = 0;
  if (kind_ == IoKind::kRead) {
    for (const auto& seg : dst_) iov_len += seg.size();
    if (iov_len != length_) {
      return Status::InvalidArgument("read iovec size mismatch");
    }
  } else if (kind_ == IoKind::kWrite) {
    for (const auto& seg : src_) iov_len += seg.size();
    if (iov_len != length_) {
      return Status::InvalidArgument("write iovec size mismatch");
    }
  }
  return Status::Ok();
}

void ImageRequest::RegisterHolds() {
  Writeback& wb = *image_.writeback_;
  holds_.assign(chunks_.size(), nullptr);
  for (size_t i = 0; i < chunks_.size(); ++i) {
    const Chunk& c = chunks_[i];
    const uint64_t first = c.cover.first_block;
    const uint64_t last = first + c.cover.block_count - 1;
    switch (kind_) {
      case IoKind::kRead:
        holds_[i] = wb.Register(c.cover.object_no, first, last,
                                /*exclusive=*/false);
        break;
      case IoKind::kWrite:
      case IoKind::kWriteZeroes:
        holds_[i] = wb.Register(c.cover.object_no, first, last,
                                /*exclusive=*/true);
        break;
      case IoKind::kDiscard: {
        // TRIM mutates only whole blocks inside the range; a sub-block
        // discard is a no-op and must not serialize against anything.
        const uint64_t first_full =
            first + (c.byte_off + kBlockSize - 1) / kBlockSize;
        const uint64_t end_full = first + (c.byte_off + c.byte_len) / kBlockSize;
        if (first_full < end_full) {
          holds_[i] = wb.Register(c.cover.object_no, first_full, end_full - 1,
                                  /*exclusive=*/true);
        }
        break;
      }
      case IoKind::kFlush:
        break;
    }
  }
}

bool ImageRequest::StageEligible(const Chunk& chunk) const {
  if (kind_ != IoKind::kWrite || !image_.writeback_->coalescing()) {
    return false;
  }
  // Small writes with a partial edge: these are the RMW-paying chunks the
  // staging buffer absorbs. Aligned or multi-block bulk writes go straight
  // through (staging them would only copy bytes twice — and would let a
  // bulk write linger in the volatile buffer for no RMW savings).
  if (chunk.cover.block_count > 2) return false;
  const bool head_partial = chunk.byte_off % kBlockSize != 0;
  const bool tail_partial =
      (chunk.byte_off + chunk.byte_len) % kBlockSize != 0;
  return head_partial || tail_partial;
}

void ImageRequest::Submit(Image& image, IoKind kind, uint64_t offset,
                          uint64_t length, std::vector<ByteSpan> src,
                          std::vector<MutByteSpan> dst, objstore::SnapId snap,
                          CompletionPtr completion) {
  assert(completion != nullptr);
  std::unique_ptr<ImageRequest> req(
      new ImageRequest(image, kind, offset, length, std::move(src),
                       std::move(dst), snap, std::move(completion)));
  Status valid = req->Validate();
  if (!valid.ok()) {
    req->completion_->Finish(std::move(valid), 0);
    return;
  }
  // Flush ordering tickets and block-range holds are both taken in ISSUE
  // order, synchronously, before the request coroutine first runs: flush
  // barriers cover "everything issued before", and overlapping block
  // ranges are admitted in the order the guest submitted them even when
  // many requests are submitted back to back.
  if (req->kind_ != IoKind::kFlush) {
    req->chunks_ = req->Chunks();
    req->RegisterHolds();
  }
  if (req->IsWriteClass()) {
    req->write_seq_ = image.BeginWriteIo();
    req->seq_assigned_ = true;
  } else if (kind == IoKind::kFlush) {
    req->write_seq_ = image.next_write_seq_;  // barrier
  }
  // Observability: the trace context is born here (queue stage open) and
  // shared with the completion; Run() closes the queue stage when the
  // request coroutine actually starts. Null when disabled.
  req->trace_ = image.obs().BeginOp(ToOpKind(kind), offset, length);
  req->completion_->set_trace(req->trace_);
  if (req->trace_ != nullptr) req->trace_->Enter(obs::Stage::kQueue);
  // Admission: an enabled QoS tenant rides the shared dispatch queue (FIFO
  // per image, so holds and flush tickets — both taken above, in submission
  // order — are owned only by requests dispatched no later than ours);
  // otherwise spawn directly. Flushes move no data and pay no tokens, but
  // still queue FIFO behind the writes they fence.
  qos::Scheduler* qsched = image.qos_scheduler();
  if (qsched != nullptr && qsched->enabled(image.qos_tenant())) {
    const uint64_t cost = req->length_;
    const bool charge = kind != IoKind::kFlush;
    qsched->Submit(image.qos_tenant(), cost, charge, Run(std::move(req)));
  } else {
    sim::Scheduler::Current().Spawn(Run(std::move(req)));
  }
}

sim::Task<void> ImageRequest::Run(std::unique_ptr<ImageRequest> self) {
  if (obs::TraceContext* t = self->ctx()) {
    // The queue stage spans submit -> coroutine start (zero on the
    // direct-spawn path, the qos dispatch wait otherwise).
    const sim::SimTime now = sim::Scheduler::Current().now();
    t->Exit(obs::Stage::kQueue);
    if (now > t->submit_ns()) {
      t->RecordSpan(obs::Stage::kQueue, t->submit_ns(), now - t->submit_ns());
    }
  }
  Status status = co_await self->Execute();
  if (self->seq_assigned_) self->image_.EndWriteIo(self->write_seq_);
  if (status.ok()) {
    ImageStats& stats = self->image_.stats_;
    switch (self->kind_) {
      case IoKind::kRead:
        stats.reads++;
        stats.bytes_read += self->length_;
        break;
      case IoKind::kWrite:
        stats.writes++;
        stats.bytes_written += self->length_;
        break;
      case IoKind::kDiscard:
      case IoKind::kWriteZeroes:
        stats.discards++;
        stats.bytes_discarded += self->length_;
        break;
      case IoKind::kFlush:
        stats.flushes++;
        break;
    }
  }
  const uint64_t bytes = status.ok() ? self->length_ : 0;
  self->image_.obs().EndOp(self->trace_, sim::Scheduler::Current().now(),
                           status.ok());
  self->completion_->Finish(std::move(status), bytes);
}

sim::Task<Status> ImageRequest::Execute() {
  switch (kind_) {
    case IoKind::kRead:
      co_return co_await RunChunks(&ImageRequest::ReadChunk);
    case IoKind::kWrite:
      co_return co_await RunChunks(&ImageRequest::WriteChunk);
    case IoKind::kDiscard:
    case IoKind::kWriteZeroes:
      co_return co_await RunChunks(&ImageRequest::DiscardChunk);
    case IoKind::kFlush:
      co_return co_await ExecuteFlushOp();
  }
  co_return Status::InvalidArgument("unknown IO kind");
}

sim::Task<Status> ImageRequest::RunChunks(ChunkFn fn) {
  std::vector<Status> results(chunks_.size());
  std::vector<sim::Task<void>> tasks;
  for (size_t i = 0; i < chunks_.size(); ++i) {
    tasks.push_back([](ImageRequest* self, ChunkFn fn, size_t idx,
                       Status* out) -> sim::Task<void> {
      *out = co_await (self->*fn)(idx);
    }(this, fn, i, &results[i]));
  }
  co_await sim::WhenAll(std::move(tasks));
  for (const auto& s : results) {
    if (!s.ok()) co_return s;
  }
  co_return Status::Ok();
}

std::vector<ImageRequest::Chunk> ImageRequest::Chunks() const {
  // Walk the striping map: each iteration takes the contiguous run the
  // layout offers at `pos`. With the default geometry (stripe_count 1) the
  // run reaches the object end and this degenerates to the legacy
  // object-per-chunk split; with striping, consecutive stripe units land
  // on different objects and fan the request out across them.
  std::vector<Chunk> chunks;
  uint64_t pos = offset_;
  const uint64_t end = offset_ + length_;
  while (pos < end) {
    const Image::StripeRun at = image_.MapOffset(pos);
    const uint64_t take = std::min(end - pos, at.run);
    const uint64_t first_block = at.in_obj / kBlockSize;
    const uint64_t block_end =
        (at.in_obj + take + kBlockSize - 1) / kBlockSize;
    Chunk c;
    c.cover.oid = image_.ObjectName(at.object_no);
    c.cover.object_no = at.object_no;
    c.cover.first_block = first_block;
    c.cover.block_count = block_end - first_block;
    // Physical block numbering: IV/tweak binding keys off the block's home
    // in the object space, independent of the guest-side stripe order.
    c.cover.image_block =
        at.object_no * image_.blocks_per_object() + first_block;
    c.byte_off = at.in_obj - first_block * kBlockSize;
    c.byte_len = take;
    c.buf_off = pos - offset_;
    chunks.push_back(std::move(c));
    pos += take;
  }
  return chunks;
}

void ImageRequest::GatherFrom(uint64_t buf_off, MutByteSpan out) const {
  ForEachSegment(src_, buf_off, out.size(),
                 [&](ByteSpan piece, uint64_t at) {
                   std::memcpy(out.data() + at, piece.data(), piece.size());
                 });
}

void ImageRequest::ScatterTo(uint64_t buf_off, ByteSpan in) {
  ForEachSegment(dst_, buf_off, in.size(),
                 [&](MutByteSpan piece, uint64_t at) {
                   std::memcpy(piece.data(), in.data() + at, piece.size());
                 });
}

// --- Read ---

MutByteSpan ImageRequest::ContiguousDst(uint64_t buf_off, uint64_t len) const {
  return ContiguousAt(dst_, buf_off, len);
}

sim::Task<Status> ImageRequest::ReadChunk(size_t idx) {
  const Chunk& chunk = chunks_[idx];
  Writeback& wb = *image_.writeback_;
  {
    obs::SpanScope wb_span(ctx(), obs::Stage::kWb);
    co_await wb.Acquire(holds_[idx]);
  }
  HoldGuard held(wb, holds_[idx]);

  const size_t cover_bytes = chunk.cover.block_count * kBlockSize;
  // Block-aligned chunks landing in one iovec segment decrypt straight
  // into the caller's buffer; otherwise go through a scratch cover.
  MutByteSpan out;
  Bytes scratch;
  if (chunk.byte_off == 0 && chunk.byte_len == cover_bytes) {
    out = ContiguousDst(chunk.buf_off, chunk.byte_len);
  }
  if (out.empty()) {
    scratch.resize(cover_bytes);
    out = scratch;
  }
  // Completed-but-unflushed writes live in the staging buffer; the head
  // snapshot must observe them (read-your-writes under a shared hold —
  // the stage cannot change while we hold it). A cover whose every block
  // is staged needs no store read at all: the stages ARE the content —
  // the hot read-after-write path of the db workload.
  const bool head = snap_ == objstore::kHeadSnap;
  Image::ReadWork work;
  bool fully_staged = head;
  for (size_t b = 0; fully_staged && b < chunk.cover.block_count; ++b) {
    fully_staged = wb.Staged(chunk.cover.object_no,
                             chunk.cover.first_block + b) != nullptr;
  }
  if (!fully_staged) {
    // Head reads on an authenticating format carry the object's verified
    // discard bitmap into FinishRead (the erase-channel check); snapshot
    // reads carry none — a clone's cleared blocks keep legacy semantics.
    const core::DiscardBitmap* zeros = nullptr;
    if (head && image_.trim_state_->enabled()) {
      VDE_CO_RETURN_IF_ERROR(
          co_await image_.EnsureObjectState(chunk.cover.object_no, ctx()));
      zeros = image_.trim_state_->Lookup(chunk.cover.object_no);
    }
    // A fully-cached extent reads data-only and decrypts with the resident
    // IV rows; snapshot reads bypass the cache (rows describe the head).
    const Image::ExtentRead read{chunk.cover, out};
    auto got = co_await image_.ReadExtents(
        chunk.cover.oid, {&read, 1}, head ? image_.iv_cache_.get() : nullptr,
        zeros, snap_, ctx());
    VDE_CO_RETURN_IF_ERROR(got.status());
    work = *got;
  }
  if (head) {
    for (size_t b = 0; b < chunk.cover.block_count; ++b) {
      if (const Bytes* staged =
              wb.Staged(chunk.cover.object_no, chunk.cover.first_block + b)) {
        std::memcpy(out.data() + b * kBlockSize, staged->data(), kBlockSize);
      }
    }
  }
  if (!scratch.empty()) {
    ScatterTo(chunk.buf_off, ByteSpan(scratch.data() + chunk.byte_off,
                                      chunk.byte_len));
  }
  // Read-populated IV rows spill into the meta journal.
  VDE_CO_RETURN_IF_ERROR(co_await image_.MaybeFlushJournal());
  // Client-side decrypt of the cover that really hit the cipher (partial
  // blocks decrypt whole even if the guest asked for 512 B of them), then
  // expansion of the blocks stored compressed; staged covers cost nothing.
  // Charged outside the hold, on the object's core: chunks of different
  // objects decrypt concurrently.
  held.Release();
  co_await image_.ChargeRead(ctx(), chunk.cover.oid, work);
  co_return Status::Ok();
}

// --- Write ---

sim::Task<Status> ImageRequest::RmwReadEdges(const Chunk& chunk,
                                             MutByteSpan head_block,
                                             MutByteSpan tail_block) {
  // Edges whose block sits in the write-back buffer read from the stage —
  // that IS the current block content, and the store copy may be stale.
  Writeback& wb = *image_.writeback_;
  std::vector<Image::ExtentRead> from_store;
  auto edge = [&](size_t blk, MutByteSpan out) {
    if (out.empty()) return;
    if (const Bytes* staged =
            wb.Staged(chunk.cover.object_no, chunk.cover.first_block + blk)) {
      std::memcpy(out.data(), staged->data(), kBlockSize);
      image_.stats_.rmw_merged++;
    } else {
      from_store.push_back({SubExtent(chunk.cover, blk, 1), out});
    }
  };
  edge(0, head_block);
  edge(chunk.cover.block_count - 1, tail_block);
  if (from_store.empty()) co_return Status::Ok();
  image_.stats_.rmw_blocks += from_store.size();

  // RMW reads merge into the head: load + thread the discard bitmap.
  const core::DiscardBitmap* zeros = nullptr;
  if (image_.trim_state_->enabled()) {
    VDE_CO_RETURN_IF_ERROR(
        co_await image_.EnsureObjectState(chunk.cover.object_no, ctx()));
    zeros = image_.trim_state_->Lookup(chunk.cover.object_no);
  }
  // All RMW sub-reads of this object ride ONE read transaction; each edge
  // plans against the IV cache independently (RMW edges are the hot
  // single-block case where even the interleaved layout profits).
  auto work = co_await image_.ReadExtents(chunk.cover.oid, from_store,
                                          image_.iv_cache_.get(), zeros,
                                          objstore::kHeadSnap, ctx());
  VDE_CO_RETURN_IF_ERROR(work.status());
  co_await image_.ChargeRead(ctx(), chunk.cover.oid, *work);
  co_return Status::Ok();
}

ByteSpan ImageRequest::ContiguousSrc(uint64_t buf_off, uint64_t len) const {
  return ContiguousAt(src_, buf_off, len);
}

sim::Task<Status> ImageRequest::StageChunk(const Chunk& chunk) {
  // The chunk covers one or two blocks (StageEligible); park each block's
  // slice in the write-back buffer. byte_off is always < kBlockSize by
  // construction, so the first touched block is cover-relative block 0.
  Writeback& wb = *image_.writeback_;
  const uint64_t end = chunk.byte_off + chunk.byte_len;
  Bytes tmp;
  for (size_t b = 0; b * kBlockSize < end; ++b) {
    const uint64_t slice_start = std::max<uint64_t>(chunk.byte_off,
                                                    b * kBlockSize);
    const uint64_t slice_end = std::min<uint64_t>(end, (b + 1) * kBlockSize);
    tmp.resize(slice_end - slice_start);
    GatherFrom(chunk.buf_off + (slice_start - chunk.byte_off), tmp);
    VDE_CO_RETURN_IF_ERROR(co_await wb.StageWrite(
        chunk.cover.object_no, chunk.cover.first_block + b,
        slice_start - b * kBlockSize, tmp));
  }
  co_return Status::Ok();
}

sim::Task<Status> ImageRequest::WriteChunk(size_t idx) {
  const Chunk& chunk = chunks_[idx];
  Writeback& wb = *image_.writeback_;
  core::EncryptionFormat& fmt = *image_.format_;
  const size_t cover_bytes = chunk.cover.block_count * kBlockSize;
  const bool staged = StageEligible(chunk);
  if (!staged) {
    // Client-side encrypt of a write-through chunk, before its hold, on the
    // object's core: chunks bound for different objects (striped writes in
    // particular) encrypt concurrently. Staged chunks pay at stage creation
    // (RMW decrypt) and flush (encrypt) instead — the coalescing win. The
    // cipher streams the payload once plus a merge surcharge per partial
    // edge block; pay-to-try compression feeds every covering block through
    // the codec, shrunk or not.
    co_await Image::ChargeClientCpu(
        ctx(), chunk.cover.oid,
        fmt.IoCryptoCost(chunk.byte_len,
                         PartialEdges(chunk.byte_off, chunk.byte_len,
                                      chunk.cover.block_count)),
        fmt.CompressCost(cover_bytes));
  }
  {
    obs::SpanScope wb_span(ctx(), obs::Stage::kWb);
    co_await wb.Acquire(holds_[idx]);
  }
  HoldGuard held(wb, holds_[idx]);

  if (staged) {
    // Staging (and any eviction IO it triggers) is write-back work.
    obs::SpanScope wb_span(ctx(), obs::Stage::kWb);
    co_return co_await StageChunk(chunk);
  }

  const bool head_partial = chunk.byte_off % kBlockSize != 0;
  const bool tail_partial = (chunk.byte_off + chunk.byte_len) % kBlockSize != 0;
  VDE_CO_RETURN_IF_ERROR(
      co_await image_.PrepareMutation(chunk.cover.object_no, ctx()));
  // A block-aligned chunk from one iovec segment encrypts straight from the
  // caller's buffer, no staging copy; anything else is merged into a
  // scratch cover, the partial edges read back first.
  ByteSpan plain;
  if (!head_partial && !tail_partial) {
    plain = ContiguousSrc(chunk.buf_off, chunk.byte_len);
  }
  Bytes scratch;
  if (plain.empty()) {
    scratch.assign(cover_bytes, 0);
    if (head_partial || tail_partial) {
      const size_t last = chunk.cover.block_count - 1;
      MutByteSpan head, tail;
      if (head_partial) head = MutByteSpan(scratch.data(), kBlockSize);
      if (tail_partial && !(head_partial && last == 0)) {
        tail = MutByteSpan(scratch.data() + last * kBlockSize, kBlockSize);
      }
      VDE_CO_RETURN_IF_ERROR(co_await RmwReadEdges(chunk, head, tail));
    }
    GatherFrom(chunk.buf_off,
               MutByteSpan(scratch.data() + chunk.byte_off, chunk.byte_len));
    plain = scratch;
  }
  // Re-encrypt only the touched blocks. Writing makes them live: if any was
  // zero-legit in the discard bitmap, the commit carries the updated MAC'd
  // bitmap (steady-state overwrites of live blocks stage nothing).
  objstore::Transaction txn;
  core::IvRows ivs;
  core::IvRows* const ivs_out = image_.IvCapture(&ivs);
  VDE_CO_RETURN_IF_ERROR(fmt.MakeWrite(chunk.cover, plain, txn, ivs_out));
  const BlockRuns written{{chunk.cover.first_block, chunk.cover.block_count}};
  VDE_CO_RETURN_IF_ERROR(co_await image_.CommitObjectTxn(
      chunk.cover.oid, chunk.cover.object_no, std::move(txn), written, {},
      ctx()));
  // Staged edge content was folded in via RmwReadEdges; interior stages
  // are overwritten outright. Either way the buffer copy is superseded.
  wb.DropRange(chunk.cover.object_no, chunk.cover.first_block,
               chunk.cover.first_block + chunk.cover.block_count - 1);
  if (ivs_out != nullptr) {
    image_.iv_cache_->PutRange(chunk.cover.object_no, chunk.cover.first_block,
                               ivs);
  }
  co_return co_await image_.MaybeFlushJournal();
}

// --- Discard / WriteZeroes ---

sim::Task<Status> ImageRequest::DiscardChunk(size_t idx) {
  const Chunk& chunk = chunks_[idx];
  Writeback& wb = *image_.writeback_;
  core::EncryptionFormat& fmt = *image_.format_;
  const uint64_t start = chunk.byte_off;
  const uint64_t end = chunk.byte_off + chunk.byte_len;
  // Whole blocks inside the range, as cover-relative block indices.
  const uint64_t first_full = (start + kBlockSize - 1) / kBlockSize;
  const uint64_t end_full = end / kBlockSize;

  if (kind_ == IoKind::kDiscard) {
    // TRIM granularity: round inward; a sub-block discard is a no-op (and
    // registered no hold).
    if (first_full >= end_full) co_return Status::Ok();
    {
      obs::SpanScope wb_span(ctx(), obs::Stage::kWb);
      co_await wb.Acquire(holds_[idx]);
    }
    HoldGuard held(wb, holds_[idx]);
    const auto ext =
        SubExtent(chunk.cover, first_full, end_full - first_full);
    // A discard of the entire object drops it outright — unless snapshots
    // pin it (the clone machinery only runs on write-class data ops).
    const bool remove = ext.first_block == 0 &&
                        ext.block_count == image_.blocks_per_object() &&
                        image_.snaps_.empty();
    if (!remove) {
      VDE_CO_RETURN_IF_ERROR(
          co_await image_.PrepareMutation(chunk.cover.object_no, ctx()));
      // The trimmed blocks become zero-legit: the MAC'd bitmap update rides
      // the same atomic transaction as the trim itself.
      objstore::Transaction txn;
      fmt.MakeDiscard(ext, txn);
      const BlockRuns trimmed{{ext.first_block, ext.block_count}};
      VDE_CO_RETURN_IF_ERROR(co_await image_.CommitObjectTxn(
          chunk.cover.oid, chunk.cover.object_no, std::move(txn), {}, trimmed,
          ctx()));
    } else {
      if (image_.meta_store_ != nullptr) {
        // OnRemove bumps the object's epoch; with the plane journaling
        // that generation it must be the REAL one — load the current
        // record first (a reset-to-zero epoch would let an old sealed
        // bitmap replay through the floor check).
        VDE_CO_RETURN_IF_ERROR(
            co_await image_.PrepareMutation(chunk.cover.object_no, ctx()));
      }
      objstore::Transaction txn;
      objstore::OsdOp op;
      op.type = objstore::OsdOp::Type::kRemove;
      txn.ops.push_back(std::move(op));
      auto io = image_.io();
      txn.trace = ctx();
      obs::SpanScope store_span(ctx(), obs::Stage::kStore);
      Status s = co_await io.Operate(chunk.cover.oid, std::move(txn),
                                     image_.SnapContext());
      store_span.End();
      if (!s.ok() && !s.IsNotFound()) co_return s;
    }
    // Trimmed blocks read zeros from now on; drop their staged copies so
    // a later flush cannot resurrect the data, then cache cleared markers
    // so warmed rereads of the range never reach the store. A removed
    // object's persisted bitmap is gone too: every block is zero-legit.
    wb.DropRange(chunk.cover.object_no, ext.first_block,
                 ext.first_block + ext.block_count - 1);
    if (remove) image_.trim_state_->OnRemove(chunk.cover.object_no);
    image_.iv_cache_->PutCleared(chunk.cover.object_no, ext.first_block,
                                 ext.block_count);
    // AFTER PutCleared: the cleared markers it spilled are the last rows a
    // removed object journals, and the plane GCs them (with the sealed
    // bitmap) at Close — only the epoch floor survives a removed object.
    if (remove && image_.meta_store_ != nullptr) {
      image_.meta_store_->OnObjectRemoved(chunk.cover.object_no);
    }
    co_return co_await image_.MaybeFlushJournal();
  }

  // Write-zeroes: exact byte semantics. Whole blocks are cleared with kZero
  // ops; partial edge blocks merge zeros via RMW (served from the staging
  // buffer when the block is parked there) and are re-encrypted. All of it
  // rides ONE per-object transaction. Only the edge blocks are buffered —
  // the interior needs no staging at all.
  {
    obs::SpanScope wb_span(ctx(), obs::Stage::kWb);
    co_await wb.Acquire(holds_[idx]);
  }
  HoldGuard held(wb, holds_[idx]);
  VDE_CO_RETURN_IF_ERROR(
      co_await image_.PrepareMutation(chunk.cover.object_no, ctx()));
  const bool head_partial = start % kBlockSize != 0;
  const bool tail_partial = end % kBlockSize != 0;
  const size_t last = chunk.cover.block_count - 1;
  Bytes head_buf, tail_buf;
  if (head_partial) head_buf.assign(kBlockSize, 0);
  if (tail_partial && !(head_partial && last == 0)) {
    tail_buf.assign(kBlockSize, 0);
  }
  objstore::Transaction txn;
  BlockRuns edge_written;
  core::IvRows head_ivs, tail_ivs;
  VDE_CO_RETURN_IF_ERROR(co_await RmwReadEdges(chunk, MutByteSpan(head_buf),
                                               MutByteSpan(tail_buf)));
  if (!head_buf.empty()) {
    // The head block covers cover-relative bytes [0, kBlockSize).
    std::fill(head_buf.begin() + static_cast<long>(start),
              head_buf.begin() +
                  static_cast<long>(std::min<uint64_t>(end, kBlockSize)),
              0);
    VDE_CO_RETURN_IF_ERROR(fmt.MakeWrite(SubExtent(chunk.cover, 0, 1),
                                         ByteSpan(head_buf), txn,
                                         image_.IvCapture(&head_ivs)));
    edge_written.emplace_back(chunk.cover.first_block, 1);
  }
  if (!tail_buf.empty()) {
    // The tail block covers [last*kBlockSize, end of cover); the zero
    // range reaches from its start to `end`.
    std::fill(tail_buf.begin(),
              tail_buf.begin() +
                  static_cast<long>(end - last * uint64_t{kBlockSize}),
              0);
    VDE_CO_RETURN_IF_ERROR(fmt.MakeWrite(SubExtent(chunk.cover, last, 1),
                                         ByteSpan(tail_buf), txn,
                                         image_.IvCapture(&tail_ivs)));
    edge_written.emplace_back(chunk.cover.first_block + last, 1);
  }
  BlockRuns trimmed;
  if (first_full < end_full) {
    fmt.MakeDiscard(SubExtent(chunk.cover, first_full, end_full - first_full),
                    txn);
    trimmed.emplace_back(chunk.cover.first_block + first_full,
                         end_full - first_full);
  }
  // One bitmap update covers both motions — edges become live (written
  // zeros), the interior becomes zero-legit (trimmed) — and rides the same
  // atomic transaction, after the re-encrypted edges pay their cipher.
  std::optional<Image::CpuCost> cpu;
  if (!edge_written.empty()) {
    const size_t edge_bytes = edge_written.size() * kBlockSize;
    cpu = Image::CpuCost{fmt.CryptoCost(edge_bytes),
                         fmt.CompressCost(edge_bytes)};
  }
  VDE_CO_RETURN_IF_ERROR(co_await image_.CommitObjectTxn(
      chunk.cover.oid, chunk.cover.object_no, std::move(txn), edge_written,
      trimmed, ctx(), cpu));
  // Edge stages were folded into the zeroed blocks, interior stages are
  // cleared in the store: every staged copy under the cover is superseded
  // (DropRange also invalidates the cleared blocks' cached IV rows — the
  // re-encrypted edges get their fresh rows back right after, and the
  // trimmed interior gets cleared markers).
  wb.DropRange(chunk.cover.object_no, chunk.cover.first_block,
               chunk.cover.first_block + last);
  if (first_full < end_full) {
    image_.iv_cache_->PutCleared(chunk.cover.object_no,
                                 chunk.cover.first_block + first_full,
                                 end_full - first_full);
  }
  if (!head_ivs.empty()) {
    image_.iv_cache_->PutRange(chunk.cover.object_no, chunk.cover.first_block,
                               head_ivs);
  }
  if (!tail_ivs.empty()) {
    image_.iv_cache_->PutRange(chunk.cover.object_no,
                               chunk.cover.first_block + last, tail_ivs);
  }
  co_return co_await image_.MaybeFlushJournal();
}

// --- Flush ---

sim::Task<Status> ImageRequest::ExecuteFlushOp() {
  // The whole barrier — waiting out earlier writes, draining the staging
  // buffer, committing the meta journal — is write-back work.
  obs::SpanScope wb_span(ctx(), obs::Stage::kWb);
  // write_seq_ holds the barrier: every write-class ticket below it must
  // retire before the flush resolves. A retired staged write may still sit
  // in the volatile write-back buffer — drain it; flush is the durability
  // barrier.
  if (!image_.WritesRetiredBelow(write_seq_)) {
    image_.AddFlushWaiter(write_seq_, &flush_gate_);
    co_await flush_gate_.Wait();
  }
  VDE_CO_RETURN_IF_ERROR(co_await image_.writeback_->Drain());
  // A flush is also the metadata plane's durability point: pending journal
  // rows commit regardless of pressure.
  if (image_.meta_store_ != nullptr) {
    VDE_CO_RETURN_IF_ERROR(co_await image_.meta_store_->FlushJournal());
  }
  co_return Status::Ok();
}

}  // namespace vde::rbd
