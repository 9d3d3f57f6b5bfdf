#include "rbd/trim_state.h"

#include <algorithm>
#include <cassert>

#include "rbd/image.h"
#include "rbd/meta_store.h"

namespace vde::rbd {

TrimState::Update::~Update() {
  if (owner_ != nullptr) {
    TrimState* owner = std::exchange(owner_, nullptr);
    owner->GetEntry(object_no_).lane.Release();
  }
}

bool TrimState::enabled() const {
  return image_.format_ != nullptr && image_.format_->AuthenticatedTrim();
}

TrimState::Entry& TrimState::GetEntry(uint64_t object_no) {
  auto& slot = entries_[object_no];
  if (!slot) slot = std::make_unique<Entry>();
  return *slot;
}

const core::DiscardBitmap* TrimState::Lookup(uint64_t object_no) const {
  const auto it = entries_.find(object_no);
  if (it == entries_.end() || !it->second->loaded) return nullptr;
  return &it->second->bits;
}

uint64_t TrimState::EpochOf(uint64_t object_no) const {
  const auto it = entries_.find(object_no);
  return it == entries_.end() ? 0 : it->second->epoch;
}

sim::Task<Status> TrimState::Ensure(uint64_t object_no) {
  if (!enabled()) co_return Status::Ok();
  Entry& entry = GetEntry(object_no);
  if (entry.loaded) co_return Status::Ok();
  co_await entry.lane.Acquire();
  sim::SemGuard lane(entry.lane);
  if (entry.loaded) co_return Status::Ok();  // a concurrent caller loaded

  MetaStore* meta = image_.meta_store_.get();
  if (meta != nullptr) {
    // Warm path: the local plane may hold the record from the last clean
    // session; it re-verifies the MAC and the epoch floor before serving.
    auto warm =
        co_await meta->TryWarmBitmap(object_no, &entry.bits, &entry.epoch);
    VDE_CO_RETURN_IF_ERROR(warm.status());
    if (*warm) {
      entry.loaded = true;
      co_return Status::Ok();
    }
  }

  core::EncryptionFormat& fmt = *image_.format_;
  const size_t bpo = image_.blocks_per_object();
  objstore::Transaction txn;
  fmt.MakeBitmapRead(txn);
  stats_.loads++;
  auto io = image_.io();
  auto got = co_await io.OperateRead(image_.ObjectName(object_no),
                                     std::move(txn), objstore::kHeadSnap);
  if (got.status().IsNotFound()) {
    // Fresh object: every block legitimately reads as zeros.
    entry.bits = core::DiscardBitmap::AllSet(bpo);
    if (meta != nullptr) {
      // Resume the generation where the plane last saw this object — a
      // removed object's store record is gone, but its epoch never
      // restarts (a restart would let an old sealed record replay).
      auto floor = co_await meta->Floor(object_no);
      VDE_CO_RETURN_IF_ERROR(floor.status());
      entry.epoch = std::max(floor->sealed, floor->ceiling);
      // Journal the all-set state so the next clean reopen skips even
      // this NotFound probe: a warm start serves EVERY touched object —
      // discarded or fresh — without a store metadata read.
      meta->JournalBitmap(
          object_no,
          image_.format_->SealBitmap(object_no, entry.bits, entry.epoch),
          entry.epoch);
    }
    entry.loaded = true;
    co_return Status::Ok();
  }
  if (!got.ok()) co_return got.status();
  auto raw = fmt.FinishBitmapRead(*got);
  if (!raw.ok()) co_return raw.status();
  if (raw->empty()) {
    // Every write through an AuthenticatedTrim format persists a bitmap,
    // so an existing data object without one had its record wiped — the
    // bitmap flavor of the erase channel. Refuse to guess. (Fresh objects
    // never reach here: the read ops NotFound on an absent object.)
    co_return Status::Corruption(
        "discard bitmap missing for existing object");
  }
  uint64_t record_epoch = 0;
  VDE_CO_RETURN_IF_ERROR(
      fmt.OpenBitmap(object_no, *raw, &entry.bits, &record_epoch));
  entry.epoch = record_epoch;
  if (meta != nullptr) {
    auto floor = co_await meta->Floor(object_no);
    VDE_CO_RETURN_IF_ERROR(floor.status());
    if (record_epoch < floor->sealed) {
      // The store presented a record older than one this client already
      // sealed: a rolled-back object. The MAC alone cannot catch this —
      // the old record was validly sealed — the epoch floor does.
      co_return Status::Corruption("discard bitmap rolled back");
    }
    entry.epoch = std::max(record_epoch, floor->ceiling);
    // Journal the verified record so the next clean reopen serves it off
    // the plane (read-only sessions warm the next open too).
    meta->JournalBitmap(object_no, *raw, record_epoch);
  }
  entry.loaded = true;
  co_return Status::Ok();
}

sim::Task<Result<TrimState::Update>> TrimState::Stage(
    uint64_t object_no, const BlockRuns& clear, const BlockRuns& set,
    objstore::Transaction& txn) {
  Update update;
  if (!enabled()) co_return update;
  Entry& entry = GetEntry(object_no);
  assert(entry.loaded && "Stage requires a prior successful Ensure");

  // Fast path — resolved synchronously, so a no-flip check cannot race a
  // concurrent commit: overwrites of live blocks and trims of already-
  // trimmed ranges append nothing and take no lane.
  auto flips = [&entry, &clear, &set]() {
    for (const auto& [first, count] : clear) {
      if (entry.bits.AnySetRange(first, count)) return true;
    }
    for (const auto& [first, count] : set) {
      if (!entry.bits.AllSetRange(first, count)) return true;
    }
    return false;
  };
  if (!flips()) co_return update;

  co_await entry.lane.Acquire();
  // Re-check under the lane: the bits may have flipped while waiting.
  if (!flips()) {
    entry.lane.Release();
    co_return update;
  }
  update.owner_ = this;
  update.object_no_ = object_no;
  update.pending_ = entry.bits;
  for (const auto& [first, count] : clear) {
    update.pending_.ClearRange(first, count);
  }
  for (const auto& [first, count] : set) {
    update.pending_.SetRange(first, count);
  }
  // One generation per sealed record. entry.epoch only advances at Commit,
  // so an aborted transaction leaves the generation untouched; the lane is
  // held from here until Commit/Abort, so the +1 cannot be claimed twice.
  update.epoch_ = entry.epoch + 1;
  update.sealed_ =
      image_.format_->SealBitmap(object_no, update.pending_, update.epoch_);
  image_.format_->MakeBitmapWrite(object_no, update.sealed_, txn);
  co_return update;
}

void TrimState::Commit(Update&& update) {
  if (!update.active()) return;
  TrimState* owner = std::exchange(update.owner_, nullptr);
  assert(owner == this);
  Entry& entry = owner->GetEntry(update.object_no_);
  entry.bits = std::move(update.pending_);
  entry.epoch = update.epoch_;
  if (image_.meta_store_ != nullptr) {
    // The record just became the store's durable state; mirror it into
    // the plane's journal under the same generation.
    image_.meta_store_->JournalBitmap(update.object_no_,
                                      update.sealed_, update.epoch_);
  }
  stats_.bitmap_updates++;
  entry.lane.Release();
}

void TrimState::Abort(Update&& update) {
  if (!update.active()) return;
  TrimState* owner = std::exchange(update.owner_, nullptr);
  assert(owner == this);
  owner->GetEntry(update.object_no_).lane.Release();
}

void TrimState::OnRemove(uint64_t object_no) {
  if (!enabled()) return;
  Entry& entry = GetEntry(object_no);
  entry.bits = core::DiscardBitmap::AllSet(image_.blocks_per_object());
  entry.loaded = true;
  // A remove is a mutating generation like any other — the epoch must not
  // reset with the store record, or an old sealed record could replay.
  // (With the plane enabled the remove path Ensures first, so entry.epoch
  // is the real generation here, not a fresh zero.)
  entry.epoch++;
  if (image_.meta_store_ != nullptr) {
    image_.meta_store_->JournalBitmap(
        object_no,
        image_.format_->SealBitmap(object_no, entry.bits, entry.epoch),
        entry.epoch);
  }
}

}  // namespace vde::rbd
