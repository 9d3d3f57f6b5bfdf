// Client-side cache of the per-object authenticated discard bitmaps
// (core::DiscardBitmap) for HMAC/GCM formats.
//
// The bitmap says which blocks of an object legitimately read as zeros
// (never written or trimmed); the format seals it with a MAC and stores it
// with the object's metadata geometry. This layer keeps the verified
// bitmaps resident so the datapath can
//
//  - pass them into FinishRead (`zeros`), closing the erase channel: an
//    attacker zeroing a live block's ciphertext+metadata no longer forges
//    a discard;
//  - append a bitmap update op to exactly those transactions that flip
//    bits (first writes, trims, post-trim rewrites) — steady-state
//    overwrites of live blocks carry zero bitmap overhead.
//
// Concurrency: bitmaps are loaded lazily (one OperateRead per object per
// image lifetime; NotFound = fresh object = all bits set) and mutated
// under a per-object update lane, because two requests to DISJOINT block
// ranges of one object are deliberately not serialized by the write-back
// guards yet share the object's bitmap — without the lane the second
// commit would overwrite the first one's bits. Lane holders never wait on
// block guards, so the lane cannot deadlock against the guard table.
//
// Head-only: snapshot reads pass no bitmap (a clone's cleared blocks are
// validated against nothing — the clone carries its own frozen record,
// authenticating historic reads is the persistent-cache follow-on).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/discard_bitmap.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "util/status.h"

namespace vde::objstore {
struct Transaction;
}

namespace vde::rbd {

class Image;

// Blocks of one object as (first_block, count) runs.
using BlockRuns = std::vector<std::pair<uint64_t, size_t>>;

struct TrimStateStats {
  uint64_t loads = 0;           // bitmap fetches issued (once per object)
  uint64_t bitmap_updates = 0;  // transactions that carried a bitmap write
};

class TrimState {
 public:
  explicit TrimState(Image& image) : image_(image) {}
  TrimState(const TrimState&) = delete;
  TrimState& operator=(const TrimState&) = delete;

  // Whether the image's format authenticates trims. Every other method is
  // a cheap no-op when this is false.
  bool enabled() const;

  // Loads `object_no`'s bitmap if not yet resident (concurrent callers
  // serialize on the object's lane; the load happens once). Call before
  // planning head IO on an AuthenticatedTrim format.
  sim::Task<Status> Ensure(uint64_t object_no);

  // The resident verified bitmap, or nullptr (disabled / not loaded).
  // The pointer stays valid for the image's lifetime; bits for blocks the
  // caller holds guards over cannot change underneath it.
  const core::DiscardBitmap* Lookup(uint64_t object_no) const;

  // The object's current write-generation epoch (0 when never loaded).
  // Bumped on every committed bitmap mutation and sealed into the record's
  // MAC; the metadata plane stamps persisted IV rows with it.
  uint64_t EpochOf(uint64_t object_no) const;

  // A staged bitmap mutation tied to one transaction. Inactive when the
  // mutation flips no bits (nothing was appended, nothing to commit).
  class Update {
   public:
    Update() = default;
    Update(Update&& o) noexcept
        : owner_(std::exchange(o.owner_, nullptr)),
          object_no_(o.object_no_),
          pending_(std::move(o.pending_)),
          epoch_(o.epoch_),
          sealed_(std::move(o.sealed_)) {}
    Update(const Update&) = delete;
    Update& operator=(const Update&) = delete;
    Update& operator=(Update&&) = delete;
    ~Update();  // abandons (aborts) if still active

    bool active() const { return owner_ != nullptr; }

   private:
    friend class TrimState;
    TrimState* owner_ = nullptr;
    uint64_t object_no_ = 0;
    core::DiscardBitmap pending_;
    uint64_t epoch_ = 0;  // generation the staged record was sealed under
    Bytes sealed_;        // the sealed record, kept for the meta journal
  };

  // Stages clearing the bits in `clear` (blocks being written) and setting
  // the bits in `set` (blocks being trimmed); ranges are (first_block,
  // count) pairs. If any bit flips, acquires the object's update lane,
  // appends the sealed bitmap write op to `txn` (riding the caller's
  // atomic transaction), and returns an ACTIVE update: the caller must
  // Commit() after the transaction applied or Abort() if it failed.
  // Requires Ensure() to have succeeded for this object.
  sim::Task<Result<Update>> Stage(uint64_t object_no, const BlockRuns& clear,
                                  const BlockRuns& set,
                                  objstore::Transaction& txn);

  void Commit(Update&& update);
  void Abort(Update&& update);

  // Full-object remove applied: the store object (and its persisted
  // bitmap) is gone, so every block legitimately reads zeros again.
  void OnRemove(uint64_t object_no);

  const TrimStateStats& stats() const { return stats_; }

 private:
  struct Entry {
    core::DiscardBitmap bits;
    uint64_t epoch = 0;  // write generation of the current sealed record
    bool loaded = false;
    // Serializes the load and all bit-flipping commits for one object.
    sim::Semaphore lane{1};
  };

  // Entries are created on first touch and never erased (references are
  // held across suspension points).
  Entry& GetEntry(uint64_t object_no);

  Image& image_;
  std::unordered_map<uint64_t, std::unique_ptr<Entry>> entries_;
  TrimStateStats stats_;
};

}  // namespace vde::rbd
