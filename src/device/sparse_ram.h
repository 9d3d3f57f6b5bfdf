// Sparse page store: the data plane behind the simulated NVMe device.
//
// Pages are allocated on first write, so a "1.8 TB" device costs memory only
// for what benches actually touch. Reads of holes return zeros, as a trimmed
// flash device would.
//
// Pages are refcounted and copy-on-write, so several stores can hold one
// copy of the same bytes: the primary and the replicas of a transaction
// adopt the same pages (Adopt), and a snapshot clone adopts its head's
// (Share + Adopt). A page only one holder references is written in place.
// A partial write, or a partial Punch that changes bytes, copies a shared
// page first, and a full-page write replaces it with a fresh page that is
// never zero-filled, so every holder (a tampered replica too) stays
// independently corruptible.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "util/bytes.h"

namespace vde::dev {

inline constexpr size_t kPageSize = 4096;

struct Page {
  uint8_t data[kPageSize];
};

// A shared, read-only reference to one page. Holders never write through
// it; SparseRam writes a page in place only while it holds the sole ref.
using PageRef = std::shared_ptr<const Page>;

// Copies the whole pages of `data` (its first data.size() / kPageSize pages)
// into fresh pages; the partial tail, if any, is left to the caller.
std::vector<PageRef> MakePages(ByteSpan data);

class SparseRam {
 public:
  explicit SparseRam(uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

  uint64_t capacity() const { return capacity_; }
  size_t allocated_pages() const { return pages_.size(); }

  // Arbitrary byte-granularity access (alignment is the device's concern).
  void ReadAt(uint64_t offset, MutByteSpan out) const;
  void WriteAt(uint64_t offset, ByteSpan data);

  // TRIM: whole pages in the range are released (subsequent reads return
  // zeros), partial edge pages are zero-filled. A partial range that
  // already reads zero is left alone, so a shared page is not copied.
  void Punch(uint64_t offset, uint64_t length);

  // Installs `pages` from page-aligned `offset`, one per page, sharing them
  // with every other holder; a null ref leaves a hole.
  void Adopt(uint64_t offset, std::span<const PageRef> pages);
  // The refs of the `count` pages from page-aligned `offset` (null for
  // holes), for another range or device to Adopt.
  std::vector<PageRef> Share(uint64_t offset, size_t count) const;

 private:
  // The page in `slot`, made writable: copied first when shared, created
  // zero-filled when absent (unless `overwrite` says every byte is about to
  // be written).
  Page& Writable(PageRef& slot, bool overwrite);

  uint64_t capacity_;
  std::unordered_map<uint64_t, PageRef> pages_;
};

}  // namespace vde::dev
