#include "device/sparse_ram.h"

#include <cassert>
#include <cstring>

namespace vde::dev {

namespace {
constexpr uint8_t kZeros[kPageSize] = {};
}  // namespace

std::vector<PageRef> MakePages(ByteSpan data) {
  std::vector<PageRef> pages(data.size() / kPageSize);
  for (size_t i = 0; i < pages.size(); ++i) {
    auto page = std::make_shared_for_overwrite<Page>();
    std::memcpy(page->data, data.data() + i * kPageSize, kPageSize);
    pages[i] = std::move(page);
  }
  return pages;
}

Page& SparseRam::Writable(PageRef& slot, bool overwrite) {
  if (slot && slot.use_count() == 1) {
    // Sole holder: write in place. Every page is created non-const (here or
    // in MakePages), so writing through the read-only ref is defined.
    return const_cast<Page&>(*slot);
  }
  auto fresh = std::make_shared_for_overwrite<Page>();
  if (!overwrite) {
    if (slot) {
      std::memcpy(fresh->data, slot->data, kPageSize);
    } else {
      std::memset(fresh->data, 0, kPageSize);
    }
  }
  Page& page = *fresh;
  slot = std::move(fresh);
  return page;
}

void SparseRam::ReadAt(uint64_t offset, MutByteSpan out) const {
  assert(offset + out.size() <= capacity_);
  size_t done = 0;
  while (done < out.size()) {
    const uint64_t pos = offset + done;
    const uint64_t page_no = pos / kPageSize;
    const size_t in_page = pos % kPageSize;
    const size_t take = std::min(out.size() - done, kPageSize - in_page);
    const auto it = pages_.find(page_no);
    if (it == pages_.end()) {
      std::memset(out.data() + done, 0, take);
    } else {
      std::memcpy(out.data() + done, it->second->data + in_page, take);
    }
    done += take;
  }
}

void SparseRam::WriteAt(uint64_t offset, ByteSpan data) {
  assert(offset + data.size() <= capacity_);
  size_t done = 0;
  while (done < data.size()) {
    const uint64_t pos = offset + done;
    const uint64_t page_no = pos / kPageSize;
    const size_t in_page = pos % kPageSize;
    const size_t take = std::min(data.size() - done, kPageSize - in_page);
    Page& page = Writable(pages_[page_no], take == kPageSize);
    std::memcpy(page.data + in_page, data.data() + done, take);
    done += take;
  }
}

void SparseRam::Punch(uint64_t offset, uint64_t length) {
  assert(offset + length <= capacity_);
  uint64_t done = 0;
  while (done < length) {
    const uint64_t pos = offset + done;
    const uint64_t page_no = pos / kPageSize;
    const size_t in_page = pos % kPageSize;
    const size_t take = std::min<size_t>(length - done, kPageSize - in_page);
    if (take == kPageSize) {
      pages_.erase(page_no);
    } else {
      const auto it = pages_.find(page_no);
      if (it != pages_.end() &&
          std::memcmp(it->second->data + in_page, kZeros, take) != 0) {
        std::memset(Writable(it->second, false).data + in_page, 0, take);
      }
    }
    done += take;
  }
}

void SparseRam::Adopt(uint64_t offset, std::span<const PageRef> pages) {
  assert(offset % kPageSize == 0);
  assert(offset + pages.size() * kPageSize <= capacity_);
  const uint64_t first = offset / kPageSize;
  for (size_t i = 0; i < pages.size(); ++i) {
    if (pages[i]) {
      pages_[first + i] = pages[i];
    } else {
      pages_.erase(first + i);
    }
  }
}

std::vector<PageRef> SparseRam::Share(uint64_t offset, size_t count) const {
  assert(offset % kPageSize == 0);
  assert(offset + count * kPageSize <= capacity_);
  std::vector<PageRef> out(count);
  const uint64_t first = offset / kPageSize;
  for (size_t i = 0; i < count; ++i) {
    const auto it = pages_.find(first + i);
    if (it != pages_.end()) out[i] = it->second;
  }
  return out;
}

}  // namespace vde::dev
