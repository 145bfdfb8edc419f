#include "storage/pager.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/hash.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace vr {

namespace {
constexpr uint32_t kMetaMagic = 0x56504746;  // "VPGF"
// Meta-page offset of the format version.
constexpr size_t kVersionOffset = 32;
}  // namespace

Pager::~Pager() {
  MutexLock lock(mutex_);
  if (file_ != nullptr) {
    Status s = FlushLocked();
    if (!s.ok()) {
      VR_LOG(Error) << "final flush of " << path_ << " failed: "
                    << s.ToString();
    }
  }
}

Result<std::unique_ptr<Pager>> Pager::Open(const std::string& path,
                                           bool create_if_missing,
                                           size_t cache_pages, Env* env) {
  if (env == nullptr) env = Env::Default();
  auto pager = std::unique_ptr<Pager>(new Pager());
  pager->path_ = path;
  pager->cache_capacity_ = std::max<size_t>(8, cache_pages);

  const bool exists = env->FileExists(path);
  if (!exists && !create_if_missing) {
    return Status::IOError("cannot open page file: " + path);
  }
  // Nobody else can reach this pager yet; the lock is taken purely to
  // satisfy the REQUIRES contracts of the meta/file helpers.
  MutexLock lock(pager->mutex_);
  VR_ASSIGN_OR_RETURN(
      pager->file_,
      env->Open(path, exists ? Env::OpenMode::kMustExist
                             : Env::OpenMode::kCreateIfMissing));
  if (exists) {
    VR_RETURN_NOT_OK(pager->LoadMeta());
  } else {
    pager->meta_dirty_ = true;
    VR_RETURN_NOT_OK(pager->StoreMeta());
    // A fresh file must be recoverable immediately: make the meta page
    // durable before anyone can journal against it.
    VR_RETURN_NOT_OK(pager->file_->Sync());
  }
  return pager;
}

Status Pager::LoadMeta() {
  Page meta;
  VR_RETURN_NOT_OK(ReadPageFromDisk(0, &meta));
  if (meta.ReadAt<uint32_t>(8) != kMetaMagic) {
    return Status::Corruption("bad page-file magic: " + path_);
  }
  const uint32_t version = meta.ReadAt<uint32_t>(kVersionOffset);
  if (version != kPagerFormatCurrent) {
    return Status::Corruption(StringPrintf(
        "unsupported page-file format v%u in %s", version, path_.c_str()));
  }
  page_count_ = meta.ReadAt<uint32_t>(12);
  free_head_ = meta.ReadAt<uint32_t>(16);
  user_root_ = meta.ReadAt<uint32_t>(20);
  user_counter_ = meta.ReadAt<uint64_t>(24);
  if (page_count_ == 0) return Status::Corruption("zero page count");
  return Status::OK();
}

Status Pager::StoreMeta() {
  Page meta;
  meta.set_type(PageType::kMeta);
  meta.WriteAt<uint32_t>(8, kMetaMagic);
  meta.WriteAt<uint32_t>(12, page_count_);
  meta.WriteAt<uint32_t>(16, free_head_);
  meta.WriteAt<uint32_t>(20, user_root_);
  meta.WriteAt<uint64_t>(24, user_counter_);
  meta.WriteAt<uint32_t>(kVersionOffset, kPagerFormatCurrent);
  VR_RETURN_NOT_OK(WritePageToDisk(0, meta));
  meta_dirty_ = false;
  return Status::OK();
}

Status Pager::ReadPageFromDisk(uint32_t page_id, Page* out) {
  std::vector<uint8_t> buf(kSlotSize);
  VR_ASSIGN_OR_RETURN(size_t got,
                      file_->ReadAt(static_cast<uint64_t>(page_id) * kSlotSize,
                                    buf.data(), kSlotSize));
  if (got != kSlotSize) {
    return Status::Corruption(StringPrintf(
        "short page read (page %u) from %s", page_id, path_.c_str()));
  }
  uint64_t stored = 0;
  std::memcpy(&stored, buf.data() + kPageSize, kChecksumSize);
  if (stored != Fnv1a64(buf.data(), kPageSize)) {
    ++stats_.checksum_failures;
    return Status::Corruption(StringPrintf(
        "page checksum mismatch (page %u) in %s", page_id, path_.c_str()));
  }
  std::memcpy(out->data(), buf.data(), kPageSize);
  return Status::OK();
}

Status Pager::WritePageToDisk(uint32_t page_id, const Page& page) {
  std::vector<uint8_t> buf(kSlotSize);
  std::memcpy(buf.data(), page.data(), kPageSize);
  const uint64_t checksum = Fnv1a64(page.data(), kPageSize);
  std::memcpy(buf.data() + kPageSize, &checksum, kChecksumSize);
  return file_->WriteAt(static_cast<uint64_t>(page_id) * kSlotSize,
                        buf.data(), kSlotSize);
}

Status Pager::VerifyAllPages() {
  MutexLock lock(mutex_);
  Page scratch;
  for (uint32_t page_id = 0; page_id < page_count_; ++page_id) {
    VR_RETURN_NOT_OK(ReadPageFromDisk(page_id, &scratch));
  }
  return Status::OK();
}

PagerStats Pager::GetStats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void Pager::Touch(uint32_t page_id, CacheEntry* entry) {
  lru_.erase(entry->lru_it);
  lru_.push_front(page_id);
  entry->lru_it = lru_.begin();
}

Status Pager::EvictIfNeeded() {
  while (cache_.size() > cache_capacity_) {
    // Evict from the LRU tail, skipping pages still referenced outside.
    bool evicted = false;
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      auto centry = cache_.find(*it);
      if (centry == cache_.end()) continue;
      if (centry->second.page.use_count() > 1) continue;  // pinned
      if (centry->second.dirty) {
        VR_RETURN_NOT_OK(WritePageToDisk(*it, *centry->second.page));
      }
      lru_.erase(std::next(it).base());
      cache_.erase(centry);
      ++stats_.evictions;
      evicted = true;
      break;
    }
    if (!evicted) break;  // everything pinned; let the cache grow
  }
  return Status::OK();
}

Result<std::shared_ptr<Page>> Pager::Fetch(uint32_t page_id) {
  MutexLock lock(mutex_);
  return FetchLocked(page_id);
}

Result<std::shared_ptr<Page>> Pager::FetchLocked(uint32_t page_id) {
  if (page_id >= page_count_) {
    return Status::InvalidArgument(
        StringPrintf("page %u beyond end (%u pages)", page_id, page_count_));
  }
  ++stats_.fetches;
  auto it = cache_.find(page_id);
  if (it != cache_.end()) {
    ++stats_.hits;
    Touch(page_id, &it->second);
    return it->second.page;
  }
  ++stats_.misses;
  auto page = std::make_shared<Page>();
  VR_RETURN_NOT_OK(ReadPageFromDisk(page_id, page.get()));
  lru_.push_front(page_id);
  CacheEntry entry;
  entry.page = page;
  entry.lru_it = lru_.begin();
  cache_.emplace(page_id, std::move(entry));
  VR_RETURN_NOT_OK(EvictIfNeeded());
  return page;
}

Status Pager::MarkDirty(uint32_t page_id) {
  MutexLock lock(mutex_);
  return MarkDirtyLocked(page_id);
}

Status Pager::MarkDirtyLocked(uint32_t page_id) {
  auto it = cache_.find(page_id);
  if (it == cache_.end()) {
    VR_LOG(Warn) << "MarkDirty on non-resident page " << page_id << " of "
                 << path_ << "; write would be lost";
    return Status::NotFound(StringPrintf(
        "page %u not resident in %s", page_id, path_.c_str()));
  }
  it->second.dirty = true;
  return Status::OK();
}

Result<uint32_t> Pager::Allocate(PageType type) {
  MutexLock lock(mutex_);
  uint32_t page_id;
  if (free_head_ != kInvalidPageId) {
    page_id = free_head_;
    VR_ASSIGN_OR_RETURN(std::shared_ptr<Page> page, FetchLocked(page_id));
    free_head_ = page->next_page();
    std::memset(page->data(), 0, kPageSize);
    page->set_type(type);
    VR_RETURN_NOT_OK(MarkDirtyLocked(page_id));
  } else {
    // A fresh page is born dirty in the cache and reaches the file once,
    // at eviction or flush (see the class comment for why no durable
    // meta page can count it before then).
    page_id = page_count_;
    ++page_count_;
    auto page = std::make_shared<Page>();
    page->set_type(type);
    lru_.push_front(page_id);
    CacheEntry entry;
    entry.page = std::move(page);
    entry.dirty = true;
    entry.lru_it = lru_.begin();
    cache_.emplace(page_id, std::move(entry));
    VR_RETURN_NOT_OK(EvictIfNeeded());
  }
  meta_dirty_ = true;
  return page_id;
}

Status Pager::Free(uint32_t page_id) {
  MutexLock lock(mutex_);
  if (page_id == 0 || page_id >= page_count_) {
    return Status::InvalidArgument("cannot free page " +
                                   std::to_string(page_id));
  }
  VR_ASSIGN_OR_RETURN(std::shared_ptr<Page> page, FetchLocked(page_id));
  std::memset(page->data(), 0, kPageSize);
  page->set_type(PageType::kFree);
  page->set_next_page(free_head_);
  free_head_ = page_id;
  VR_RETURN_NOT_OK(MarkDirtyLocked(page_id));
  meta_dirty_ = true;
  return Status::OK();
}

void Pager::set_user_root(uint32_t root) {
  MutexLock lock(mutex_);
  user_root_ = root;
  meta_dirty_ = true;
}

void Pager::set_user_counter(uint64_t v) {
  MutexLock lock(mutex_);
  user_counter_ = v;
  meta_dirty_ = true;
}

Status Pager::Flush() {
  MutexLock lock(mutex_);
  return FlushLocked();
}

Status Pager::FlushLocked() {
  for (auto& [page_id, entry] : cache_) {
    if (entry.dirty) {
      VR_RETURN_NOT_OK(WritePageToDisk(page_id, *entry.page));
      entry.dirty = false;
    }
  }
  if (meta_dirty_) {
    VR_RETURN_NOT_OK(StoreMeta());
  }
  return file_->Flush();
}

Status Pager::Sync() {
  MutexLock lock(mutex_);
  VR_RETURN_NOT_OK(FlushLocked());
  return file_->Sync();
}

}  // namespace vr
