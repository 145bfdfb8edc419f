/// \file pager.h
/// \brief File-backed page store with an LRU buffer pool.
///
/// One Pager manages one storage file (heap, B+tree or blob file).
/// Page 0 is the file's meta page: magic, format version, page count,
/// free-list head, and two user fields (root page and a monotonic
/// counter) that the structures above store their anchors in.
///
/// There is one on-disk format, v2: every page is followed by a 64-bit
/// FNV-1a checksum, so each on-disk slot is kPageSize + 8 bytes. The
/// checksum covers the kPageSize in-memory page bytes and is verified
/// on every read, the meta page included, turning silent media
/// corruption into a Corruption status at Open or Fetch time. A meta
/// page whose version field is anything but kPagerFormatCurrent is
/// Corruption too; no other format is read or written.

#pragma once

#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "storage/page.h"
#include "util/env.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace vr {

/// Cumulative buffer-pool statistics of one Pager (see Pager::GetStats).
struct PagerStats {
  uint64_t fetches = 0;            ///< Fetch calls (hits + misses)
  uint64_t hits = 0;               ///< served from the buffer pool
  uint64_t misses = 0;             ///< required a disk read
  uint64_t evictions = 0;          ///< pages written out of / dropped from the pool
  uint64_t checksum_failures = 0;  ///< page reads that failed verification

  PagerStats& operator+=(const PagerStats& other) {
    fetches += other.fetches;
    hits += other.hits;
    misses += other.misses;
    evictions += other.evictions;
    checksum_failures += other.checksum_failures;
    return *this;
  }
};

/// The page-file format version stored in every meta page (docs/FORMAT.md
/// §1). Any other value fails Pager::Open with Corruption.
constexpr uint32_t kPagerFormatCurrent = 2;

/// \brief Owns a page file: allocation, caching, write-back.
///
/// Thread-safety: the buffer pool (Fetch, MarkDirty, Allocate, Free,
/// Flush, Sync, VerifyAllPages, GetStats) and the meta accessors
/// (page_count, user_root, user_counter) are internally serialized by
/// one mutex; the lock→state relationships are annotated (GUARDED_BY /
/// REQUIRES) and verified by Clang's thread-safety analysis. The
/// *contents* of fetched pages are NOT synchronized — callers that
/// mutate page bytes must hold an exclusive lock above the pager (in
/// this codebase the RetrievalEngine's writer mutex; see DESIGN.md
/// "Service layer & threading model").
class Pager {
 public:
  ~Pager();
  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  /// Opens (or, with \p create_if_missing, creates) a page file. All
  /// I/O goes through \p env (Env::Default() when null).
  static Result<std::unique_ptr<Pager>> Open(const std::string& path,
                                             bool create_if_missing,
                                             size_t cache_pages = 256,
                                             Env* env = nullptr);

  /// Fetches a page through the buffer pool, verifying its checksum on
  /// the way in. The returned pointer stays valid while the
  /// shared_ptr is held, even across eviction.
  Result<std::shared_ptr<Page>> Fetch(uint32_t page_id) EXCLUDES(mutex_);

  /// Marks a cached page dirty so Flush() writes it back. Returns
  /// NotFound (and logs) for ids that are not resident — a caller bug
  /// that previously went unnoticed and dropped the write.
  Status MarkDirty(uint32_t page_id) EXCLUDES(mutex_);

  /// Allocates a page (reusing the free list when possible); the page is
  /// fetched, zeroed, typed and marked dirty.
  Result<uint32_t> Allocate(PageType type) EXCLUDES(mutex_);

  /// Returns a page to the free list.
  Status Free(uint32_t page_id) EXCLUDES(mutex_);

  /// Writes all dirty pages and the meta page to the file.
  Status Flush() EXCLUDES(mutex_);

  /// Flush + make the file durable.
  Status Sync() EXCLUDES(mutex_);

  /// Re-reads every page (including the meta page) from the file and
  /// verifies its checksum; first failure wins. Reads the on-disk
  /// state, so call it on a freshly opened or flushed pager.
  Status VerifyAllPages() EXCLUDES(mutex_);

  uint32_t page_count() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return page_count_;
  }
  const std::string& path() const { return path_; }

  /// \name User anchors persisted in the meta page.
  /// @{
  uint32_t user_root() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return user_root_;
  }
  void set_user_root(uint32_t root) EXCLUDES(mutex_);
  uint64_t user_counter() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return user_counter_;
  }
  void set_user_counter(uint64_t v) EXCLUDES(mutex_);
  /// @}

  /// Snapshot of the cumulative buffer-pool statistics. Thread-safe.
  PagerStats GetStats() const EXCLUDES(mutex_);

  static constexpr size_t kChecksumSize = 8;
  /// On-disk bytes per page: the page image then its checksum.
  static constexpr size_t kSlotSize = kPageSize + kChecksumSize;

 private:
  Pager() = default;

  struct CacheEntry {
    std::shared_ptr<Page> page;
    bool dirty = false;
    std::list<uint32_t>::iterator lru_it;
  };

  /// \name Unlocked implementations; callers hold mutex_.
  /// @{
  Result<std::shared_ptr<Page>> FetchLocked(uint32_t page_id)
      REQUIRES(mutex_);
  Status MarkDirtyLocked(uint32_t page_id) REQUIRES(mutex_);
  Status FlushLocked() REQUIRES(mutex_);
  Status ReadPageFromDisk(uint32_t page_id, Page* out) REQUIRES(mutex_);
  Status WritePageToDisk(uint32_t page_id, const Page& page)
      REQUIRES(mutex_);
  Status LoadMeta() REQUIRES(mutex_);
  Status StoreMeta() REQUIRES(mutex_);
  void Touch(uint32_t page_id, CacheEntry* entry) REQUIRES(mutex_);
  Status EvictIfNeeded() REQUIRES(mutex_);
  /// @}

  /// Serializes the buffer pool, the LRU list, the meta fields and the
  /// counters. path_ and cache_capacity_ are set once in Open (before
  /// the pager is shared) and immutable afterwards, so they stay
  /// unguarded.
  mutable Mutex mutex_{LockLevel::kPager, "pager"};
  std::string path_;
  std::unique_ptr<EnvFile> file_ GUARDED_BY(mutex_);
  uint32_t page_count_ GUARDED_BY(mutex_) = 1;  // meta page
  uint32_t free_head_ GUARDED_BY(mutex_) = kInvalidPageId;
  uint32_t user_root_ GUARDED_BY(mutex_) = kInvalidPageId;
  uint64_t user_counter_ GUARDED_BY(mutex_) = 0;
  bool meta_dirty_ GUARDED_BY(mutex_) = false;
  size_t cache_capacity_ = 256;
  std::unordered_map<uint32_t, CacheEntry> cache_ GUARDED_BY(mutex_);
  std::list<uint32_t> lru_ GUARDED_BY(mutex_);  // front = most recent
  PagerStats stats_ GUARDED_BY(mutex_);
};

}  // namespace vr
