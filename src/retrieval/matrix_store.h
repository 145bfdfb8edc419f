/// \file matrix_store.h
/// \brief Paged, checksummed persistence for the columnar FeatureMatrix.
///
/// The engine's FeatureMatrix used to be rebuilt from the KEY_FRAMES
/// table on every open: an O(corpus) scan that parses every feature
/// string back into doubles. MatrixStore persists the matrix (exact
/// doubles plus the 8-bit quantized shadow codes) as its own page file
/// — `matrix.vrm` in the database directory, reusing the Pager's 8 KiB
/// checksummed slots — so a warm open streams binary pages instead of
/// re-extracting rows from the store.
///
/// The file is a *cache*, not a second source of truth. The KEY_FRAMES
/// table remains authoritative; the matrix file carries a generation
/// handshake (the store's key-frame count and next-id watermark at
/// persist time) and every load validates it against the live store.
/// Any mismatch — a crash between store commit and matrix append, a
/// torn write, a checksum failure, a store modified behind the engine's
/// back — makes Load() report a cold cache and the engine falls back to
/// the legacy store-scan rebuild, then rewrites the file. Durability
/// is two-phase: data pages are written and synced first, the header
/// (with the new generation) only after, so a partial append always
/// reads as stale rather than as silent corruption.
///
/// Byte-level layout of the header, data and tombstone pages is
/// specified in docs/FORMAT.md ("Matrix cache file").
///
/// Thread-safety: externally synchronized — the engine calls every
/// method under its writer mutex, which serializes commits and removes
/// (Open and Load run in the single-threaded engine open). Append and
/// Remove read the FeatureMatrix under a shared hold of the query lock.

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "retrieval/feature_matrix.h"
#include "storage/pager.h"
#include "util/status.h"

namespace vr {

/// \brief Owns the persisted FeatureMatrix cache file.
class MatrixStore {
 public:
  /// The store state a persisted matrix mirrors. Load() only accepts a
  /// file whose recorded generation equals the live store's.
  struct Generation {
    uint64_t key_frame_count = 0;
    int64_t next_key_frame_id = 0;
    bool operator==(const Generation&) const = default;
  };

  /// Point-in-time counters (tests and the scale bench read these).
  struct Stats {
    uint64_t file_rows = 0;    ///< records in the data chain (incl. dead)
    uint64_t tombstones = 0;   ///< records marked dead
    uint64_t pages = 0;        ///< total pages of the file
    bool warm_loaded = false;  ///< last Load() populated the matrix
    uint64_t rewrites = 0;     ///< full-file rewrites since open
    uint64_t appends = 0;      ///< incremental appends since open
  };

  /// Opens (or creates) `<dir>/matrix.vrm`. An unreadable file (corrupt
  /// meta page) is deleted and recreated empty — the cache contract
  /// makes that safe.
  static Result<std::unique_ptr<MatrixStore>> Open(const std::string& dir,
                                                   Env* env);

  /// Attempts a warm load into \p matrix: validates magic, format
  /// version and generation, installs the persisted quantization
  /// ranges, then streams every non-tombstoned row. Returns true when
  /// the matrix was populated; false when the file is empty, stale or
  /// fails verification (the caller rebuilds from the store and calls
  /// RewriteFull). \p matrix must be empty on entry.
  Result<bool> Load(const Generation& expected, FeatureMatrix* matrix);

  /// Rewrites the whole file from \p matrix under generation \p gen:
  /// the initial persist after a rebuild, a re-quantization, or a
  /// tombstone compaction. Frees the old chains, writes fresh data and
  /// tombstone chains, syncs, then publishes the header.
  Status RewriteFull(const FeatureMatrix& matrix, const Generation& gen);

  /// Incrementally appends matrix rows [\p first_row, matrix.rows())
  /// to the data chain and bumps the generation. Falls back to
  /// RewriteFull when a column's quantization range changed (the
  /// persisted codes of old rows would be stale otherwise).
  Status Append(const FeatureMatrix& matrix, size_t first_row,
                const Generation& gen);

  /// Marks \p ids tombstoned and bumps the generation. When more than
  /// half the file rows are dead, compacts by rewriting from \p matrix
  /// (which the engine has already SwapRemove'd). Unknown ids are
  /// ignored (they were never persisted — e.g. a remove racing a failed
  /// append that already went through a rewrite).
  Status Remove(const std::vector<int64_t>& ids, const FeatureMatrix& matrix,
                const Generation& gen);

  Stats stats() const;
  const std::string& path() const { return pager_->path(); }

  /// File name inside the database directory.
  static constexpr const char* kFileName = "matrix.vrm";
  /// Header magic ("VRMX", little-endian).
  static constexpr uint32_t kMagic = 0x584D5256;
  /// Matrix cache format version (independent of the pager format).
  /// 3: the Gabor vectors are v2's (FEAT_gabor2), so a v2 cache built
  /// from v1 Gabor rows is rebuilt, never read. 4: seven kinds (the
  /// edge histogram and colour signature are gone), so the quantization
  /// table and each data record shrink.
  static constexpr uint32_t kFormatVersion = 4;

 private:
  MatrixStore() = default;

  /// Per-kind quantization range as persisted in the header.
  struct QuantRange {
    double qmin = 0.0;
    double qmax = 0.0;
    uint8_t quantized = 0;
  };

  class StreamWriter;
  class StreamReader;

  /// Load() body; Status errors and validation mismatches both resolve
  /// to a cold cache in the wrapper.
  Result<bool> LoadInner(const Generation& expected, FeatureMatrix* matrix);

  /// Serializes matrix row \p r into \p out (the variable-length row
  /// record of docs/FORMAT.md).
  static void EncodeRow(const FeatureMatrix& matrix, size_t r,
                        std::vector<uint8_t>* out);

  /// Walks a page chain from \p head, returning every page id.
  Result<std::vector<uint32_t>> ChainPages(uint32_t head);
  /// Returns every page of a chain to the pager free list.
  Status FreeChain(uint32_t head);
  /// Writes the tombstone byte array as a fresh chain; returns its head
  /// and records the tail cursor for future appends.
  Status WriteTombstoneChain();
  /// Publishes the header page: generation, row counts, chain anchors
  /// and quantization table. The only place the generation becomes
  /// visible, so it runs strictly after the data sync.
  Status StoreHeader(const Generation& gen);

  std::unique_ptr<Pager> pager_;
  uint32_t header_page_ = kInvalidPageId;

  /// Mirror of the persisted header (kept in sync by Load/StoreHeader).
  Generation generation_;
  uint64_t file_rows_ = 0;
  uint64_t tombstone_count_ = 0;
  uint32_t data_head_ = kInvalidPageId;
  uint32_t data_tail_ = kInvalidPageId;
  uint32_t data_tail_used_ = 0;
  uint32_t tomb_head_ = kInvalidPageId;
  uint32_t tomb_tail_ = kInvalidPageId;
  uint32_t tomb_tail_used_ = 0;
  std::array<QuantRange, kNumFeatureKinds> quant_{};

  /// One byte per file row: 1 = dead. Parallel to the data chain.
  std::vector<uint8_t> tombstones_;
  /// Tombstone chain pages in order, for O(1) random-access flips.
  std::vector<uint32_t> tomb_pages_;
  /// i_id -> file row, for tombstoning by id.
  std::unordered_map<int64_t, uint64_t> file_row_of_id_;

  bool warm_loaded_ = false;
  uint64_t rewrites_ = 0;
  uint64_t appends_ = 0;
};

}  // namespace vr
