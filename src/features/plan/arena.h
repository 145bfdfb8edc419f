/// \file arena.h
/// \brief Bump-allocated scratch arena and the typed span view over it.
///
/// Extractor temporaries (co-occurrence matrices, quantized rasters,
/// labeling buffers) come from the arena of the PlanContext the
/// extraction runs on instead of a fresh heap vector per frame:
/// AllocSpan() bumps a cursor, Reset() rewinds it without freeing, so
/// once the first frame has sized the arena a context reused across
/// frames (an ExtractionPlan's, a KeyFrameExtractor call's) performs
/// zero heap allocations in the steady state (the zero-copy span +
/// reusable memory-buffer idiom of VideoDoctor's span.hpp /
/// memory_buffer.hpp). A one-off FeatureExtractor::Extract pays for a
/// fresh arena per call.
///
/// Growth never moves live allocations: when the current chunk is full
/// a new chunk is appended, and Reset() — when no span is live —
/// consolidates everything into one chunk sized to the high-water mark.
///
/// Thread-safety: none. An Arena belongs to exactly one PlanContext
/// and is used by one extraction at a time; the engine's plan pool
/// guarantees that for its plans.

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

namespace vr {

/// \brief Non-owning typed view over contiguous memory.
template <typename T>
struct Span {
  T* ptr = nullptr;
  size_t count = 0;

  T* data() const { return ptr; }
  size_t size() const { return count; }
  bool empty() const { return count == 0; }
  T& operator[](size_t i) const { return ptr[i]; }
  T* begin() const { return ptr; }
  T* end() const { return ptr + count; }
};

/// \brief Growable bump allocator for per-frame scratch.
class Arena {
 public:
  explicit Arena(size_t initial_bytes = 4096) {
    chunks_.emplace_back();
    chunks_.back().resize(initial_bytes);
  }

  /// Rewinds the cursor; existing spans become invalid, capacity (the
  /// high-water mark) stays. If the last frame overflowed into extra
  /// chunks, they are merged into one so subsequent frames bump through
  /// a single buffer.
  void Reset() {
    if (chunks_.size() > 1) {
      const size_t total = capacity();
      chunks_.clear();
      chunks_.emplace_back();
      chunks_.back().resize(total);
    }
    used_ = 0;
  }

  /// Allocates \p count values of T, zero-filled, aligned to
  /// alignof(T). Never moves earlier allocations. T must be trivially
  /// copyable (no constructors run).
  template <typename T>
  Span<T> AllocSpan(size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    const size_t bytes = count * sizeof(T);
    uint8_t* base = Allocate(bytes, alignof(T));
    std::memset(base, 0, bytes);
    return Span<T>{reinterpret_cast<T*>(base), count};
  }

  /// Total bytes across chunks — the high-water mark across frames.
  size_t capacity() const {
    size_t total = 0;
    for (const auto& c : chunks_) total += c.size();
    return total;
  }

  /// Chunk count; 1 in steady state (no growth since the last Reset
  /// consolidation).
  size_t chunks() const { return chunks_.size(); }

 private:
  uint8_t* Allocate(size_t bytes, size_t align) {
    std::vector<uint8_t>& chunk = chunks_.back();
    const size_t base = reinterpret_cast<size_t>(chunk.data());
    size_t offset = ((base + used_ + align - 1) & ~(align - 1)) - base;
    if (offset + bytes > chunk.size()) {
      // Geometric growth in a fresh chunk; live spans stay put.
      chunks_.emplace_back();
      chunks_.back().resize(std::max(bytes + align, capacity()));
      used_ = 0;
      return Allocate(bytes, align);
    }
    used_ = offset + bytes;
    return chunk.data() + offset;
  }

  std::vector<std::vector<uint8_t>> chunks_;
  size_t used_ = 0;  ///< cursor within chunks_.back()
};

}  // namespace vr
