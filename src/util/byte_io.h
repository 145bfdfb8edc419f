/// \file byte_io.h
/// \brief The one little-endian byte codec of every stream format.
///
/// Wire frames and payloads, serialized rows and journal records all
/// write integers through the Put* appenders below and read them back
/// through one bounds-checked ByteReader. Every
/// multi-byte value is little-endian on disk and on the wire, whatever
/// the host byte order; doubles travel as their IEEE-754 bit pattern.
///
/// Page-local structures (Page::ReadAt/WriteAt and the matrix cache's
/// page-chained arrays) copy native bytes instead and do not use this
/// header.

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

namespace vr {

/// Appends the low sizeof(T) bytes of \p v, least significant first.
template <typename T>
void PutLe(std::vector<uint8_t>* out, T v) {
  static_assert(std::is_unsigned_v<T>, "PutLe takes an unsigned type");
  for (size_t i = 0; i < sizeof(T); ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

inline void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }
inline void PutU16(std::vector<uint8_t>* out, uint16_t v) { PutLe(out, v); }
inline void PutU32(std::vector<uint8_t>* out, uint32_t v) { PutLe(out, v); }
inline void PutU64(std::vector<uint8_t>* out, uint64_t v) { PutLe(out, v); }
inline void PutI64(std::vector<uint8_t>* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}
inline void PutF64(std::vector<uint8_t>* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}
inline void PutBytes(std::vector<uint8_t>* out, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  out->insert(out->end(), p, p + n);
}

/// \brief Bounds-checked little-endian cursor over (pointer, length).
///
/// Every Read* returns false, and leaves the cursor where it was, when
/// fewer bytes remain than the value needs. Decoders map that to their
/// own error: a truncated wire message, a truncated row, a torn
/// journal tail.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  bool ReadU8(uint8_t* v) { return ReadLe(v); }
  bool ReadU16(uint16_t* v) { return ReadLe(v); }
  bool ReadU32(uint32_t* v) { return ReadLe(v); }
  bool ReadU64(uint64_t* v) { return ReadLe(v); }
  bool ReadI64(int64_t* v) {
    uint64_t raw;
    if (!ReadLe(&raw)) return false;
    *v = static_cast<int64_t>(raw);
    return true;
  }
  bool ReadF64(double* v) {
    uint64_t bits;
    if (!ReadLe(&bits)) return false;
    std::memcpy(v, &bits, sizeof(bits));
    return true;
  }
  /// Copies the next \p n bytes into \p out.
  bool ReadBytes(std::vector<uint8_t>* out, size_t n) {
    const uint8_t* p;
    if (!ReadSpan(&p, n)) return false;
    out->assign(p, p + n);
    return true;
  }
  /// Points \p out at the next \p n bytes without copying them.
  bool ReadSpan(const uint8_t** out, size_t n) {
    if (remaining() < n) return false;
    *out = data_ + pos_;
    pos_ += n;
    return true;
  }

  size_t position() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  template <typename T>
  bool ReadLe(T* v) {
    if (remaining() < sizeof(T)) return false;
    T out = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      out = static_cast<T>(out | static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    *v = out;
    return true;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace vr
