/// \file video_reader.h
/// \brief Reader for the .vsv container with sequential and random access.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "imaging/image.h"
#include "util/status.h"
#include "video/video_format.h"

namespace vr {

/// Reads the whole of \p path into memory: the bytes a file ingest
/// decodes through a VideoReader and then stores as given.
Result<std::vector<uint8_t>> ReadVideoFile(const std::string& path);

/// \brief Decodes frames from a .vsv container held in memory.
///
/// Sequential decoding (`Next`) is always available; `ReadFrame(i)` uses
/// the footer's offset table and decodes the delta chain from the nearest
/// non-delta frame. Every decoded frame is checked against its stored
/// checksum.
class VideoReader {
 public:
  VideoReader() = default;
  VideoReader(const VideoReader&) = delete;
  VideoReader& operator=(const VideoReader&) = delete;

  /// Reads \p path into memory (ReadVideoFile) and opens those bytes.
  Status Open(const std::string& path);

  /// Opens the container in \p bytes, validating header and footer.
  /// The bytes are not copied: they must stay alive and unchanged
  /// while the reader decodes from them.
  Status OpenMemory(std::span<const uint8_t> bytes);

  const VideoHeader& header() const { return header_; }
  uint64_t frame_count() const { return header_.frame_count; }

  /// Decodes the next frame in sequence; returns OutOfRange at EOF.
  Result<Image> Next();

  /// Random access to frame \p index.
  Result<Image> ReadFrame(uint64_t index);

  /// Decodes every frame into a vector.
  Result<std::vector<Image>> ReadAll();

  /// Rewinds sequential decoding to frame 0.
  Status Rewind();

  void Close();

 private:
  /// Moves the read cursor to \p offset within the container.
  Status Seek(uint64_t offset);
  /// Copies \p size bytes at the cursor into \p out and advances it.
  Status ReadBytes(void* out, size_t size);
  template <typename T>
  Result<T> ReadScalar();
  Result<std::vector<uint8_t>> DecodeFrameAt(uint64_t offset,
                                             const std::vector<uint8_t>& prev,
                                             FrameEncoding* enc_out);

  /// The file Open(path) read; OpenMemory callers keep their own.
  std::vector<uint8_t> owned_;
  std::span<const uint8_t> data_;
  bool open_ = false;
  uint64_t pos_ = 0;
  VideoHeader header_;
  std::vector<uint64_t> offsets_;
  uint64_t next_index_ = 0;
  std::vector<uint8_t> prev_frame_;
};

}  // namespace vr
