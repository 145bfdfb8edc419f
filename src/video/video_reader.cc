#include "video/video_reader.h"

#include <cstdio>
#include <cstring>

#include "util/string_util.h"

namespace vr {

Result<std::vector<uint8_t>> ReadVideoFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IOError("cannot open video file: " + path);
  }
  std::vector<uint8_t> bytes;
  bool ok = std::fseek(file, 0, SEEK_END) == 0;
  const long size = ok ? std::ftell(file) : -1;
  ok = size >= 0 && std::fseek(file, 0, SEEK_SET) == 0;
  if (ok) {
    bytes.resize(static_cast<size_t>(size));
    ok = std::fread(bytes.data(), 1, bytes.size(), file) == bytes.size();
  }
  std::fclose(file);
  if (!ok) return Status::IOError("cannot read video file: " + path);
  return bytes;
}

void VideoReader::Close() {
  owned_.clear();
  data_ = {};
  open_ = false;
}

Status VideoReader::Open(const std::string& path) {
  Close();
  VR_ASSIGN_OR_RETURN(owned_, ReadVideoFile(path));
  return OpenMemory(owned_);
}

Status VideoReader::Seek(uint64_t offset) {
  if (offset > data_.size()) return Status::Corruption("bad video offset");
  pos_ = offset;
  return Status::OK();
}

Status VideoReader::ReadBytes(void* out, size_t size) {
  if (size > data_.size() - pos_) {
    return Status::Corruption("unexpected end of video file");
  }
  std::memcpy(out, data_.data() + pos_, size);
  pos_ += size;
  return Status::OK();
}

template <typename T>
Result<T> VideoReader::ReadScalar() {
  T v{};
  VR_RETURN_NOT_OK(ReadBytes(&v, sizeof(v)));
  return v;
}

Status VideoReader::OpenMemory(std::span<const uint8_t> bytes) {
  open_ = false;
  data_ = bytes;
  pos_ = 0;
  char magic[4];
  VR_RETURN_NOT_OK(ReadBytes(magic, 4));
  if (std::memcmp(magic, kVsvMagic, 4) != 0) {
    return Status::Corruption("not a .vsv file");
  }
  VR_ASSIGN_OR_RETURN(uint32_t w, ReadScalar<uint32_t>());
  VR_ASSIGN_OR_RETURN(uint32_t h, ReadScalar<uint32_t>());
  VR_ASSIGN_OR_RETURN(uint32_t c, ReadScalar<uint32_t>());
  VR_ASSIGN_OR_RETURN(uint32_t fps, ReadScalar<uint32_t>());
  VR_ASSIGN_OR_RETURN(uint64_t count, ReadScalar<uint64_t>());
  if (w == 0 || h == 0 || (c != 1 && c != 3)) {
    return Status::Corruption("bad video header");
  }
  header_.width = static_cast<int>(w);
  header_.height = static_cast<int>(h);
  header_.channels = static_cast<int>(c);
  header_.fps = static_cast<int>(fps);
  header_.frame_count = count;

  // Load the footer offset table.
  constexpr size_t kTrailer = sizeof(uint64_t) + 4;
  if (data_.size() < kTrailer) {
    return Status::Corruption("video file too short for footer");
  }
  VR_RETURN_NOT_OK(Seek(data_.size() - kTrailer));
  VR_ASSIGN_OR_RETURN(uint64_t footer_start, ReadScalar<uint64_t>());
  char footer_magic[4];
  VR_RETURN_NOT_OK(ReadBytes(footer_magic, 4));
  if (std::memcmp(footer_magic, kVsvFooterMagic, 4) != 0) {
    return Status::Corruption("missing video footer (unfinished write?)");
  }
  if (footer_start > data_.size() ||
      count > (data_.size() - footer_start) / sizeof(uint64_t)) {
    return Status::Corruption("bad footer offset");
  }
  VR_RETURN_NOT_OK(Seek(footer_start));
  offsets_.resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    VR_ASSIGN_OR_RETURN(offsets_[i], ReadScalar<uint64_t>());
  }
  open_ = true;
  return Rewind();
}

Status VideoReader::Rewind() {
  next_index_ = 0;
  prev_frame_.clear();
  return Status::OK();
}

Result<std::vector<uint8_t>> VideoReader::DecodeFrameAt(
    uint64_t offset, const std::vector<uint8_t>& prev, FrameEncoding* enc_out) {
  VR_RETURN_NOT_OK(Seek(offset));
  VR_ASSIGN_OR_RETURN(uint8_t enc_raw, ReadScalar<uint8_t>());
  if (enc_raw > 2) return Status::Corruption("unknown frame encoding");
  const FrameEncoding enc = static_cast<FrameEncoding>(enc_raw);
  VR_ASSIGN_OR_RETURN(uint32_t payload_size, ReadScalar<uint32_t>());
  VR_ASSIGN_OR_RETURN(uint64_t checksum, ReadScalar<uint64_t>());
  const size_t frame_bytes = static_cast<size_t>(header_.width) *
                             header_.height * header_.channels;
  if (payload_size > frame_bytes + frame_bytes / 64 + 1024) {
    return Status::Corruption("frame payload implausibly large");
  }
  std::vector<uint8_t> payload(payload_size);
  VR_RETURN_NOT_OK(ReadBytes(payload.data(), payload.size()));

  std::vector<uint8_t> raw;
  switch (enc) {
    case FrameEncoding::kRaw:
      if (payload.size() != frame_bytes) {
        return Status::Corruption("raw frame has wrong size");
      }
      raw = std::move(payload);
      break;
    case FrameEncoding::kRle: {
      VR_ASSIGN_OR_RETURN(raw, PackBitsDecode(payload, frame_bytes));
      break;
    }
    case FrameEncoding::kDeltaRle: {
      if (prev.empty()) {
        return Status::Corruption("delta frame without predecessor");
      }
      VR_ASSIGN_OR_RETURN(std::vector<uint8_t> delta,
                          PackBitsDecode(payload, frame_bytes));
      raw = DeltaDecode(delta, prev);
      break;
    }
  }
  if (Fnv1a64(raw.data(), raw.size()) != checksum) {
    return Status::Corruption("frame checksum mismatch");
  }
  if (enc_out != nullptr) *enc_out = enc;
  return raw;
}

Result<Image> VideoReader::Next() {
  if (!open_) return Status::Internal("reader not open");
  if (next_index_ >= header_.frame_count) {
    return Status::OutOfRange("end of video");
  }
  VR_ASSIGN_OR_RETURN(
      std::vector<uint8_t> raw,
      DecodeFrameAt(offsets_[next_index_], prev_frame_, nullptr));
  prev_frame_ = raw;
  ++next_index_;
  return Image::FromData(header_.width, header_.height, header_.channels,
                         std::move(raw));
}

Result<Image> VideoReader::ReadFrame(uint64_t index) {
  if (!open_) return Status::Internal("reader not open");
  if (index >= header_.frame_count) {
    return Status::OutOfRange(
        StringPrintf("frame %llu out of range (count %llu)",
                     static_cast<unsigned long long>(index),
                     static_cast<unsigned long long>(header_.frame_count)));
  }
  // Walk back to the nearest frame that starts a delta chain. Frame 0 is
  // always non-delta; in practice chains are short because the writer only
  // emits delta frames when they help.
  uint64_t start = index;
  std::vector<FrameEncoding> encs;
  // Peek encodings going backwards.
  while (true) {
    VR_RETURN_NOT_OK(Seek(offsets_[start]));
    VR_ASSIGN_OR_RETURN(uint8_t enc_raw, ReadScalar<uint8_t>());
    if (enc_raw > 2) return Status::Corruption("unknown frame encoding");
    if (static_cast<FrameEncoding>(enc_raw) != FrameEncoding::kDeltaRle ||
        start == 0) {
      break;
    }
    --start;
  }
  std::vector<uint8_t> prev;
  std::vector<uint8_t> raw;
  for (uint64_t i = start; i <= index; ++i) {
    VR_ASSIGN_OR_RETURN(raw, DecodeFrameAt(offsets_[i], prev, nullptr));
    prev = raw;
  }
  return Image::FromData(header_.width, header_.height, header_.channels,
                         std::move(raw));
}

Result<std::vector<Image>> VideoReader::ReadAll() {
  VR_RETURN_NOT_OK(Rewind());
  std::vector<Image> frames;
  frames.reserve(header_.frame_count);
  for (uint64_t i = 0; i < header_.frame_count; ++i) {
    VR_ASSIGN_OR_RETURN(Image frame, Next());
    frames.push_back(std::move(frame));
  }
  return frames;
}

}  // namespace vr
