#include "imaging/dct_codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "imaging/ppm.h"
#include "util/bitstream.h"
#include "util/byte_io.h"
#include "util/string_util.h"

namespace vr {

namespace {

constexpr char kMagic[4] = {'V', 'J', 'F', '1'};
constexpr int kBlock = 8;

// Standard JPEG (Annex K) quantization tables.
constexpr int kLumaQuant[64] = {
    16, 11, 10, 16, 24,  40,  51,  61,  12, 12, 14, 19, 26,  58,  60,  55,
    14, 13, 16, 24, 40,  57,  69,  56,  14, 17, 22, 29, 51,  87,  80,  62,
    18, 22, 37, 56, 68,  109, 103, 77,  24, 35, 55, 64, 81,  104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99};
constexpr int kChromaQuant[64] = {
    17, 18, 24, 47, 99, 99, 99, 99, 18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99, 47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99};

// JPEG zigzag scan order.
constexpr int kZigzag[64] = {
    0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

/// Scales a base table by JPEG's quality formula.
void ScaleQuantTable(const int* base, int quality, int* out) {
  quality = std::clamp(quality, 1, 100);
  const int scale =
      quality < 50 ? 5000 / quality : 200 - 2 * quality;
  for (int i = 0; i < 64; ++i) {
    out[i] = std::clamp((base[i] * scale + 50) / 100, 1, 255);
  }
}

/// Precomputed DCT basis: c[u] * cos((2x+1) u pi / 16).
struct DctTables {
  double cosine[kBlock][kBlock];  // [x][u]
  DctTables() {
    for (int x = 0; x < kBlock; ++x) {
      for (int u = 0; u < kBlock; ++u) {
        const double cu = u == 0 ? 1.0 / std::sqrt(2.0) : 1.0;
        cosine[x][u] =
            0.5 * cu * std::cos((2 * x + 1) * u * M_PI / (2.0 * kBlock));
      }
    }
  }
};

const DctTables& Tables() {
  static const DctTables tables;
  return tables;
}

void ForwardDct(const double in[kBlock][kBlock], double out[kBlock][kBlock]) {
  const DctTables& t = Tables();
  double tmp[kBlock][kBlock];
  // Rows.
  for (int y = 0; y < kBlock; ++y) {
    for (int u = 0; u < kBlock; ++u) {
      double acc = 0;
      for (int x = 0; x < kBlock; ++x) acc += in[y][x] * t.cosine[x][u];
      tmp[y][u] = acc;
    }
  }
  // Columns.
  for (int u = 0; u < kBlock; ++u) {
    for (int v = 0; v < kBlock; ++v) {
      double acc = 0;
      for (int y = 0; y < kBlock; ++y) acc += tmp[y][u] * t.cosine[y][v];
      out[v][u] = acc;
    }
  }
}

void InverseDct(const double in[kBlock][kBlock], double out[kBlock][kBlock]) {
  const DctTables& t = Tables();
  double tmp[kBlock][kBlock];
  for (int v = 0; v < kBlock; ++v) {
    for (int x = 0; x < kBlock; ++x) {
      double acc = 0;
      for (int u = 0; u < kBlock; ++u) acc += in[v][u] * t.cosine[x][u];
      tmp[v][x] = acc;
    }
  }
  for (int x = 0; x < kBlock; ++x) {
    for (int y = 0; y < kBlock; ++y) {
      double acc = 0;
      for (int v = 0; v < kBlock; ++v) acc += tmp[v][x] * t.cosine[y][v];
      out[y][x] = acc;
    }
  }
}

/// One image plane as doubles, padded up to block multiples.
struct Plane {
  int width = 0;
  int height = 0;
  int padded_w = 0;
  int padded_h = 0;
  std::vector<double> data;  // padded_w * padded_h

  double& At(int x, int y) {
    return data[static_cast<size_t>(y) * padded_w + x];
  }
  double At(int x, int y) const {
    return data[static_cast<size_t>(y) * padded_w + x];
  }
};

Plane MakePlane(int w, int h) {
  Plane p;
  p.width = w;
  p.height = h;
  p.padded_w = (w + kBlock - 1) / kBlock * kBlock;
  p.padded_h = (h + kBlock - 1) / kBlock * kBlock;
  p.data.assign(static_cast<size_t>(p.padded_w) * p.padded_h, 0.0);
  return p;
}

/// Replicates the edge pixels into the padding margin.
void PadEdges(Plane* p) {
  for (int y = 0; y < p->padded_h; ++y) {
    const int sy = std::min(y, p->height - 1);
    for (int x = 0; x < p->padded_w; ++x) {
      const int sx = std::min(x, p->width - 1);
      if (x >= p->width || y >= p->height) {
        p->At(x, y) = p->At(sx, sy);
      }
    }
  }
}

std::vector<uint8_t> EncodePlane(const Plane& plane, const int* quant) {
  BitWriter writer;
  int prev_dc = 0;
  for (int by = 0; by < plane.padded_h; by += kBlock) {
    for (int bx = 0; bx < plane.padded_w; bx += kBlock) {
      double block[kBlock][kBlock];
      for (int y = 0; y < kBlock; ++y) {
        for (int x = 0; x < kBlock; ++x) {
          block[y][x] = plane.At(bx + x, by + y) - 128.0;
        }
      }
      double freq[kBlock][kBlock];
      ForwardDct(block, freq);
      int coeffs[64];
      for (int i = 0; i < 64; ++i) {
        const int idx = kZigzag[i];
        const double q =
            freq[idx / kBlock][idx % kBlock] / quant[idx];
        coeffs[i] = static_cast<int>(std::lround(q));
      }
      // DC delta.
      writer.WriteSe(coeffs[0] - prev_dc);
      prev_dc = coeffs[0];
      // AC: (run of zeros, level) pairs; run 63 terminator via ue(63)
      // when the rest of the block is empty.
      int i = 1;
      while (i < 64) {
        int run = 0;
        while (i + run < 64 && coeffs[i + run] == 0) ++run;
        if (i + run >= 64) {
          writer.WriteUe(63);  // end-of-block
          break;
        }
        writer.WriteUe(static_cast<uint32_t>(run));
        writer.WriteSe(coeffs[i + run]);
        i += run + 1;
        if (i == 64) writer.WriteUe(63);
      }
    }
  }
  return writer.Finish();
}

Status DecodePlane(const std::vector<uint8_t>& payload, const int* quant,
                   Plane* plane) {
  BitReader reader(payload);
  int prev_dc = 0;
  for (int by = 0; by < plane->padded_h; by += kBlock) {
    for (int bx = 0; bx < plane->padded_w; bx += kBlock) {
      int coeffs[64] = {0};
      VR_ASSIGN_OR_RETURN(int32_t dc_delta, reader.ReadSe());
      prev_dc += dc_delta;
      coeffs[0] = prev_dc;
      int i = 1;
      while (i < 64) {
        VR_ASSIGN_OR_RETURN(uint32_t run, reader.ReadUe());
        if (run == 63) break;  // end-of-block
        if (run > 62 || i + static_cast<int>(run) >= 64) {
          return Status::Corruption("AC run overflows block");
        }
        i += static_cast<int>(run);
        VR_ASSIGN_OR_RETURN(int32_t level, reader.ReadSe());
        coeffs[i++] = level;
        if (i == 64) {
          VR_ASSIGN_OR_RETURN(uint32_t eob, reader.ReadUe());
          if (eob != 63) return Status::Corruption("missing end-of-block");
          break;
        }
      }
      double freq[kBlock][kBlock];
      for (int z = 0; z < 64; ++z) {
        const int idx = kZigzag[z];
        freq[idx / kBlock][idx % kBlock] =
            static_cast<double>(coeffs[z]) * quant[idx];
      }
      double block[kBlock][kBlock];
      InverseDct(freq, block);
      for (int y = 0; y < kBlock; ++y) {
        for (int x = 0; x < kBlock; ++x) {
          plane->At(bx + x, by + y) = block[y][x] + 128.0;
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<uint8_t>> EncodeVjf(const Image& img, int quality) {
  if (img.empty()) return Status::InvalidArgument("empty image");
  if (img.width() > UINT16_MAX || img.height() > UINT16_MAX) {
    return Status::InvalidArgument("image too large for VJF");
  }
  quality = std::clamp(quality, 1, 100);
  int luma_q[64];
  int chroma_q[64];
  ScaleQuantTable(kLumaQuant, quality, luma_q);
  ScaleQuantTable(kChromaQuant, quality, chroma_q);

  const int channels = img.channels();
  std::vector<Plane> planes;
  for (int c = 0; c < (channels == 3 ? 3 : 1); ++c) {
    planes.push_back(MakePlane(img.width(), img.height()));
  }
  // Color transform: RGB -> YCbCr (full-range BT.601).
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      if (channels == 1) {
        planes[0].At(x, y) = img.At(x, y);
      } else {
        const Rgb p = img.PixelRgb(x, y);
        planes[0].At(x, y) = 0.299 * p.r + 0.587 * p.g + 0.114 * p.b;
        planes[1].At(x, y) =
            128.0 - 0.168736 * p.r - 0.331264 * p.g + 0.5 * p.b;
        planes[2].At(x, y) =
            128.0 + 0.5 * p.r - 0.418688 * p.g - 0.081312 * p.b;
      }
    }
  }
  for (Plane& p : planes) PadEdges(&p);

  std::vector<uint8_t> out;
  PutBytes(&out, kMagic, sizeof(kMagic));
  PutU16(&out, static_cast<uint16_t>(img.width()));
  PutU16(&out, static_cast<uint16_t>(img.height()));
  PutU8(&out, static_cast<uint8_t>(channels));
  PutU8(&out, static_cast<uint8_t>(quality));
  for (size_t c = 0; c < planes.size(); ++c) {
    const std::vector<uint8_t> payload =
        EncodePlane(planes[c], c == 0 ? luma_q : chroma_q);
    PutU32(&out, static_cast<uint32_t>(payload.size()));
    PutBytes(&out, payload.data(), payload.size());
  }
  return out;
}

bool LooksLikeVjf(const std::vector<uint8_t>& bytes) {
  return bytes.size() >= 4 && std::memcmp(bytes.data(), kMagic, 4) == 0;
}

Result<Image> DecodeVjf(const std::vector<uint8_t>& bytes) {
  if (!LooksLikeVjf(bytes)) return Status::Corruption("not a VJF image");
  ByteReader reader(bytes.data() + sizeof(kMagic),
                    bytes.size() - sizeof(kMagic));
  uint16_t w = 0;
  uint16_t h = 0;
  uint8_t channels = 0;
  uint8_t quality = 0;
  if (!reader.ReadU16(&w) || !reader.ReadU16(&h) ||
      !reader.ReadU8(&channels) || !reader.ReadU8(&quality)) {
    return Status::Corruption("not a VJF image");
  }
  if (w == 0 || h == 0 || (channels != 1 && channels != 3)) {
    return Status::Corruption("bad VJF header");
  }
  int luma_q[64];
  int chroma_q[64];
  ScaleQuantTable(kLumaQuant, quality, luma_q);
  ScaleQuantTable(kChromaQuant, quality, chroma_q);

  const int plane_count = channels == 3 ? 3 : 1;
  std::vector<Plane> planes;
  for (int c = 0; c < plane_count; ++c) {
    Plane plane = MakePlane(w, h);
    uint32_t len = 0;
    std::vector<uint8_t> payload;
    if (!reader.ReadU32(&len) || !reader.ReadBytes(&payload, len)) {
      return Status::Corruption("truncated VJF");
    }
    VR_RETURN_NOT_OK(
        DecodePlane(payload, c == 0 ? luma_q : chroma_q, &plane));
    planes.push_back(std::move(plane));
  }

  Image out(w, h, channels);
  auto clamp8 = [](double v) {
    return static_cast<uint8_t>(std::clamp(std::lround(v), 0l, 255l));
  };
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (channels == 1) {
        out.At(x, y) = clamp8(planes[0].At(x, y));
      } else {
        const double yy = planes[0].At(x, y);
        const double cb = planes[1].At(x, y) - 128.0;
        const double cr = planes[2].At(x, y) - 128.0;
        out.SetPixel(x, y, Rgb{clamp8(yy + 1.402 * cr),
                               clamp8(yy - 0.344136 * cb - 0.714136 * cr),
                               clamp8(yy + 1.772 * cb)});
      }
    }
  }
  return out;
}

Result<Image> DecodeKeyFrameImage(const std::vector<uint8_t>& bytes) {
  if (LooksLikeVjf(bytes)) return DecodeVjf(bytes);
  return DecodePnm(std::string(bytes.begin(), bytes.end()));
}

Result<double> Psnr(const Image& a, const Image& b) {
  if (a.width() != b.width() || a.height() != b.height() ||
      a.channels() != b.channels()) {
    return Status::InvalidArgument("PSNR needs same-sized images");
  }
  if (a.SizeBytes() == 0) return Status::InvalidArgument("empty images");
  double mse = 0.0;
  for (size_t i = 0; i < a.SizeBytes(); ++i) {
    const double d =
        static_cast<double>(a.data()[i]) - static_cast<double>(b.data()[i]);
    mse += d * d;
  }
  mse /= static_cast<double>(a.SizeBytes());
  if (mse <= 1e-12) return 99.0;
  return 10.0 * std::log10(255.0 * 255.0 / mse);
}

}  // namespace vr
