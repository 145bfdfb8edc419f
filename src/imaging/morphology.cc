#include "imaging/morphology.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace vr {

StructuringElement PaperKernel5x5() {
  StructuringElement se;
  se.width = 5;
  se.height = 5;
  se.mask = {0, 0, 0, 0, 0,
             0, 1, 1, 1, 0,
             0, 1, 1, 1, 0,
             0, 1, 1, 1, 0,
             0, 0, 0, 0, 0};
  return se;
}

StructuringElement Box3x3() {
  StructuringElement se;
  se.width = 3;
  se.height = 3;
  se.mask.assign(9, 1);
  return se;
}

namespace {

/// The members' rectangle as offsets from the element's center
/// (width / 2, height / 2): columns [x0, x1], rows [y0, y1].
struct MemberRect {
  int x0 = 0;
  int x1 = -1;
  int y0 = 0;
  int y1 = -1;
};

/// The rectangle \p se's members fill; aborts unless they fill one.
MemberRect FilledRect(const StructuringElement& se) {
  MemberRect r{se.width, -1, se.height, -1};
  for (int y = 0; y < se.height; ++y) {
    for (int x = 0; x < se.width; ++x) {
      if (!se.At(x, y)) continue;
      r = {std::min(r.x0, x), std::max(r.x1, x), std::min(r.y0, y),
           std::max(r.y1, y)};
    }
  }
  bool filled = r.x1 >= 0;
  for (int y = r.y0; filled && y <= r.y1; ++y) {
    for (int x = r.x0; filled && x <= r.x1; ++x) filled = se.At(x, y);
  }
  if (!filled) {
    std::fprintf(  // vr-lint: allow(no-printf) abort diagnostic
        stderr,
        "Fatal: a %dx%d structuring element whose members are not one "
        "filled rectangle\n",
        se.width, se.height);
    std::abort();
  }
  return {r.x0 - se.width / 2, r.x1 - se.width / 2, r.y0 - se.height / 2,
          r.y1 - se.height / 2};
}

/// One separable pass: dst(x, y) = op over t in [lo, hi] of src at
/// (x + t, y) when \p along_rows, else at (x, y + t); a cell outside
/// the raster reads as 0. Both ops share the loop through the mask
/// \p keep (0xFF for dilate, 0 for erode): (acc & (v | keep)) |
/// (v & keep) is acc | v for dilate and acc & v for erode, and a read
/// of 0 leaves acc & keep.
void Pass(MorphOp op, const uint8_t* src, int w, int h, int lo, int hi,
          bool along_rows, uint8_t* dst) {
  const uint8_t keep = op == MorphOp::kDilate ? 0xFF : 0;
  for (int y = 0; y < h; ++y) {
    uint8_t* out = dst + static_cast<size_t>(y) * w;
    std::fill(out, out + w, static_cast<uint8_t>(~keep));
    for (int t = lo; t <= hi; ++t) {
      const int sy = along_rows ? y : y + t;
      const int sx = along_rows ? t : 0;
      // Output cells [x0, x1) read inside the raster.
      const bool row_inside = sy >= 0 && sy < h;
      const int x0 = row_inside ? std::clamp(-sx, 0, w) : w;
      const int x1 = row_inside ? std::clamp(w - sx, x0, w) : w;
      for (int x = 0; x < x0; ++x) out[x] &= keep;
      if (x0 < x1) {
        const uint8_t* row = src + static_cast<size_t>(sy) * w;
        for (int x = x0; x < x1; ++x) {
          const uint8_t v = row[x + sx] != 0 ? 0xFF : 0;
          out[x] = static_cast<uint8_t>((out[x] & (v | keep)) | (v & keep));
        }
      }
      for (int x = x1; x < w; ++x) out[x] &= keep;
    }
  }
}

}  // namespace

void MorphPlane(MorphOp op, const StructuringElement& se, const uint8_t* in,
                int w, int h, uint8_t* tmp, uint8_t* out) {
  const MemberRect r = FilledRect(se);
  Pass(op, in, w, h, r.x0, r.x1, /*along_rows=*/true, tmp);
  Pass(op, tmp, w, h, r.y0, r.y1, /*along_rows=*/false, out);
}

namespace {

Image Morph(const Image& binary, const StructuringElement& se, MorphOp op) {
  Image out(binary.width(), binary.height(), 1);
  std::vector<uint8_t> tmp(out.PixelCount());
  MorphPlane(op, se, binary.data(), binary.width(), binary.height(),
             tmp.data(), out.data());
  return out;
}

}  // namespace

Image Dilate(const Image& binary, const StructuringElement& se) {
  return Morph(binary, se, MorphOp::kDilate);
}

Image Erode(const Image& binary, const StructuringElement& se) {
  return Morph(binary, se, MorphOp::kErode);
}

Image Open(const Image& binary, const StructuringElement& se) {
  return Dilate(Erode(binary, se), se);
}

Image Close(const Image& binary, const StructuringElement& se) {
  return Erode(Dilate(binary, se), se);
}

}  // namespace vr
