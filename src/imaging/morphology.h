/// \file morphology.h
/// \brief Binary morphology (dilate / erode / open / close).
///
/// The paper's region-growing preprocessing dilates and erodes the
/// binarized frame with a 3x3-ones-in-5x5 kernel before labeling.
///
/// Precondition: a structuring element's members form one filled,
/// non-empty rectangle (every cell of the members' bounding box is a
/// member). Both shipped kernels qualify. A rectangle's max (or min)
/// is the max (min) over its rows of the max (min) along each row, so
/// Dilate and Erode run as one 1-D pass along the rows and one down the
/// columns, each cell reading outside the raster as 0 — the same bytes
/// as visiting every window cell, at a cost linear in the rectangle's
/// side instead of its area. A mask that is not a filled rectangle
/// aborts the process with a diagnostic.

#pragma once

#include <cstdint>
#include <vector>

#include "imaging/image.h"

namespace vr {

/// \brief Flat structuring element; true entries are members.
struct StructuringElement {
  int width = 0;
  int height = 0;
  std::vector<uint8_t> mask;  // row-major 0/1 flags

  bool At(int x, int y) const {
    return mask[static_cast<size_t>(y) * width + x] != 0;
  }
};

/// The paper's kernel: 3x3 block of ones centered in a 5x5 window.
StructuringElement PaperKernel5x5();

/// Full 3x3 box.
StructuringElement Box3x3();

enum class MorphOp { kDilate, kErode };

/// Dilates or erodes the row-major \p w x \p h binary plane \p in
/// (0 / nonzero) into \p out (0 / 255); \p tmp is \p w * \p h bytes of
/// scratch. \p out may alias \p in. The allocation-free form the region
/// extractor runs on its frame arena; Dilate and Erode wrap it.
void MorphPlane(MorphOp op, const StructuringElement& se, const uint8_t* in,
                int w, int h, uint8_t* tmp, uint8_t* out);

/// Dilation of a binary (0 / nonzero) 1-channel image.
Image Dilate(const Image& binary, const StructuringElement& se);

/// Erosion of a binary (0 / nonzero) 1-channel image.
Image Erode(const Image& binary, const StructuringElement& se);

/// Erode then dilate.
Image Open(const Image& binary, const StructuringElement& se);

/// Dilate then erode.
Image Close(const Image& binary, const StructuringElement& se);

}  // namespace vr
