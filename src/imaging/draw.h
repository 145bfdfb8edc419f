/// \file draw.h
/// \brief Raster drawing primitives used by the synthetic video generator.

#pragma once

#include "imaging/image.h"
#include "util/rng.h"

namespace vr {

/// Fills the axis-aligned rectangle [x, x+w) x [y, y+h), clipped.
void FillRect(Image* img, int x, int y, int w, int h, Rgb color);

/// Fills a disc of radius \p r centered at (cx, cy), clipped.
void FillCircle(Image* img, int cx, int cy, int r, Rgb color);

/// Draws a 1px line from (x0, y0) to (x1, y1) (Bresenham), clipped.
void DrawLine(Image* img, int x0, int y0, int x1, int y1, Rgb color);

/// Fills a vertical linear gradient from \p top to \p bottom.
void FillVerticalGradient(Image* img, Rgb top, Rgb bottom);

/// Fills a horizontal linear gradient from \p left to \p right.
void FillHorizontalGradient(Image* img, Rgb left, Rgb right);

/// Overlays a checkerboard with the given cell size over the whole image.
void DrawCheckerboard(Image* img, int cell, Rgb a, Rgb b);

/// Overlays stripes of the given period at the given angle (degrees).
void DrawStripes(Image* img, int period, double angle_deg, Rgb a, Rgb b);

/// Adds IID Gaussian noise with the given stddev to every channel.
void AddGaussianNoise(Image* img, double stddev, Rng* rng);

/// Draws a paragraph-like block of horizontal dark bars, emulating
/// rendered text lines (used by the e-learning slide renderer).
void DrawTextBlock(Image* img, int x, int y, int w, int h, int line_height,
                   Rgb ink, Rng* rng);

}  // namespace vr
