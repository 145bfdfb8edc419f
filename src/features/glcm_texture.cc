#include "features/glcm_texture.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "features/plan/frame_context.h"

namespace vr {

GlcmTexture::GlcmTexture(int step, int levels)
    : step_(std::max(1, step)), levels_(std::clamp(levels, 2, 256)) {}

namespace {

/// Per-context co-occurrence state: a count per cell and a bitmap of
/// the occupied cells. Both are all-zero between frames (the read-out
/// clears what it visits), so a frame costs its pixel pairs and its
/// occupied cells, not the l x l matrix.
struct GlcmScratch : PlanContext::Scratch {
  std::vector<uint32_t> counts;
  std::vector<uint64_t> occupied;
};

/// Calls visit(cell) for each occupied cell, in ascending (row-major)
/// order.
template <class Visit>
void ForEachOccupied(const std::vector<uint64_t>& occupied, Visit visit) {
  for (size_t w = 0; w < occupied.size(); ++w) {
    for (uint64_t bits = occupied[w]; bits != 0; bits &= bits - 1) {
      visit(64 * w + static_cast<size_t>(std::countr_zero(bits)));
    }
  }
}

}  // namespace

uint32_t GlcmTexture::SharedIntermediates() const {
  return static_cast<uint32_t>(Intermediate::kGray);
}

Result<FeatureVector> GlcmTexture::ExtractShared(const Image& img,
                                                 PlanContext& ctx) const {
  if (img.empty()) return Status::InvalidArgument("empty image");
  if (img.width() <= step_) {
    return Status::InvalidArgument("image narrower than GLCM step");
  }
  int shift = 0;
  while ((256 >> shift) > levels_) ++shift;
  const int level_bits = 8 - shift;
  const size_t l = static_cast<size_t>(256 >> shift);
  GlcmScratch* scratch = ctx.ScratchFor<GlcmScratch>(kind());
  std::vector<uint32_t>& counts = scratch->counts;
  std::vector<uint64_t>& occupied = scratch->occupied;
  if (counts.size() != l * l) {
    counts.assign(l * l, 0);
    occupied.assign((l * l + 63) / 64, 0);
  }
  const auto count = [&](size_t cell) {
    ++counts[cell];
    occupied[cell / 64] |= uint64_t{1} << (cell % 64);
  };
  const Image& gray = ctx.Gray();
  uint64_t pixel_counter = 0;
  for (int y = 0; y < gray.height(); ++y) {
    for (int x = 0; x + step_ < gray.width(); ++x) {
      const size_t a = static_cast<size_t>(gray.At(x, y) >> shift);
      const size_t b = static_cast<size_t>(gray.At(x + step_, y) >> shift);
      // Symmetric tabulation, as in the paper.
      count(a * l + b);
      count(b * l + a);
      pixel_counter += 2;
    }
  }
  if (pixel_counter == 0) return Status::InvalidArgument("degenerate image");

  // The statistics sum over the occupied cells in row-major order, each
  // count divided as it is read: the terms, and their order, of a sweep
  // over the whole normalized matrix that skips its zero cells.
  const double total = static_cast<double>(pixel_counter);
  const auto probability = [&](size_t cell) {
    return static_cast<double>(counts[cell]) / total;
  };
  double asm_ = 0.0;
  double contrast = 0.0;
  double idm = 0.0;
  double entropy = 0.0;
  double mean_x = 0.0;
  double mean_y = 0.0;
  ForEachOccupied(occupied, [&](size_t cell) {
    const double p = probability(cell);
    const double a = static_cast<double>(cell >> level_bits);
    const double b = static_cast<double>(cell & (l - 1));
    asm_ += p * p;
    const double d = a - b;
    contrast += d * d * p;
    idm += p / (1.0 + d * d);
    entropy -= p * std::log(p);
    mean_x += a * p;
    mean_y += b * p;
  });
  double var_x = 0.0;
  double var_y = 0.0;
  double cov = 0.0;
  ForEachOccupied(occupied, [&](size_t cell) {
    const double p = probability(cell);
    const double dx = static_cast<double>(cell >> level_bits) - mean_x;
    const double dy = static_cast<double>(cell & (l - 1)) - mean_y;
    var_x += dx * dx * p;
    var_y += dy * dy * p;
    cov += dx * dy * p;
    counts[cell] = 0;
  });
  std::fill(occupied.begin(), occupied.end(), uint64_t{0});
  const double denom = std::sqrt(var_x) * std::sqrt(var_y);
  const double correlation = denom > 0 ? cov / denom : 0.0;

  return FeatureVector(
      name(), {static_cast<double>(pixel_counter), asm_, contrast, correlation,
               idm, entropy});
}

}  // namespace vr
