#include "imaging/fft.h"

#include <algorithm>
#include <utility>

namespace vr {

bool IsPowerOfTwo(size_t n) { return n != 0 && (n & (n - 1)) == 0; }

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

FftPlan::FftPlan(size_t n) : n_(n) {
  if (!IsPowerOfTwo(n)) {
    n_ = 0;
    return;
  }
  bitrev_.resize(n);
  for (size_t i = 1, j = 0; i < n; ++i) {
    size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    bitrev_[i] = j;
  }
  for (int dir = 0; dir < 2; ++dir) {
    auto& tables = dir ? inv_ : fwd_;
    for (size_t len = 2; len <= n; len <<= 1) {
      const float ang =
          2.0f * static_cast<float>(M_PI) / len * (dir ? 1.0f : -1.0f);
      const Complex wlen(std::cos(ang), std::sin(ang));
      std::vector<Complex> table(len / 2);
      Complex w(1.0f, 0.0f);
      for (size_t k = 0; k < len / 2; ++k) {
        table[k] = w;
        w = ComplexMul(w, wlen);
      }
      tables.push_back(std::move(table));
    }
  }
}

Status FftPlan::Run(Complex* d, size_t columns, bool inverse) const {
  const size_t n = n_;
  if (n == 0) {
    return Status::InvalidArgument("FFT size must be a power of two");
  }
  for (size_t i = 1; i < n; ++i) {
    const size_t j = bitrev_[i];
    if (i < j) {
      std::swap_ranges(d + i * columns, d + (i + 1) * columns,
                       d + j * columns);
    }
  }
  const auto& tables = inverse ? inv_ : fwd_;
  size_t level = 0;
  for (size_t len = 2; len <= n; len <<= 1, ++level) {
    const Complex* table = tables[level].data();
    const size_t half = len / 2;
    for (size_t i = 0; i < n; i += len) {
      for (size_t k = 0; k < half; ++k) {
        Complex* ra = d + (i + k) * columns;
        Complex* rb = ra + half * columns;
        const Complex wk = table[k];
        for (size_t x = 0; x < columns; ++x) {
          const Complex u = ra[x];
          const Complex v = ComplexMul(rb[x], wk);
          ra[x] = u + v;
          rb[x] = u - v;
        }
      }
    }
  }
  if (inverse) {
    const float inv_n = 1.0f / static_cast<float>(n);
    for (size_t i = 0; i < n * columns; ++i) d[i] *= inv_n;
  }
  return Status::OK();
}

namespace {

/// out[x * rows + y] = in[y * cols + x], in 16 x 16 tiles so the
/// strided side stays in cache.
void Transpose(const Complex* in, size_t rows, size_t cols, Complex* out) {
  constexpr size_t kTile = 16;
  for (size_t y0 = 0; y0 < rows; y0 += kTile) {
    const size_t y1 = std::min(rows, y0 + kTile);
    for (size_t x0 = 0; x0 < cols; x0 += kTile) {
      const size_t x1 = std::min(cols, x0 + kTile);
      for (size_t y = y0; y < y1; ++y) {
        for (size_t x = x0; x < x1; ++x) out[x * rows + y] = in[y * cols + x];
      }
    }
  }
}

}  // namespace

Fft2DPlan::Fft2DPlan(int width, int height)
    : row_(static_cast<size_t>(width)), col_(static_cast<size_t>(height)) {}

Status Fft2DPlan::Run(ComplexImage* img, bool inverse,
                      std::vector<Complex>* scratch) const {
  const size_t w = row_.size();
  const size_t h = col_.size();
  if (static_cast<size_t>(img->width) != w ||
      static_cast<size_t>(img->height) != h || w == 0 || h == 0) {
    return Status::InvalidArgument("2-D FFT plan/image size mismatch");
  }
  Complex* d = img->data.data();
  scratch->resize(w * h);
  // Rows of the image are columns of its transpose.
  Transpose(d, h, w, scratch->data());
  VR_RETURN_NOT_OK(row_.Run(scratch->data(), h, inverse));
  Transpose(scratch->data(), w, h, d);
  return col_.Run(d, w, inverse);
}

}  // namespace vr
