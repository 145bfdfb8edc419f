/// \file fft.h
/// \brief Radix-2 FFT plans (1-D and 2-D) over std::complex<float>.
///
/// Used by the Gabor texture extractor: the image is transformed once,
/// each Gabor filter is applied as an analytic frequency-domain Gaussian,
/// and one inverse transform per filter yields the complex response.
/// Direct spatial convolution with 30 large kernels would be ~100x
/// slower; on the 4-vCPU benchmark host the whole 31-transform bank
/// already dominates a query's extraction time.
///
/// The kernels never use std::complex arithmetic that can take a slow
/// path: ComplexMul and Magnitude below are written out, pinned bit for
/// bit against std::complex by tests/fft_test.cc.

#pragma once

#include <cmath>
#include <complex>
#include <vector>

#include "util/status.h"

namespace vr {

using Complex = std::complex<float>;

/// a * b as (ac - bd, ad + bc): the arithmetic of GCC's inline fast path
/// for std::complex<float>::operator*, without the NaN-recovery call
/// (__mulsc3) that keeps the butterfly loops from vectorizing. Bitwise
/// equal to operator* whenever that product is not NaN in both parts,
/// so for every finite butterfly operand.
inline Complex ComplexMul(Complex a, Complex b) {
  return Complex(a.real() * b.real() - a.imag() * b.imag(),
                 a.real() * b.imag() + a.imag() * b.real());
}

/// |z| as glibc's hypotf computes it (sqrt of the exact double sum of
/// squares, rounded to float), which is what std::abs(Complex) calls;
/// inline, it avoids one libm call per pixel per filter.
inline float Magnitude(Complex z) {
  const double re = z.real();
  const double im = z.imag();
  return static_cast<float>(std::sqrt(re * re + im * im));
}

/// True iff n is a power of two (and > 0).
bool IsPowerOfTwo(size_t n);

/// Smallest power of two >= n.
size_t NextPowerOfTwo(size_t n);

/// \brief Dense row-major complex matrix for 2-D transforms.
struct ComplexImage {
  int width = 0;
  int height = 0;
  std::vector<Complex> data;

  ComplexImage() = default;
  ComplexImage(int w, int h)
      : width(w), height(h),
        data(static_cast<size_t>(w) * static_cast<size_t>(h)) {}

  Complex& At(int x, int y) {
    return data[static_cast<size_t>(y) * width + x];
  }
  const Complex& At(int x, int y) const {
    return data[static_cast<size_t>(y) * width + x];
  }
};

/// \brief Bit-reversal and twiddle tables for transforms of one length.
///
/// Each level's twiddles come from the incremental `w *= wlen`
/// recurrence, so every butterfly multiplies by the same float on every
/// run; the golden-feature fixture pins the result. Safe to share across
/// threads once built (Run touches only caller data).
class FftPlan {
 public:
  /// \p n must be a power of two; otherwise Run fails.
  explicit FftPlan(size_t n);

  size_t size() const { return n_; }

  /// In-place transform of the \p columns columns of the row-major
  /// size() x \p columns block at \p data, all in lockstep: the
  /// bit-reversal permutation swaps whole rows and each butterfly is a
  /// unit-stride sweep across the columns. `columns == 1` is a plain
  /// 1-D transform. \p inverse selects the inverse (with 1/size()
  /// scaling).
  Status Run(Complex* data, size_t columns, bool inverse) const;

 private:
  size_t n_ = 0;
  std::vector<size_t> bitrev_;
  std::vector<std::vector<Complex>> fwd_;  // [level][k], len == 2 << level
  std::vector<std::vector<Complex>> inv_;
};

/// \brief 2-D FFT: the row transforms run as a lockstep column pass over
/// the transposed block, then the column transforms over the block
/// itself, so both passes share FftPlan::Run's one butterfly loop.
class Fft2DPlan {
 public:
  /// Both dimensions must be powers of two.
  Fft2DPlan(int width, int height);

  int width() const { return static_cast<int>(row_.size()); }
  int height() const { return static_cast<int>(col_.size()); }

  /// In-place transform of \p img (dimensions must match the plan).
  /// \p scratch holds the transposed block; it is resized to
  /// width x height, so reusing it allocates nothing after the first
  /// call.
  Status Run(ComplexImage* img, bool inverse,
             std::vector<Complex>* scratch) const;

 private:
  FftPlan row_;
  FftPlan col_;
};

}  // namespace vr
