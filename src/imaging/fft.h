/// \file fft.h
/// \brief Radix-2 FFT plans (1-D and 2-D) over std::complex<float>.
///
/// Used by the Gabor texture extractor: the image is transformed once,
/// each Gabor filter is applied as an analytic frequency-domain Gaussian,
/// and one inverse transform per filter yields the complex response.
/// Direct spatial convolution with 30 large kernels would be ~100x
/// slower; on the 4-vCPU benchmark host the whole 31-transform bank
/// is still the largest layer of a query's extraction.
///
/// Every output bit is fixed (the golden-feature fixture pins it), so
/// the speed comes only from reordering independent operations and from
/// wider vectors over the same IEEE operations:
///
///  - **Strips.** FftPlan::Run transforms a lockstep block kStripColumns
///    columns at a time: the bit reversal and every butterfly level run
///    over one strip (128 rows x 32 columns = 32 KB, L1-resident) before
///    the next. Columns never exchange data, so each butterfly still
///    sees the same operands and the same twiddle.
///  - **Level pairs.** Within a strip, levels run two at a time: the
///    four rows r, r + h, r + 2h, r + 3h exchange data only with each
///    other across the levels of span h and 2h, so their four
///    butterflies run in registers with one load and one store per row
///    instead of two, each on the operands it would get level by level.
///  - **Dispatch.** The butterfly, transpose and |.| loops are each one
///    kernel body compiled twice: portable (the build's baseline ISA)
///    and, on x86 with GCC or Clang, under `[[gnu::target("avx2")]]`.
///    One `__builtin_cpu_supports("avx2")` check on first use picks the
///    build for the process. The AVX2 target must never add `fma` (nor
///    `x86-64-v3`, `arch=haswell` or anything else that implies it):
///    GCC's default -ffp-contract=fast would then fuse a * b + c into
///    one rounding and move bits. Without FMA both builds run the same
///    IEEE multiply, add and sqrt per element, 2 or 4 lanes at a time.
///    fft_test and gabor_test compare the two builds bit for bit, and
///    `micro_features --smoke` checks the golden fixture on both.
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

/// out[x * rows + y] = in[y * cols + x]: the row-major rows x cols
/// block at \p in, transposed into \p out (which must not overlap it).
void Transpose(const Complex* in, size_t rows, size_t cols, Complex* out);

/// out[i] = Magnitude(in[i]) for i < n.
void Magnitudes(const Complex* in, size_t n, float* out);

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

  /// Columns a transform keeps in lockstep: one strip of a size-128
  /// plan is 32 KB, so all its levels run out of L1.
  static constexpr size_t kStripColumns = 32;

  /// In-place transform of the \p columns columns of the row-major
  /// size() x \p columns block at \p data, in lockstep strips of up to
  /// kStripColumns columns: the bit-reversal permutation swaps whole
  /// strip rows and each butterfly is a unit-stride sweep across the
  /// strip. `columns == 1` is a plain 1-D transform. \p inverse selects
  /// the inverse (with 1/size() scaling).
  Status Run(Complex* data, size_t columns, bool inverse) const;

 private:
  size_t n_ = 0;
  std::vector<size_t> bitrev_;
  /// Twiddles of every level, flat: the level with butterfly span
  /// `half` keeps its `half` factors at [half - 1, 2 * half - 1).
  std::vector<Complex> fwd_;
  std::vector<Complex> inv_;
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

  /// Run() for an image handed over transposed: \p transposed holds
  /// the width() x height() image column by column (pixel (x, y) at
  /// x * height() + y), e.g. as Transpose() leaves it. That block is
  /// overwritten and the transform lands row-major in \p img, whose
  /// dimensions must match the plan. Bitwise equal to Run() on the
  /// untransposed image; a caller that can build its input transposed
  /// saves Run()'s first transpose.
  Status RunTransposed(Complex* transposed, bool inverse,
                       ComplexImage* img) const;

 private:
  Status CheckShape(const ComplexImage& img) const;

  FftPlan row_;
  FftPlan col_;
};

/// Not an interface for callers: the hook through which tests and
/// the `micro_features` gate run both kernel builds.
namespace fft_internal {

enum class KernelBuild { kPortable, kAvx2 };
struct Kernels;  ///< one build's function table (fft.cc)

/// True iff this build carries the AVX2 kernels and the CPU runs them.
bool Avx2Supported();

/// The calling thread's pinned build, or null when none is pinned. Work
/// that a thread hands to another must carry it (ScopedKernelBuild's
/// second constructor), or the other thread runs the process build.
const Kernels* PinnedKernels();

/// Routes the calling thread's transforms, Transpose and Magnitudes
/// through \p build while alive, instead of the build picked for the
/// process. kAvx2 requires Avx2Supported() (checked: the program
/// aborts otherwise, so a comparison can never silently run the
/// portable build twice).
class ScopedKernelBuild {
 public:
  explicit ScopedKernelBuild(KernelBuild build);
  /// Carries a pin into another thread: re-applies what
  /// PinnedKernels() returned on the pinning thread (null pins
  /// nothing, so this thread keeps the process build).
  explicit ScopedKernelBuild(const Kernels* carried);
  ~ScopedKernelBuild();
  ScopedKernelBuild(const ScopedKernelBuild&) = delete;
  ScopedKernelBuild& operator=(const ScopedKernelBuild&) = delete;

 private:
  const Kernels* saved_;
};

}  // namespace fft_internal
}  // namespace vr
