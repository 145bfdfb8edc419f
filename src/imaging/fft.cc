#include "imaging/fft.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

// The AVX2 kernel build needs x86 and the GNU target attribute; every
// other build compiles only the portable bodies.
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define VR_FFT_AVX2 1
#else
#define VR_FFT_AVX2 0
#endif

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
    auto& table = dir ? inv_ : fwd_;
    table.reserve(n - 1);
    for (size_t len = 2; len <= n; len <<= 1) {
      const float ang =
          2.0f * static_cast<float>(M_PI) / len * (dir ? 1.0f : -1.0f);
      const Complex wlen(std::cos(ang), std::sin(ang));
      Complex w(1.0f, 0.0f);
      for (size_t k = 0; k < len / 2; ++k) {
        table.push_back(w);
        w = ComplexMul(w, wlen);
      }
    }
  }
}

namespace fft_internal {

/// One lockstep transform for the kernels: the plan's tables for one
/// direction and the caller's block.
struct TransformArgs {
  size_t n;
  const size_t* bitrev;
  const Complex* twiddles;
  Complex* data;
  size_t columns;
  bool inverse;
};

/// One kernel build. Each entry wraps one of the bodies below.
struct Kernels {
  void (*transform)(const TransformArgs& a);
  void (*transpose)(const Complex* in, size_t rows, size_t cols,
                    Complex* out);
  void (*magnitudes)(const Complex* in, size_t n, float* out);
};

}  // namespace fft_internal

namespace {

using fft_internal::Kernels;
using fft_internal::TransformArgs;

// The kernel bodies. Each is always inlined into one wrapper per build,
// so the compiler vectorizes the same source for each target.

/// One butterfly on a column's pair (a, b) of rows: a + w b, a - w b,
/// with ComplexMul and complex +/- written out per component.
[[gnu::always_inline]] inline void Butterfly(float& ar, float& ai, float& br,
                                             float& bi, float wr, float wi) {
  const float vr = br * wr - bi * wi;
  const float vi = br * wi + bi * wr;
  br = ar - vr;
  bi = ai - vi;
  ar = ar + vr;
  ai = ai + vi;
}

/// One level's butterflies between rows \p ra and \p rb across
/// \p floats / 2 lockstep columns. Rows are float pairs because GCC's
/// vectorizer rejects whole-complex stores.
[[gnu::always_inline]] inline void ButterflyRows(float* __restrict ra,
                                                 float* __restrict rb,
                                                 Complex w, size_t floats) {
  for (size_t x = 0; x < floats; x += 2) {
    float ar = ra[x], ai = ra[x + 1], br = rb[x], bi = rb[x + 1];
    Butterfly(ar, ai, br, bi, w.real(), w.imag());
    ra[x] = ar;
    ra[x + 1] = ai;
    rb[x] = br;
    rb[x + 1] = bi;
  }
}

/// Two consecutive levels (spans h and 2h) over the rows r, r + h,
/// r + 2h, r + 3h, in registers: the level-h butterflies (r0, r1) and
/// (r2, r3) with \p w, then the level-2h ones (r0, r2) with \p w0 and
/// (r1, r3) with \p w1. These four rows exchange data with no other
/// rows across the two levels, so each butterfly sees the operands it
/// would see level by level.
[[gnu::always_inline]] inline void ButterflyRows2(
    float* __restrict r0, float* __restrict r1, float* __restrict r2,
    float* __restrict r3, Complex w, Complex w0, Complex w1,
    size_t floats) {
  for (size_t x = 0; x < floats; x += 2) {
    float ar = r0[x], ai = r0[x + 1], br = r1[x], bi = r1[x + 1];
    float cr = r2[x], ci = r2[x + 1], dr = r3[x], di = r3[x + 1];
    Butterfly(ar, ai, br, bi, w.real(), w.imag());
    Butterfly(cr, ci, dr, di, w.real(), w.imag());
    Butterfly(ar, ai, cr, ci, w0.real(), w0.imag());
    Butterfly(br, bi, dr, di, w1.real(), w1.imag());
    r0[x] = ar;
    r0[x + 1] = ai;
    r1[x] = br;
    r1[x + 1] = bi;
    r2[x] = cr;
    r2[x + 1] = ci;
    r3[x] = dr;
    r3[x + 1] = di;
  }
}

/// The whole transform of one strip of \p width columns at \p s.
[[gnu::always_inline]] inline void StripBody(const TransformArgs& a,
                                             Complex* s, size_t width) {
  const size_t n = a.n;
  const size_t stride = a.columns;
  for (size_t i = 1; i < n; ++i) {
    const size_t j = a.bitrev[i];
    if (i < j) {
      float* ri = reinterpret_cast<float*>(s + i * stride);
      float* rj = reinterpret_cast<float*>(s + j * stride);
      for (size_t x = 0; x < 2 * width; ++x) std::swap(ri[x], rj[x]);
    }
  }
  const auto row = [&](size_t r) {
    return reinterpret_cast<float*>(s + r * stride);
  };
  size_t half = 1;
  // Levels two at a time (half = 1, 4, 16, ...), then a last single
  // level when log2(n) is odd.
  for (; 4 * half <= n; half *= 4) {
    const Complex* tw = a.twiddles + (half - 1);
    const Complex* tw2 = a.twiddles + (2 * half - 1);
    for (size_t i = 0; i < n; i += 4 * half) {
      for (size_t k = 0; k < half; ++k) {
        ButterflyRows2(row(i + k), row(i + k + half), row(i + k + 2 * half),
                       row(i + k + 3 * half), tw[k], tw2[k], tw2[k + half],
                       2 * width);
      }
    }
  }
  if (half < n) {
    const Complex* tw = a.twiddles + (half - 1);
    for (size_t k = 0; k < half; ++k) {
      ButterflyRows(row(k), row(k + half), tw[k], 2 * width);
    }
  }
  if (a.inverse) {
    const float inv_n = 1.0f / static_cast<float>(n);
    for (size_t y = 0; y < n; ++y) {
      Complex* r = s + y * stride;
      for (size_t x = 0; x < width; ++x) r[x] *= inv_n;
    }
  }
}

[[gnu::always_inline]] inline void TransformBody(const TransformArgs& a) {
  constexpr size_t kStrip = FftPlan::kStripColumns;
  for (size_t x0 = 0; x0 < a.columns; x0 += kStrip) {
    // A full strip's width is a constant, so its loops unroll.
    if (a.columns - x0 >= kStrip) {
      StripBody(a, a.data + x0, kStrip);
    } else {
      StripBody(a, a.data + x0, a.columns - x0);
    }
  }
}

/// In 16 x 16 tiles so the strided side stays in cache, each output
/// column written contiguously, copied as float pairs (a whole-complex
/// copy is not vectorized).
[[gnu::always_inline]] inline void TransposeBody(const Complex* in,
                                                 size_t rows, size_t cols,
                                                 Complex* out) {
  constexpr size_t kTile = 16;
  const float* from = reinterpret_cast<const float*>(in);
  float* to = reinterpret_cast<float*>(out);
  for (size_t y0 = 0; y0 < rows; y0 += kTile) {
    const size_t y1 = std::min(rows, y0 + kTile);
    for (size_t x0 = 0; x0 < cols; x0 += kTile) {
      const size_t x1 = std::min(cols, x0 + kTile);
      for (size_t x = x0; x < x1; ++x) {
        for (size_t y = y0; y < y1; ++y) {
          to[2 * (x * rows + y)] = from[2 * (y * cols + x)];
          to[2 * (x * rows + y) + 1] = from[2 * (y * cols + x) + 1];
        }
      }
    }
  }
}

/// Magnitude() per element, read as float pairs so the loop vectorizes
/// (packed sqrt needs -fno-math-errno, see src/CMakeLists.txt).
[[gnu::always_inline]] inline void MagnitudesBody(const Complex* in,
                                                  size_t n, float* out) {
  const float* f = reinterpret_cast<const float*>(in);
  for (size_t i = 0; i < n; ++i) {
    const float re = f[2 * i];
    const float im = f[2 * i + 1];
    out[i] = std::sqrt(re * re + im * im);
  }
}

void PortableTransform(const TransformArgs& a) { TransformBody(a); }
void PortableTranspose(const Complex* in, size_t rows, size_t cols,
                       Complex* out) {
  TransposeBody(in, rows, cols, out);
}
void PortableMagnitudes(const Complex* in, size_t n, float* out) {
  MagnitudesBody(in, n, out);
}
constexpr Kernels kPortable = {PortableTransform, PortableTranspose,
                               PortableMagnitudes};

#if VR_FFT_AVX2
// "avx2" only: adding "fma" would let -ffp-contract=fast fuse the
// butterflies' multiply-adds and change their rounding (see fft.h).
[[gnu::target("avx2")]] void Avx2Transform(const TransformArgs& a) {
  TransformBody(a);
}
[[gnu::target("avx2")]] void Avx2Transpose(const Complex* in, size_t rows,
                                           size_t cols, Complex* out) {
  TransposeBody(in, rows, cols, out);
}
[[gnu::target("avx2")]] void Avx2Magnitudes(const Complex* in, size_t n,
                                            float* out) {
  MagnitudesBody(in, n, out);
}
constexpr Kernels kAvx2 = {Avx2Transform, Avx2Transpose, Avx2Magnitudes};
#endif

/// The calling thread's pinned build (ScopedKernelBuild), else null.
thread_local const Kernels* pinned = nullptr;

const Kernels& Active() {
  if (pinned != nullptr) return *pinned;
#if VR_FFT_AVX2
  if (fft_internal::Avx2Supported()) return kAvx2;
#endif
  return kPortable;
}

}  // namespace

namespace fft_internal {

bool Avx2Supported() {
#if VR_FFT_AVX2
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return supported;
#else
  return false;
#endif
}

ScopedKernelBuild::ScopedKernelBuild(KernelBuild build) : saved_(pinned) {
  if (build == KernelBuild::kPortable) {
    pinned = &kPortable;
    return;
  }
#if VR_FFT_AVX2
  if (Avx2Supported()) {
    pinned = &kAvx2;
    return;
  }
#endif
  std::abort();  // kAvx2 without AVX2: the comparison would be vacuous
}

ScopedKernelBuild::ScopedKernelBuild(const Kernels* carried)
    : saved_(pinned) {
  pinned = carried;
}

ScopedKernelBuild::~ScopedKernelBuild() { pinned = saved_; }

const Kernels* PinnedKernels() { return pinned; }

}  // namespace fft_internal

void Transpose(const Complex* in, size_t rows, size_t cols, Complex* out) {
  Active().transpose(in, rows, cols, out);
}

void Magnitudes(const Complex* in, size_t n, float* out) {
  Active().magnitudes(in, n, out);
}

Status FftPlan::Run(Complex* d, size_t columns, bool inverse) const {
  if (n_ == 0) {
    return Status::InvalidArgument("FFT size must be a power of two");
  }
  Active().transform({n_, bitrev_.data(), (inverse ? inv_ : fwd_).data(), d,
                      columns, inverse});
  return Status::OK();
}

Fft2DPlan::Fft2DPlan(int width, int height)
    : row_(static_cast<size_t>(width)), col_(static_cast<size_t>(height)) {}

Status Fft2DPlan::CheckShape(const ComplexImage& img) const {
  if (static_cast<size_t>(img.width) != row_.size() ||
      static_cast<size_t>(img.height) != col_.size() || row_.size() == 0 ||
      col_.size() == 0) {
    return Status::InvalidArgument("2-D FFT plan/image size mismatch");
  }
  return Status::OK();
}

Status Fft2DPlan::Run(ComplexImage* img, bool inverse,
                      std::vector<Complex>* scratch) const {
  VR_RETURN_NOT_OK(CheckShape(*img));
  const size_t w = row_.size();
  const size_t h = col_.size();
  scratch->resize(w * h);
  Transpose(img->data.data(), h, w, scratch->data());
  return RunTransposed(scratch->data(), inverse, img);
}

Status Fft2DPlan::RunTransposed(Complex* transposed, bool inverse,
                                ComplexImage* img) const {
  VR_RETURN_NOT_OK(CheckShape(*img));
  const size_t w = row_.size();
  const size_t h = col_.size();
  // Rows of the image are columns of its transpose.
  VR_RETURN_NOT_OK(row_.Run(transposed, h, inverse));
  Complex* d = img->data.data();
  Transpose(transposed, w, h, d);
  return col_.Run(d, w, inverse);
}

}  // namespace vr
