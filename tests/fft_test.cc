#include "imaging/fft.h"

#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <cfloat>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace vr {
namespace {

using CDouble = std::complex<double>;

std::vector<Complex> RandomSignal(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> out(n);
  for (auto& c : out) {
    c = Complex(static_cast<float>(rng.UniformDouble(-1, 1)),
                static_cast<float>(rng.UniformDouble(-1, 1)));
  }
  return out;
}

/// O((W*H)^2) double-precision DFT of the row-major W x H block \p in
/// (H == 1 is the 1-D DFT). The inverse carries the 1/(W*H) scaling,
/// like the plans.
std::vector<CDouble> NaiveDft(const std::vector<Complex>& in, size_t w,
                              size_t h, bool inverse) {
  const double sign = inverse ? 1.0 : -1.0;
  std::vector<CDouble> out(w * h);
  for (size_t v = 0; v < h; ++v) {
    for (size_t u = 0; u < w; ++u) {
      CDouble sum = 0.0;
      for (size_t y = 0; y < h; ++y) {
        for (size_t x = 0; x < w; ++x) {
          const double phase =
              sign * 2.0 * M_PI *
              (static_cast<double>(u * x) / static_cast<double>(w) +
               static_cast<double>(v * y) / static_cast<double>(h));
          sum += CDouble(in[y * w + x]) * std::polar(1.0, phase);
        }
      }
      out[v * w + u] = inverse ? sum / static_cast<double>(w * h) : sum;
    }
  }
  return out;
}

/// Every output of a DFT is bounded by the L1 norm of its input (scaled
/// by 1/N for the inverse), so float rounding through log2(N) butterfly
/// levels stays within 1e-5 of that bound.
void ExpectMatchesNaive(const std::vector<Complex>& in,
                        const std::vector<Complex>& got, size_t w, size_t h,
                        bool inverse) {
  const std::vector<CDouble> want = NaiveDft(in, w, h, inverse);
  double l1 = 0.0;
  for (const Complex& c : in) l1 += std::abs(CDouble(c));
  if (inverse) l1 /= static_cast<double>(w * h);
  const double tol = 1e-5 * l1;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(got[i].real(), want[i].real(), tol) << "bin " << i;
    EXPECT_NEAR(got[i].imag(), want[i].imag(), tol) << "bin " << i;
  }
}

TEST(FftTest, PowerOfTwoHelpers) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(64));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(12));
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(65), 128u);
  EXPECT_EQ(NextPowerOfTwo(128), 128u);
}

TEST(FftTest, RejectsNonPowerOfTwo) {
  std::vector<Complex> data(12);
  EXPECT_FALSE(FftPlan(12).Run(data.data(), 1, false).ok());
  ComplexImage img(12, 8);
  std::vector<Complex> scratch;
  EXPECT_FALSE(Fft2DPlan(12, 8).Run(&img, false, &scratch).ok());
  // A plan only transforms images of its own shape.
  ComplexImage other(16, 8);
  EXPECT_FALSE(Fft2DPlan(8, 16).Run(&other, false, &scratch).ok());
}

TEST(FftTest, ForwardInverseRoundTrip1D) {
  const std::vector<Complex> orig = RandomSignal(256, 11);
  std::vector<Complex> data = orig;
  const FftPlan plan(data.size());
  ASSERT_TRUE(plan.Run(data.data(), 1, false).ok());
  ASSERT_TRUE(plan.Run(data.data(), 1, true).ok());
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), orig[i].real(), 1e-4);
    EXPECT_NEAR(data[i].imag(), orig[i].imag(), 1e-4);
  }
}

TEST(FftTest, MatchesNaiveDft1D) {
  const std::vector<Complex> in = RandomSignal(256, 21);
  const FftPlan plan(in.size());
  for (bool inverse : {false, true}) {
    SCOPED_TRACE(inverse ? "inverse" : "forward");
    std::vector<Complex> got = in;
    ASSERT_TRUE(plan.Run(got.data(), 1, inverse).ok());
    ExpectMatchesNaive(in, got, in.size(), 1, inverse);
  }
}

TEST(FftTest, MatchesNaiveDft2DNonSquare) {
  constexpr int kW = 32;
  constexpr int kH = 16;
  const std::vector<Complex> in = RandomSignal(kW * kH, 22);
  const Fft2DPlan plan(kW, kH);
  std::vector<Complex> scratch;
  for (bool inverse : {false, true}) {
    SCOPED_TRACE(inverse ? "inverse" : "forward");
    ComplexImage img(kW, kH);
    img.data = in;
    ASSERT_TRUE(plan.Run(&img, inverse, &scratch).ok());
    ExpectMatchesNaive(in, img.data, kW, kH, inverse);
  }
}

TEST(FftTest, LockstepColumnsMatchOneAtATime) {
  // FftPlan::Run over a block of columns is each column's own 1-D
  // transform, bit for bit.
  constexpr size_t kN = 32;
  constexpr size_t kColumns = 5;
  const std::vector<Complex> block = RandomSignal(kN * kColumns, 23);
  const FftPlan plan(kN);
  std::vector<Complex> lockstep = block;
  ASSERT_TRUE(plan.Run(lockstep.data(), kColumns, true).ok());
  for (size_t x = 0; x < kColumns; ++x) {
    std::vector<Complex> column(kN);
    for (size_t y = 0; y < kN; ++y) column[y] = block[y * kColumns + x];
    ASSERT_TRUE(plan.Run(column.data(), 1, true).ok());
    for (size_t y = 0; y < kN; ++y) {
      EXPECT_EQ(std::bit_cast<uint64_t>(column[y]),
                std::bit_cast<uint64_t>(lockstep[y * kColumns + x]))
          << "column " << x << " row " << y;
    }
  }
}

TEST(FftTest, DcComponentIsSum) {
  std::vector<Complex> data(8, Complex(1.f, 0.f));
  ASSERT_TRUE(FftPlan(8).Run(data.data(), 1, false).ok());
  EXPECT_NEAR(data[0].real(), 8.f, 1e-5);
  for (size_t i = 1; i < 8; ++i) {
    EXPECT_NEAR(std::abs(data[i]), 0.f, 1e-5);
  }
}

TEST(FftTest, SinusoidPeaksAtItsFrequency) {
  const size_t n = 64;
  std::vector<Complex> data(n);
  const int freq = 5;
  for (size_t i = 0; i < n; ++i) {
    data[i] = Complex(
        std::cos(2.0 * M_PI * freq * static_cast<double>(i) / n), 0.f);
  }
  ASSERT_TRUE(FftPlan(n).Run(data.data(), 1, false).ok());
  // Peak magnitude at bins freq and n - freq.
  size_t argmax = 0;
  for (size_t i = 1; i < n; ++i) {
    if (std::abs(data[i]) > std::abs(data[argmax])) argmax = i;
  }
  EXPECT_TRUE(argmax == freq || argmax == n - freq);
}

TEST(FftTest, ForwardInverseRoundTrip2D) {
  Rng rng(12);
  ComplexImage img(32, 16);
  ComplexImage orig(32, 16);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 32; ++x) {
      img.At(x, y) = Complex(static_cast<float>(rng.UniformDouble(0, 255)), 0);
      orig.At(x, y) = img.At(x, y);
    }
  }
  const Fft2DPlan plan(32, 16);
  std::vector<Complex> scratch;
  ASSERT_TRUE(plan.Run(&img, false, &scratch).ok());
  ASSERT_TRUE(plan.Run(&img, true, &scratch).ok());
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 32; ++x) {
      EXPECT_NEAR(img.At(x, y).real(), orig.At(x, y).real(), 1e-2);
      EXPECT_NEAR(img.At(x, y).imag(), 0.f, 1e-2);
    }
  }
}

TEST(FftTest, ParsevalHolds2D) {
  Rng rng(13);
  ComplexImage img(16, 16);
  double spatial_energy = 0.0;
  for (auto& c : img.data) {
    c = Complex(static_cast<float>(rng.UniformDouble(-1, 1)), 0);
    spatial_energy += std::norm(c);
  }
  std::vector<Complex> scratch;
  ASSERT_TRUE(Fft2DPlan(16, 16).Run(&img, false, &scratch).ok());
  double freq_energy = 0.0;
  for (const auto& c : img.data) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy / (16.0 * 16.0), spatial_energy,
              spatial_energy * 1e-4);
}

/// The edge values where rounding, underflow or overflow could differ.
constexpr float kEdges[] = {0.0f,    -0.0f,    FLT_TRUE_MIN, -FLT_TRUE_MIN,
                            FLT_MIN, -FLT_MIN, FLT_MAX,      -FLT_MAX,
                            1.0f,    -1.0f};

/// A seeded finite float: a random bit pattern (the whole exponent
/// range) or a moderate magnitude, with equal odds.
float RandomFinite(Rng* rng) {
  if (rng->Bernoulli(0.5)) {
    return static_cast<float>(rng->UniformDouble(-300, 300));
  }
  while (true) {
    const float f = std::bit_cast<float>(static_cast<uint32_t>(rng->Next()));
    if (std::isfinite(f)) return f;
  }
}

uint64_t Bits(Complex z) { return std::bit_cast<uint64_t>(z); }
uint32_t Bits(float f) { return std::bit_cast<uint32_t>(f); }

TEST(FftTest, ComplexMulIsStdComplexProduct) {
  std::vector<std::pair<Complex, Complex>> cases;
  for (float ar : kEdges) {
    for (float ai : kEdges) {
      for (float br : kEdges) {
        for (float bi : kEdges) cases.push_back({{ar, ai}, {br, bi}});
      }
    }
  }
  Rng rng(31);
  for (uint64_t i = 0; i < 400000; ++i) {
    cases.push_back({{RandomFinite(&rng), RandomFinite(&rng)},
                     {RandomFinite(&rng), RandomFinite(&rng)}});
  }
  for (const auto& [a, b] : cases) {
    ASSERT_EQ(Bits(ComplexMul(a, b)), Bits(a * b))
        << "ComplexMul no longer matches std::complex<float>::operator* for "
        << a << " * " << b << "; the FFT butterflies would drift from the "
        << "golden-feature fixture";
  }
}

/// |z| as defined for the Gabor bank: the float sum of squares, then its
/// correctly rounded float sqrt (taken here in double and rounded once,
/// which is exact for a sqrt), so the reference does not lean on the
/// expression it checks.
float FloatMagnitude(Complex z) {
  const float sum = z.real() * z.real() + z.imag() * z.imag();
  return static_cast<float>(std::sqrt(static_cast<double>(sum)));
}

std::vector<Complex> MagnitudeCases() {
  std::vector<Complex> cases;
  for (float re : kEdges) {
    for (float im : kEdges) cases.push_back({re, im});
  }
  Rng rng(32);
  for (uint64_t i = 0; i < 400000; ++i) {
    cases.push_back({RandomFinite(&rng), RandomFinite(&rng)});
  }
  return cases;
}

TEST(FftTest, MagnitudeIsFloatSqrtOfSquares) {
  for (const Complex& z : MagnitudeCases()) {
    ASSERT_EQ(Bits(Magnitude(z)), Bits(FloatMagnitude(z)))
        << "Magnitude" << z << " = " << Magnitude(z) << ", expected "
        << FloatMagnitude(z) << ": Gabor features would drift from the "
        << "golden-feature fixture";
  }
}

using fft_internal::KernelBuild;
using fft_internal::ScopedKernelBuild;

/// Runs \p op once per kernel build on a copy of \p input and requires
/// byte-identical results. Skips (visibly) on a CPU without AVX2.
template <class T, class Op>
void ExpectBuildsAgree(const std::vector<T>& input, Op op) {
  if (!fft_internal::Avx2Supported()) {
    GTEST_SKIP() << "CPU lacks AVX2: only the portable kernels can run";
  }
  std::vector<T> portable = input;
  std::vector<T> avx2 = input;
  {
    ScopedKernelBuild pin(KernelBuild::kPortable);
    op(&portable);
  }
  {
    ScopedKernelBuild pin(KernelBuild::kAvx2);
    op(&avx2);
  }
  ASSERT_EQ(portable.size(), avx2.size());
  EXPECT_EQ(std::memcmp(portable.data(), avx2.data(),
                        portable.size() * sizeof(T)),
            0)
      << "the AVX2 kernels no longer compute the portable kernels' bits";
}

TEST(FftTest, KernelBuildsAgreeBitwise1D) {
  const FftPlan plan(256);
  for (bool inverse : {false, true}) {
    SCOPED_TRACE(inverse ? "inverse" : "forward");
    ExpectBuildsAgree(RandomSignal(256, 41), [&](std::vector<Complex>* d) {
      ASSERT_TRUE(plan.Run(d->data(), 1, inverse).ok());
    });
  }
}

TEST(FftTest, KernelBuildsAgreeBitwiseLockstep) {
  // 45 columns: one full strip plus a 13-column remainder; 64 rows, so
  // an even number of levels (2-D plans below take the odd case).
  constexpr size_t kN = 64;
  constexpr size_t kColumns = FftPlan::kStripColumns + 13;
  const FftPlan plan(kN);
  for (bool inverse : {false, true}) {
    SCOPED_TRACE(inverse ? "inverse" : "forward");
    ExpectBuildsAgree(RandomSignal(kN * kColumns, 42),
                      [&](std::vector<Complex>* d) {
                        ASSERT_TRUE(plan.Run(d->data(), kColumns, inverse).ok());
                      });
  }
}

TEST(FftTest, KernelBuildsAgreeBitwise2D) {
  // The Gabor working size, and a non-square shape.
  for (const auto& [w, h] : {std::pair<int, int>{128, 128}, {32, 16}}) {
    const Fft2DPlan plan(w, h);
    for (bool inverse : {false, true}) {
      SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h) +
                   (inverse ? " inverse" : " forward"));
      ExpectBuildsAgree(
          RandomSignal(static_cast<size_t>(w) * h, 43),
          [&](std::vector<Complex>* d) {
            ComplexImage img(w, h);
            img.data = *d;
            std::vector<Complex> scratch;
            ASSERT_TRUE(plan.Run(&img, inverse, &scratch).ok());
            *d = img.data;
          });
    }
  }
}

TEST(FftTest, KernelBuildsAgreeBitwiseTransposeAndMagnitudes) {
  constexpr size_t kRows = 40;
  constexpr size_t kCols = 24;
  ExpectBuildsAgree(RandomSignal(kRows * kCols, 44),
                    [](std::vector<Complex>* d) {
                      std::vector<Complex> out(d->size());
                      Transpose(d->data(), kRows, kCols, out.data());
                      *d = out;
                    });
  // Every edge value pair as well as random ones: |.| rounds twice.
  std::vector<Complex> cases = RandomSignal(1000, 45);
  for (float re : kEdges) {
    for (float im : kEdges) cases.push_back({re, im});
  }
  ExpectBuildsAgree(cases, [](std::vector<Complex>* d) {
    std::vector<float> mags(d->size());
    Magnitudes(d->data(), d->size(), mags.data());
    for (size_t i = 0; i < d->size(); ++i) (*d)[i] = Complex(mags[i], 0.0f);
  });
}

TEST(FftTest, MagnitudesKernelIsFloatSqrtOfSquaresOnEveryBuild) {
  // The packed |.| of each kernel build, element by element against the
  // scalar definition, so neither build can move a bit unnoticed.
  const std::vector<Complex> cases = MagnitudeCases();
  std::vector<KernelBuild> builds = {KernelBuild::kPortable};
  if (fft_internal::Avx2Supported()) builds.push_back(KernelBuild::kAvx2);
  for (KernelBuild build : builds) {
    SCOPED_TRACE(build == KernelBuild::kPortable ? "portable" : "AVX2");
    ScopedKernelBuild pin(build);
    std::vector<float> mags(cases.size());
    Magnitudes(cases.data(), cases.size(), mags.data());
    for (size_t i = 0; i < cases.size(); ++i) {
      ASSERT_EQ(Bits(mags[i]), Bits(FloatMagnitude(cases[i])))
          << "|" << cases[i] << "| = " << mags[i];
    }
  }
  if (builds.size() == 1) {
    GTEST_SKIP() << "CPU lacks AVX2: only the portable kernels ran";
  }
}

TEST(FftTest, RunTransposedIsRunBitwise) {
  constexpr int kW = 32;
  constexpr int kH = 16;
  const Fft2DPlan plan(kW, kH);
  ComplexImage direct(kW, kH);
  direct.data = RandomSignal(kW * kH, 46);
  std::vector<Complex> transposed(direct.data.size());
  Transpose(direct.data.data(), kH, kW, transposed.data());
  ComplexImage via(kW, kH);
  std::vector<Complex> scratch;
  ASSERT_TRUE(plan.Run(&direct, true, &scratch).ok());
  ASSERT_TRUE(plan.RunTransposed(transposed.data(), true, &via).ok());
  EXPECT_EQ(std::memcmp(direct.data.data(), via.data.data(),
                        direct.data.size() * sizeof(Complex)),
            0);
  ComplexImage wrong(kH, kW);
  EXPECT_FALSE(plan.RunTransposed(transposed.data(), true, &wrong).ok());
}

}  // namespace
}  // namespace vr
