#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>

#include "util/rng.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace vr {
namespace {

TEST(SplitTest, BasicAndEmptyTokens) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("a,,c", ',', true), (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(SplitWhitespaceTest, CollapsesRuns) {
  EXPECT_EQ(SplitWhitespace("  a \t b\n c  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(JoinTest, RoundTripsWithSplit) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Split(Join(parts, "|"), '|'), parts);
}

TEST(TrimTest, RemovesEdges) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StartsEndsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foo", "foobar"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("bar", "foobar"));
}

TEST(ParseInt64Test, ValidAndInvalid) {
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64(" -7 ").value(), -7);
  EXPECT_FALSE(ParseInt64("4x2").ok());
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("3.14").ok());
}

TEST(ParseDoubleTest, ValidAndInvalid) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e3").value(), -1000.0);
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

TEST(FormatDoubleTest, RoundTrips) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (double v : {0.0, 1.0, -3.25, 0.1, 1e-9, 12345678.9,
                   2.274446602930954e-4, -0.0, 5e-324, DBL_MAX, kInf, -kInf}) {
    const std::string s = FormatDouble(v);
    Result<double> parsed = ParseDouble(s);
    ASSERT_TRUE(parsed.ok()) << s << ": " << parsed.status();
    EXPECT_EQ(std::bit_cast<uint64_t>(*parsed), std::bit_cast<uint64_t>(v))
        << s;
  }
  const std::string nan = FormatDouble(std::numeric_limits<double>::quiet_NaN());
  Result<double> parsed = ParseDouble(nan);
  ASSERT_TRUE(parsed.ok()) << nan << ": " << parsed.status();
  EXPECT_TRUE(std::isnan(*parsed)) << nan;
}

TEST(FormatDoubleTest, ShortestSpellings) {
  EXPECT_EQ(FormatDouble(0.1), "0.1");
  EXPECT_EQ(FormatDouble(1.0), "1");
}

TEST(StringPrintfTest, FormatsLikePrintf) {
  EXPECT_EQ(StringPrintf("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StringPrintf("%.2f", 1.005), "1.00");
}

TEST(HumanBytesTest, PicksUnits) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KiB");
  EXPECT_EQ(HumanBytes(3u << 20), "3.0 MiB");
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 11u);  // all values hit over 1000 draws
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GaussianHasRoughlyUnitVariance) {
  Rng rng(5);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Gaussian();
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(6);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(7);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer-name", "2"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| name "), std::string::npos);
  EXPECT_NE(s.find("| longer-name "), std::string::npos);
  // All lines the same width.
  size_t width = 0;
  for (const std::string& line : Split(s, '\n', true)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
}

TEST(TablePrinterTest, DoubleRowsUsePrecision) {
  TablePrinter t({"m", "a", "b"});
  t.AddRow("row", {0.123456, 0.5}, 3);
  EXPECT_NE(t.ToString().find("0.123"), std::string::npos);
  EXPECT_NE(t.ToString().find("0.500"), std::string::npos);
}

}  // namespace
}  // namespace vr
