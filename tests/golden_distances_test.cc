// Pins every extractor's distance bit for bit against
// tests/data/golden_distances.txt (format in the file's header).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "golden_features.h"

namespace vr {
namespace {

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

TEST(GoldenDistancesTest, EveryRowBitwise) {
  auto golden = golden::LoadFixture(VR_GOLDEN_FEATURES);
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  // The Gabor rows were recorded over the bank's first definition and
  // pin the distance, not the bank: their "@<frame>" vectors are that
  // definition's, kept as gabor_v1 rows.
  auto gabor_v1 = golden::LoadFixture(VR_GABOR_V1);
  ASSERT_TRUE(gabor_v1.ok()) << gabor_v1.status().ToString();
  const auto sets = golden::ExtractorSets();
  std::map<std::string, const FeatureExtractor*> extractors;
  for (const auto& set : sets) {
    for (const auto& c : set) extractors[c.label] = c.extractor.get();
  }

  std::ifstream in(VR_GOLDEN_DISTANCES);
  ASSERT_TRUE(in) << "cannot open " << VR_GOLDEN_DISTANCES;
  std::string line;
  int line_no = 0;
  int rows = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream tokens(line);
    std::string label;
    tokens >> label;
    ASSERT_TRUE(extractors.count(label)) << "line " << line_no << ": "
                                         << label;
    // One vector: "@<frame>" or "<n> v0 ... v(n-1)".
    const auto read_vector = [&](std::vector<double>* out) {
      std::string tok;
      tokens >> tok;
      if (tok.rfind('@', 0) == 0) {
        const std::string frame = tok.substr(1);
        *out = label == "gabor"
                   ? gabor_v1->at(golden::Key(frame, "gabor_v1")).values()
                   : golden->at(golden::Key(frame, label)).values();
        return;
      }
      out->resize(std::strtoull(tok.c_str(), nullptr, 10));
      for (double& v : *out) {
        tokens >> tok;
        v = std::strtod(tok.c_str(), nullptr);
      }
    };
    std::vector<double> a;
    std::vector<double> b;
    read_vector(&a);
    read_vector(&b);
    std::string want_tok;
    tokens >> want_tok;
    ASSERT_FALSE(tokens.fail()) << "malformed line " << line_no;
    const double want = std::strtod(want_tok.c_str(), nullptr);
    const double got =
        extractors[label]->DistanceSpan(a.data(), a.size(), b.data(), b.size());
    EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
        << "line " << line_no << " (" << label << "): got " << Hex(got)
        << ", expected " << want_tok;
    ++rows;
  }
  EXPECT_GT(rows, 0);
}

}  // namespace
}  // namespace vr
