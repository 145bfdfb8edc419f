/// \file golden_features.h
/// \brief The golden-feature fixture: a fixed synthetic frame set, the
/// extractor configurations run over it, and a loader for
/// tests/data/golden_features.txt, which stores their expected output.
///
/// Each fixture line is "<frame> <label> <FeatureVector::ToString()>".
/// ToString round-trips doubles exactly, so a comparison against the
/// fixture is bitwise. The values were produced by the standalone
/// per-extractor implementations that predate the fused ExtractShared
/// paths, so the fixture pins the numbers every stored feature column
/// was built with; the Gabor rows were re-recorded for the bank's
/// second definition, and tests/data/gabor_v1.txt keeps the first,
/// which the second must track within the tolerance the fixture header
/// states (GaborTolerance). Shared by tests/extraction_plan_test.cc,
/// gabor_test, golden_distances_test and the `micro_features --smoke`
/// gate.

#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "features/color_histogram.h"
#include "features/extractor_registry.h"
#include "imaging/draw.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace vr::golden {

/// One fixture frame.
struct Frame {
  std::string name;
  Image image;
};

inline Image NoiseImage(int w, int h, int channels, uint64_t seed) {
  Image img(w, h, channels);
  Rng rng(seed);
  AddGaussianNoise(&img, 600.0, &rng);  // large stddev: full byte range
  return img;
}

/// The frame set: query and corpus geometries, odd dimensions, a
/// single-channel frame, smooth and periodic content, and one frame
/// over 256 px so the correlogram and Tamura downscale paths run.
inline std::vector<Frame> Frames() {
  std::vector<Frame> frames;
  frames.push_back({"noise_120x90", NoiseImage(120, 90, 3, 1)});
  frames.push_back({"noise_64x48", NoiseImage(64, 48, 3, 2)});
  frames.push_back({"noise_61x47", NoiseImage(61, 47, 3, 3)});
  frames.push_back({"gray_64x64", NoiseImage(64, 64, 1, 4)});
  Image gradient(80, 50, 3);
  FillVerticalGradient(&gradient, {10, 40, 200}, {250, 120, 0});
  frames.push_back({"gradient_80x50", gradient});
  Image stripes(96, 72, 3);
  DrawStripes(&stripes, 8, 30.0, {20, 20, 20}, {240, 200, 60});
  frames.push_back({"stripes_96x72", stripes});
  frames.push_back({"noise_320x240", NoiseImage(320, 240, 3, 5)});
  return frames;
}

/// One extractor configuration; \p label names it in the fixture.
struct Case {
  std::string label;
  std::unique_ptr<FeatureExtractor> extractor;
};

/// Extractor sets, each meant to run through one ExtractionPlan (a
/// plan keys its output by FeatureKind, so the non-default histogram
/// spaces each get a set of their own). Set 0 is every registered
/// kind at its default options.
inline std::vector<std::vector<Case>> ExtractorSets() {
  std::vector<std::vector<Case>> sets(1);
  for (auto& extractor : MakeAllExtractors()) {
    std::string label = extractor->name();
    sets[0].push_back({std::move(label), std::move(extractor)});
  }
  sets.emplace_back().push_back(
      {"histogram_gray256",
       std::make_unique<SimpleColorHistogram>(HistogramSpace::kGray256)});
  sets.emplace_back().push_back(
      {"histogram_hsv256",
       std::make_unique<SimpleColorHistogram>(HistogramSpace::kHsv256)});
  return sets;
}

/// The extractors of one set, in order, for an ExtractionPlan.
inline std::vector<const FeatureExtractor*> Extractors(
    const std::vector<Case>& set) {
  std::vector<const FeatureExtractor*> raw;
  for (const Case& c : set) raw.push_back(c.extractor.get());
  return raw;
}

/// Fixture key of one (frame, configuration) pair.
inline std::string Key(const std::string& frame, const std::string& label) {
  return frame + " " + label;
}

/// Parses the fixture at \p path into Key -> expected vector. Blank
/// lines and lines starting with '#' are skipped.
inline Result<std::map<std::string, FeatureVector>> LoadFixture(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open golden fixture " + path);
  std::map<std::string, FeatureVector> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t frame_end = line.find(' ');
    const size_t label_end = frame_end == std::string::npos
                                 ? frame_end
                                 : line.find(' ', frame_end + 1);
    if (label_end == std::string::npos) {
      return Status::Corruption("malformed golden fixture line: " + line);
    }
    VR_ASSIGN_OR_RETURN(FeatureVector fv,
                        FeatureVector::FromString(line.substr(label_end + 1)));
    out.emplace(line.substr(0, label_end), std::move(fv));
  }
  return out;
}

/// The relative tolerance between the current Gabor bank and the
/// gabor_v1 reference, from the fixture's "# gabor_v1 tolerance: <eps>"
/// header line at \p path.
inline Result<double> GaborTolerance(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open golden fixture " + path);
  const std::string tag = "# gabor_v1 tolerance: ";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(tag, 0) == 0) {
      return std::strtod(line.c_str() + tag.size(), nullptr);
    }
  }
  return Status::Corruption("no gabor_v1 tolerance line in " + path);
}

/// Empty when \p got reproduces \p want bit for bit, else a description
/// of the first difference.
inline std::string Mismatch(const FeatureVector& want,
                            const FeatureVector& got) {
  if (want.type() != got.type() || want.size() != got.size()) {
    return StringPrintf("shape %s/%zu, expected %s/%zu", got.type().c_str(),
                        got.size(), want.type().c_str(), want.size());
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (std::memcmp(&want.values()[i], &got.values()[i], sizeof(double)) != 0) {
      return StringPrintf("dim %zu: %s, expected %s", i,
                          FormatDouble(got[i]).c_str(),
                          FormatDouble(want[i]).c_str());
    }
  }
  return "";
}

}  // namespace vr::golden
