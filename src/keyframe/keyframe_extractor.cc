#include "keyframe/keyframe_extractor.h"

#include "features/plan/frame_context.h"

namespace vr {

KeyFrameExtractor::KeyFrameExtractor(KeyFrameOptions options)
    : options_(options),
      signature_(options.signature_base_size, options.signature_sample_size) {}

Result<double> KeyFrameExtractor::FrameDistance(const Image& a,
                                                const Image& b) const {
  PlanContext ctx;  // one context, so both frames share its scratch
  ctx.BeginFrame(a);
  VR_ASSIGN_OR_RETURN(FeatureVector fa, signature_.ExtractShared(a, ctx));
  ctx.BeginFrame(b);
  VR_ASSIGN_OR_RETURN(FeatureVector fb, signature_.ExtractShared(b, ctx));
  return signature_.Distance(fa, fb);
}

Result<std::vector<KeyFrame>> KeyFrameExtractor::Extract(
    const std::vector<Image>& frames) const {
  if (frames.empty()) {
    return Status::InvalidArgument("no frames to extract key frames from");
  }
  // Signatures are computed once per frame (the paper recomputes the
  // rescaled image pairwise; one pass is equivalent and O(n)), all on
  // one context so its arena and rescale buffer are reused per frame.
  PlanContext ctx;
  std::vector<FeatureVector> sigs;
  sigs.reserve(frames.size());
  for (const Image& f : frames) {
    ctx.BeginFrame(f);
    VR_ASSIGN_OR_RETURN(FeatureVector sig, signature_.ExtractShared(f, ctx));
    sigs.push_back(std::move(sig));
  }

  std::vector<KeyFrame> out;
  size_t i = 0;
  while (i < frames.size()) {
    // Frames j > i within the threshold of anchor i are "similar": the
    // paper deletes them and keeps the anchor.
    size_t j = i + 1;
    while (j < frames.size() &&
           signature_.Distance(sigs[i], sigs[j]) <= options_.threshold) {
      ++j;
    }
    KeyFrame kf;
    kf.frame_index = i;
    kf.run_length = j - i;
    kf.image = frames[i];
    out.push_back(std::move(kf));
    i = j;
  }
  return out;
}

std::vector<KeyFrame> UniformSampleKeyFrames(const std::vector<Image>& frames,
                                             size_t stride) {
  std::vector<KeyFrame> out;
  if (frames.empty()) return out;
  if (stride == 0) stride = 1;
  for (size_t i = 0; i < frames.size(); i += stride) {
    KeyFrame kf;
    kf.frame_index = i;
    kf.run_length = std::min(stride, frames.size() - i);
    kf.image = frames[i];
    out.push_back(std::move(kf));
  }
  return out;
}

}  // namespace vr
