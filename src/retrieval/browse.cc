#include "retrieval/browse.h"

#include "imaging/color.h"
#include "imaging/draw.h"
#include "imaging/ppm.h"
#include "imaging/resize.h"

namespace vr {

Result<Image> RenderContactSheet(const std::vector<Image>& thumbnails,
                                 const ContactSheetOptions& options) {
  if (thumbnails.empty()) {
    return Status::InvalidArgument("no thumbnails to render");
  }
  if (options.columns <= 0 || options.thumb_width <= 0 ||
      options.thumb_height <= 0 || options.padding < 0) {
    return Status::InvalidArgument("bad contact sheet layout");
  }
  const int cols =
      std::min<int>(options.columns, static_cast<int>(thumbnails.size()));
  const int rows =
      (static_cast<int>(thumbnails.size()) + cols - 1) / cols;
  const int cell_w = options.thumb_width + options.padding;
  const int cell_h = options.thumb_height + options.padding;
  Image sheet(options.padding + cols * cell_w,
              options.padding + rows * cell_h, 3);
  sheet.Fill(options.background);

  for (size_t i = 0; i < thumbnails.size(); ++i) {
    const int col = static_cast<int>(i) % cols;
    const int row = static_cast<int>(i) / cols;
    const int x0 = options.padding + col * cell_w;
    const int y0 = options.padding + row * cell_h;
    // Border frame, then the resized thumbnail inside it.
    FillRect(&sheet, x0 - 1, y0 - 1, options.thumb_width + 2,
             options.thumb_height + 2, options.border);
    const Image thumb = Resize(ToRgb(thumbnails[i]), options.thumb_width,
                               options.thumb_height);
    for (int y = 0; y < thumb.height(); ++y) {
      for (int x = 0; x < thumb.width(); ++x) {
        sheet.SetPixel(x0 + x, y0 + y, thumb.PixelRgb(x, y));
      }
    }
  }
  return sheet;
}

Result<Image> RenderResultSheet(RetrievalEngine* engine,
                                const std::vector<QueryResult>& results,
                                const ContactSheetOptions& options) {
  std::vector<Image> thumbnails;
  thumbnails.reserve(results.size());
  for (const QueryResult& r : results) {
    VR_ASSIGN_OR_RETURN(KeyFrameRecord record,
                        engine->store()->GetKeyFrame(r.i_id));
    VR_ASSIGN_OR_RETURN(
        Image img,
        DecodePnm(std::string(record.image.begin(), record.image.end())));
    thumbnails.push_back(std::move(img));
  }
  return RenderContactSheet(thumbnails, options);
}

}  // namespace vr
