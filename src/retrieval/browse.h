/// \file browse.h
/// \brief Result browsing: thumbnail contact sheets (paper Figure 9).
///
/// The paper's UI shows result pages of 20-30 thumbnails. This module
/// renders the equivalent artifact offline: a grid image of the top-k
/// key frames of a query, ready to be written as a PPM.

#pragma once

#include <vector>

#include "imaging/image.h"
#include "retrieval/engine.h"

namespace vr {

/// Layout of a contact sheet.
struct ContactSheetOptions {
  int columns = 5;
  int thumb_width = 120;
  int thumb_height = 90;
  int padding = 6;
  Rgb background{24, 24, 28};
  /// Border drawn around each thumbnail.
  Rgb border{200, 200, 210};
};

/// Renders thumbnails into a grid; input images are resized to the
/// thumbnail size. Empty input is InvalidArgument.
Result<Image> RenderContactSheet(const std::vector<Image>& thumbnails,
                                 const ContactSheetOptions& options = {});

/// Fetches the key-frame images of \p results from the engine's store
/// (PNM blobs) and renders them as a contact sheet in rank order. A blob
/// that is not PNM fails the call with the decoder's Status.
Result<Image> RenderResultSheet(RetrievalEngine* engine,
                                const std::vector<QueryResult>& results,
                                const ContactSheetOptions& options = {});

}  // namespace vr
