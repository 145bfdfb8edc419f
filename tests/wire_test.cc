/// \file wire_test.cc
/// \brief Wire-protocol codecs and framing: round trips, validation,
/// truncation, checksums, resumable sends.

#include "service/wire.h"

#include <gtest/gtest.h>

#include "service/transport.h"

namespace vr {
namespace {

Image TestImage(int width, int height, int channels) {
  std::vector<uint8_t> pixels(
      static_cast<size_t>(width) * height * channels);
  for (size_t i = 0; i < pixels.size(); ++i) {
    pixels[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  return Image::FromData(width, height, channels, std::move(pixels)).value();
}

TEST(WireTest, QueryRequestRoundTrip) {
  ServiceRequest request;
  request.image = TestImage(17, 9, 3);
  request.k = 25;
  request.mode = QueryMode::kSingleFeature;
  request.feature = FeatureKind::kGlcm;
  request.deadline_ms = 1500;

  const std::vector<uint8_t> payload = EncodeQueryRequest(request);
  auto decoded = DecodeQueryRequest(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->k, 25u);
  EXPECT_EQ(decoded->mode, QueryMode::kSingleFeature);
  EXPECT_EQ(decoded->feature, FeatureKind::kGlcm);
  EXPECT_EQ(decoded->deadline_ms, 1500u);
  EXPECT_EQ(decoded->image.width(), 17);
  EXPECT_EQ(decoded->image.height(), 9);
  EXPECT_EQ(decoded->image.channels(), 3);
  EXPECT_EQ(decoded->image.buffer(), request.image.buffer());
}

TEST(WireTest, QueryRequestGrayscaleRoundTrip) {
  ServiceRequest request;
  request.image = TestImage(4, 4, 1);
  const std::vector<uint8_t> payload = EncodeQueryRequest(request);
  auto decoded = DecodeQueryRequest(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->image.channels(), 1);
}

TEST(WireTest, QueryRequestRejectsTruncation) {
  ServiceRequest request;
  request.image = TestImage(8, 8, 3);
  std::vector<uint8_t> payload = EncodeQueryRequest(request);
  // Chop bytes at several depths: header, pixels, everything.
  for (const size_t keep : {size_t{0}, size_t{3}, size_t{18},
                            payload.size() - 1}) {
    std::vector<uint8_t> cut(payload.begin(),
                             payload.begin() + static_cast<ptrdiff_t>(keep));
    EXPECT_FALSE(DecodeQueryRequest(cut).ok()) << "keep=" << keep;
  }
  // Trailing garbage is rejected too.
  payload.push_back(0xEE);
  EXPECT_FALSE(DecodeQueryRequest(payload).ok());
}

TEST(WireTest, QueryRequestRejectsBadEnums) {
  ServiceRequest request;
  request.image = TestImage(4, 4, 3);
  std::vector<uint8_t> payload = EncodeQueryRequest(request);
  // The mode and feature bytes sit right after the u64 request id.
  std::vector<uint8_t> bad_mode = payload;
  bad_mode[8] = 0x7F;
  EXPECT_FALSE(DecodeQueryRequest(bad_mode).ok());
  std::vector<uint8_t> bad_feature = payload;
  bad_feature[9] = static_cast<uint8_t>(kNumFeatureKinds);
  EXPECT_FALSE(DecodeQueryRequest(bad_feature).ok());
}

TEST(WireTest, QueryRequestByIdRoundTrip) {
  ServiceRequest request;
  request.mode = QueryMode::kById;
  request.frame_id = -7;  // ids are i64 on the wire; sign must survive
  request.k = 5;
  request.deadline_ms = 250;
  request.request_id = 99;

  const std::vector<uint8_t> payload = EncodeQueryRequest(request);
  // No pixels cross the wire: header + one i64.
  EXPECT_EQ(payload.size(), 8u + 1 + 1 + 4 + 8 + 8);
  auto decoded = DecodeQueryRequest(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->mode, QueryMode::kById);
  EXPECT_EQ(decoded->frame_id, -7);
  EXPECT_EQ(decoded->k, 5u);
  EXPECT_EQ(decoded->deadline_ms, 250u);
  EXPECT_EQ(decoded->request_id, 99u);
  EXPECT_TRUE(decoded->image.empty());
}

TEST(WireTest, QueryRequestByIdRejectsTruncationAndTrailingBytes) {
  ServiceRequest request;
  request.mode = QueryMode::kById;
  request.frame_id = 42;
  std::vector<uint8_t> payload = EncodeQueryRequest(request);
  std::vector<uint8_t> cut(payload.begin(), payload.end() - 1);
  EXPECT_FALSE(DecodeQueryRequest(cut).ok());
  payload.push_back(0xEE);
  EXPECT_FALSE(DecodeQueryRequest(payload).ok());
}

TEST(WireTest, QueryResponseRoundTrip) {
  ServiceResponse response;
  response.status = Status::OK();
  response.stats.candidates = 42;
  response.stats.total = 117;
  for (int i = 0; i < 3; ++i) {
    QueryResult r;
    r.i_id = 100 + i;
    r.v_id = 10 + i;
    r.score = 0.25 * i;
    response.results.push_back(r);
  }

  auto decoded = DecodeQueryResponse(EncodeQueryResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->status.ok());
  EXPECT_EQ(decoded->stats.candidates, 42u);
  EXPECT_EQ(decoded->stats.total, 117u);
  ASSERT_EQ(decoded->results.size(), 3u);
  EXPECT_EQ(decoded->results[2].i_id, 102);
  EXPECT_EQ(decoded->results[2].v_id, 12);
  EXPECT_DOUBLE_EQ(decoded->results[2].score, 0.5);
}

TEST(WireTest, QueryResponseCarriesErrorStatus) {
  ServiceResponse response;
  response.status = Status::DeadlineExceeded("too slow");
  auto decoded = DecodeQueryResponse(EncodeQueryResponse(response));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->status.IsDeadlineExceeded());
  EXPECT_EQ(decoded->status.message(), "too slow");
  EXPECT_TRUE(decoded->results.empty());
}

TEST(WireTest, QueryResponseRejectsTruncation) {
  ServiceResponse response;
  QueryResult r;
  r.i_id = 1;
  response.results.push_back(r);
  std::vector<uint8_t> payload = EncodeQueryResponse(response);
  payload.pop_back();
  EXPECT_FALSE(DecodeQueryResponse(payload).ok());
}

TEST(WireTest, StatsResponseRoundTrip) {
  ServiceStatsSnapshot stats;
  stats.received = 10;
  stats.served = 7;
  stats.rejected = 2;
  stats.expired = 1;
  stats.failed = 0;
  stats.in_flight = 3;
  stats.latency_count = 7;
  stats.p50_ms = 1.5;
  stats.p95_ms = 9.0;
  stats.p99_ms = 20.25;
  stats.pager.fetches = 1000;
  stats.pager.hits = 900;
  stats.pager.misses = 100;
  stats.pager.evictions = 5;
  stats.pager.checksum_failures = 0;
  stats.ingest.videos_ingested = 4;
  stats.ingest.frames_decoded = 480;
  stats.ingest.keyframes_kept = 36;
  stats.ingest.decode_ms = 120.5;
  stats.ingest.extract_ms = 900.25;
  stats.ingest.commit_ms = 14.0;
  stats.ingest.extractor_ms[0] = 33.5;
  stats.ingest.extractor_ms[kNumFeatureKinds - 1] = 7.75;
  stats.query.image_queries = 42;
  stats.query.video_queries = 6;
  stats.query.sharded_ranks = 5;
  stats.query.candidates_scored = 1200;
  stats.query.candidates_total = 4800;
  stats.query.id_queries = 9;
  stats.query.cache_hits = 31;
  stats.query.cache_misses = 11;
  stats.query.two_stage_queries = 7;
  stats.query.coarse_candidates = 280;
  stats.query.two_stage_fallbacks = 3;
  stats.query.margin_kept = 17;
  stats.query.extract_ms = 75.5;
  stats.query.select_ms = 0.25;
  stats.query.rank_ms = 31.0;

  auto decoded = DecodeStatsResponse(EncodeStatsResponse(stats));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->received, 10u);
  EXPECT_EQ(decoded->served, 7u);
  EXPECT_EQ(decoded->rejected, 2u);
  EXPECT_EQ(decoded->expired, 1u);
  EXPECT_EQ(decoded->in_flight, 3u);
  EXPECT_DOUBLE_EQ(decoded->p99_ms, 20.25);
  EXPECT_EQ(decoded->pager.hits, 900u);
  EXPECT_EQ(decoded->pager.evictions, 5u);
  EXPECT_EQ(decoded->ingest.videos_ingested, 4u);
  EXPECT_EQ(decoded->ingest.frames_decoded, 480u);
  EXPECT_EQ(decoded->ingest.keyframes_kept, 36u);
  EXPECT_DOUBLE_EQ(decoded->ingest.decode_ms, 120.5);
  EXPECT_DOUBLE_EQ(decoded->ingest.extract_ms, 900.25);
  EXPECT_DOUBLE_EQ(decoded->ingest.commit_ms, 14.0);
  EXPECT_DOUBLE_EQ(decoded->ingest.extractor_ms[0], 33.5);
  EXPECT_DOUBLE_EQ(decoded->ingest.extractor_ms[kNumFeatureKinds - 1], 7.75);
  EXPECT_EQ(decoded->query.image_queries, 42u);
  EXPECT_EQ(decoded->query.video_queries, 6u);
  EXPECT_EQ(decoded->query.sharded_ranks, 5u);
  EXPECT_EQ(decoded->query.candidates_scored, 1200u);
  EXPECT_EQ(decoded->query.candidates_total, 4800u);
  EXPECT_EQ(decoded->query.id_queries, 9u);
  EXPECT_EQ(decoded->query.cache_hits, 31u);
  EXPECT_EQ(decoded->query.cache_misses, 11u);
  EXPECT_EQ(decoded->query.two_stage_queries, 7u);
  EXPECT_EQ(decoded->query.coarse_candidates, 280u);
  EXPECT_EQ(decoded->query.two_stage_fallbacks, 3u);
  EXPECT_EQ(decoded->query.margin_kept, 17u);
  EXPECT_DOUBLE_EQ(decoded->query.extract_ms, 75.5);
  EXPECT_DOUBLE_EQ(decoded->query.select_ms, 0.25);
  EXPECT_DOUBLE_EQ(decoded->query.rank_ms, 31.0);
}

TEST(WireTest, StatsResponseRejectsPayloadWithoutTwoStageTail) {
  ServiceStatsSnapshot stats;
  stats.query.two_stage_queries = 7;
  stats.query.two_stage_fallbacks = 3;
  stats.query.margin_kept = 17;
  const std::vector<uint8_t> full = EncodeStatsResponse(stats);
  ASSERT_TRUE(DecodeStatsResponse(full).ok());
  // A payload that ends before the 16-byte (fallbacks, margin_kept)
  // pair, or halfway through it: the layout has no optional tail, so
  // both cuts are corruption.
  for (size_t cut : {8, 16}) {
    std::vector<uint8_t> payload(full.begin(), full.end() - cut);
    Result<ServiceStatsSnapshot> decoded = DecodeStatsResponse(payload);
    ASSERT_FALSE(decoded.ok()) << "cut " << cut;
    EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status();
  }
}

TEST(WireTest, StatsResponseRejectsTruncation) {
  ServiceStatsSnapshot stats;
  stats.query.two_stage_queries = 7;
  const std::vector<uint8_t> full = EncodeStatsResponse(stats);
  ASSERT_TRUE(DecodeStatsResponse(full).ok());
  {
    std::vector<uint8_t> payload(full.begin(), full.end() - 1);
    Result<ServiceStatsSnapshot> decoded = DecodeStatsResponse(payload);
    ASSERT_FALSE(decoded.ok());
    EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status();
  }
  // An extractor count other than kNumFeatureKinds is corruption even
  // when the payload length matches the count.
  const size_t count_offset = 1 + 8 * 8 + 3 * 8 + 5 * 8 + 3 * 8 + 3 * 8;
  ASSERT_EQ(full[count_offset], kNumFeatureKinds);
  std::vector<uint8_t> fewer = full;
  fewer[count_offset] -= 1;
  fewer.erase(fewer.begin() + count_offset + 4,
              fewer.begin() + count_offset + 12);
  std::vector<uint8_t> more = full;
  more[count_offset] += 1;
  more.insert(more.begin() + count_offset + 4, 8, 0);
  for (const std::vector<uint8_t>& payload : {fewer, more}) {
    Result<ServiceStatsSnapshot> decoded = DecodeStatsResponse(payload);
    ASSERT_FALSE(decoded.ok()) << "payload of " << payload.size() << " bytes";
    EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status();
  }
}

TEST(WireTest, StatsResponseCarriesDegradedCounter) {
  ServiceStatsSnapshot stats;
  stats.served = 5;
  stats.degraded = 3;
  auto decoded = DecodeStatsResponse(EncodeStatsResponse(stats));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->served, 5u);
  EXPECT_EQ(decoded->degraded, 3u);
}

TEST(WireTest, QueryRoundTripCarriesRequestId) {
  ServiceRequest request;
  request.image = TestImage(4, 4, 3);
  request.request_id = 0xDEADBEEFCAFEF00DULL;
  auto decoded_req = DecodeQueryRequest(EncodeQueryRequest(request));
  ASSERT_TRUE(decoded_req.ok());
  EXPECT_EQ(decoded_req->request_id, 0xDEADBEEFCAFEF00DULL);

  ServiceResponse response;
  response.request_id = 77;
  response.status = Status::PartialResult("degraded store: KEY_FRAMES");
  QueryResult r;
  r.i_id = 5;
  response.results.push_back(r);
  auto decoded_resp = DecodeQueryResponse(EncodeQueryResponse(response));
  ASSERT_TRUE(decoded_resp.ok());
  EXPECT_EQ(decoded_resp->request_id, 77u);
  EXPECT_TRUE(decoded_resp->status.IsPartialResult());
  ASSERT_EQ(decoded_resp->results.size(), 1u);
}

TEST(WireTest, QueryResponseRejectsUnknownStatusCode) {
  ServiceResponse response;
  std::vector<uint8_t> payload = EncodeQueryResponse(response);
  payload[8] = kMaxStatusCode + 1;  // status code after the request id
  EXPECT_FALSE(DecodeQueryResponse(payload).ok());
}

TEST(WireTest, ErrorResponseRoundTrip) {
  const Status original = Status::Unavailable("connection limit reached");
  Status decoded;
  ASSERT_TRUE(DecodeErrorResponse(EncodeErrorResponse(original), &decoded)
                  .ok());
  EXPECT_TRUE(decoded.IsUnavailable());
  EXPECT_EQ(decoded.message(), "connection limit reached");
}

TEST(WireTest, ErrorResponseRejectsGarbage) {
  Status decoded;
  EXPECT_FALSE(DecodeErrorResponse({}, &decoded).ok());
  // An OK code in an error frame is nonsense.
  std::vector<uint8_t> ok_code = EncodeErrorResponse(Status::IOError("x"));
  ok_code[0] = 0;
  EXPECT_FALSE(DecodeErrorResponse(ok_code, &decoded).ok());
  std::vector<uint8_t> bad_code = EncodeErrorResponse(Status::IOError("x"));
  bad_code[0] = kMaxStatusCode + 1;
  EXPECT_FALSE(DecodeErrorResponse(bad_code, &decoded).ok());
}

// ---------------------------------------------------------------------------
// Framing over a Transport.

std::vector<uint8_t> SamplePayload() {
  std::vector<uint8_t> payload;
  for (int i = 0; i < 64; ++i) payload.push_back(static_cast<uint8_t>(i * 7));
  return payload;
}

TEST(WireFrameTest, FrameRoundTripOverTransport) {
  BufferTransport out;
  ASSERT_TRUE(
      SendFrame(&out, MessageType::kQueryResponse, SamplePayload()).ok());

  BufferTransport in(out.sent());
  auto frame = RecvFrame(&in);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, MessageType::kQueryResponse);
  EXPECT_EQ(frame->payload, SamplePayload());
}

TEST(WireFrameTest, FrameSurvivesShortReads) {
  BufferTransport out;
  ASSERT_TRUE(SendFrame(&out, MessageType::kStatsRequest, {}).ok());
  BufferTransport in(out.sent());
  in.set_recv_chunk(1);  // one byte per Recv
  auto frame = RecvFrame(&in);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, MessageType::kStatsRequest);
}

TEST(WireFrameTest, EveryBitFlipIsRejected) {
  BufferTransport out;
  std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  ASSERT_TRUE(SendFrame(&out, MessageType::kQueryRequest, payload).ok());
  const std::vector<uint8_t>& wire = out.sent();
  for (size_t bit = 0; bit < wire.size() * 8; ++bit) {
    std::vector<uint8_t> flipped = wire;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    BufferTransport in(flipped);
    auto frame = RecvFrame(&in);
    if (!frame.ok()) continue;  // typed rejection: good
    ADD_FAILURE() << "bit flip at " << bit << " produced an accepted frame";
  }
}

TEST(WireFrameTest, UncheckedFrameIsRejected) {
  // Both marker bits clear and no checksum word: the pre-checksum frame
  // layout, which no peer may send.
  std::vector<uint8_t> payload = {9, 8, 7};
  std::vector<uint8_t> wire;
  wire.push_back(static_cast<uint8_t>(payload.size()));
  wire.push_back(0);
  wire.push_back(0);
  wire.push_back(0);
  wire.push_back(static_cast<uint8_t>(MessageType::kQueryRequest));
  wire.insert(wire.end(), payload.begin(), payload.end());
  BufferTransport in(wire);
  auto frame = RecvFrame(&in);
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(frame.status().IsCorruption()) << frame.status();
}

TEST(WireFrameTest, OversizedLengthRejectedWithoutAllocation) {
  std::vector<uint8_t> wire = {0xFF, 0xFF, 0xFF, 0xFF,
                               static_cast<uint8_t>(MessageType::kQueryRequest)};
  BufferTransport in(wire);
  auto frame = RecvFrame(&in);
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(frame.status().IsCorruption());
}

TEST(WireFrameTest, EofAtBoundaryVsMidFrame) {
  BufferTransport empty;
  auto at_boundary = RecvFrame(&empty);
  ASSERT_FALSE(at_boundary.ok());
  EXPECT_EQ(at_boundary.status().message(), "connection closed");

  BufferTransport out;
  ASSERT_TRUE(SendFrame(&out, MessageType::kStatsRequest, {1, 2, 3}).ok());
  std::vector<uint8_t> torn(out.sent().begin(), out.sent().end() - 2);
  BufferTransport in(torn);
  auto mid_frame = RecvFrame(&in);
  ASSERT_FALSE(mid_frame.ok());
  EXPECT_EQ(mid_frame.status().message(), "connection closed mid-frame");
}

TEST(WireFrameTest, FrameSenderResumesAfterDeadline) {
  const std::vector<uint8_t> payload = SamplePayload();
  BufferTransport out;
  out.set_send_limit(10);  // stall after 10 bytes
  FrameSender sender(MessageType::kQueryResponse, payload);

  Status first = sender.Resume(&out, kNoDeadline);
  ASSERT_TRUE(first.IsDeadlineExceeded()) << first.ToString();
  EXPECT_FALSE(sender.done());
  EXPECT_EQ(sender.bytes_sent(), 10u);

  // The peer drains; the frame resumes exactly where it stopped.
  out.set_send_limit(SIZE_MAX);
  ASSERT_TRUE(sender.Resume(&out, kNoDeadline).ok());
  EXPECT_TRUE(sender.done());

  BufferTransport in(out.sent());
  auto frame = RecvFrame(&in);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->payload, payload);
}

}  // namespace
}  // namespace vr
