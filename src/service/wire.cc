#include "service/wire.h"

#include <algorithm>

#include "util/byte_io.h"

namespace vr {

namespace {

/// Frame marker: both high bits of the type byte. Every frame carries
/// it; any other value of the two bits is corruption. Two bits (not
/// one) so no single bit flip can produce a well-formed marker.
constexpr uint8_t kChecksumMarker = 0xC0;

Status Truncated(const char* what) {
  return Status::Corruption(std::string("truncated wire message: ") + what);
}

/// Decodes a transported status code, rejecting values this build does
/// not know (a corrupt or incompatible frame, not a new error class).
Status DecodeStatusField(uint8_t code, std::vector<uint8_t> msg) {
  return Status(static_cast<StatusCode>(code),
                std::string(msg.begin(), msg.end()));
}

bool ValidStatusCode(uint8_t code) { return code <= kMaxStatusCode; }

}  // namespace

uint32_t FrameChecksum(MessageType type, const uint8_t* payload, size_t len) {
  uint64_t h = 0xCBF29CE484222325ULL;
  h ^= static_cast<uint8_t>(type);
  h *= 0x100000001B3ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= payload[i];
    h *= 0x100000001B3ULL;
  }
  return static_cast<uint32_t>(h ^ (h >> 32));
}

std::vector<uint8_t> EncodeQueryRequest(const ServiceRequest& request) {
  std::vector<uint8_t> out;
  out.reserve(40 + request.image.SizeBytes());
  PutU64(&out, request.request_id);
  PutU8(&out, static_cast<uint8_t>(request.mode));
  PutU8(&out, static_cast<uint8_t>(request.feature));
  PutU32(&out, static_cast<uint32_t>(request.k));
  PutU64(&out, request.deadline_ms);
  if (request.mode == QueryMode::kById) {
    // By-id queries ship the stored frame id in place of the image.
    PutI64(&out, request.frame_id);
    return out;
  }
  PutU16(&out, static_cast<uint16_t>(request.image.width()));
  PutU16(&out, static_cast<uint16_t>(request.image.height()));
  PutU8(&out, static_cast<uint8_t>(request.image.channels()));
  PutBytes(&out, request.image.data(), request.image.SizeBytes());
  return out;
}

Result<ServiceRequest> DecodeQueryRequest(
    const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  ServiceRequest request;
  uint8_t mode = 0;
  uint8_t feature = 0;
  uint32_t k = 0;
  uint16_t width = 0;
  uint16_t height = 0;
  uint8_t channels = 0;
  if (!reader.ReadU64(&request.request_id) || !reader.ReadU8(&mode) ||
      !reader.ReadU8(&feature) || !reader.ReadU32(&k) ||
      !reader.ReadU64(&request.deadline_ms)) {
    return Truncated("query request header");
  }
  if (mode > static_cast<uint8_t>(QueryMode::kById)) {
    return Status::InvalidArgument("unknown query mode on wire");
  }
  if (feature >= kNumFeatureKinds) {
    return Status::InvalidArgument("unknown feature kind on wire");
  }
  request.mode = static_cast<QueryMode>(mode);
  request.feature = static_cast<FeatureKind>(feature);
  request.k = k;
  if (request.mode == QueryMode::kById) {
    if (!reader.ReadI64(&request.frame_id) || !reader.AtEnd()) {
      return Truncated("query request frame id");
    }
    return request;
  }
  if (!reader.ReadU16(&width) || !reader.ReadU16(&height) ||
      !reader.ReadU8(&channels)) {
    return Truncated("query request header");
  }
  if (channels != 1 && channels != 3) {
    return Status::InvalidArgument("wire image must have 1 or 3 channels");
  }
  const size_t pixel_bytes = static_cast<size_t>(width) * height * channels;
  std::vector<uint8_t> pixels;
  if (!reader.ReadBytes(&pixels, pixel_bytes) || !reader.AtEnd()) {
    return Truncated("query request pixels");
  }
  VR_ASSIGN_OR_RETURN(request.image,
                      Image::FromData(width, height, channels,
                                      std::move(pixels)));
  return request;
}

std::vector<uint8_t> EncodeQueryResponse(const ServiceResponse& response) {
  std::vector<uint8_t> out;
  PutU64(&out, response.request_id);
  PutU8(&out, static_cast<uint8_t>(response.status.code()));
  const std::string& msg = response.status.message();
  PutU32(&out, static_cast<uint32_t>(msg.size()));
  PutBytes(&out, msg.data(), msg.size());
  PutU64(&out, response.stats.candidates);
  PutU64(&out, response.stats.total);
  PutU32(&out, static_cast<uint32_t>(response.results.size()));
  for (const QueryResult& r : response.results) {
    PutI64(&out, r.i_id);
    PutI64(&out, r.v_id);
    PutF64(&out, r.score);
  }
  return out;
}

Result<ServiceResponse> DecodeQueryResponse(
    const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  ServiceResponse response;
  uint8_t code = 0;
  uint32_t msg_len = 0;
  if (!reader.ReadU64(&response.request_id) || !reader.ReadU8(&code) ||
      !reader.ReadU32(&msg_len)) {
    return Truncated("query response header");
  }
  if (!ValidStatusCode(code)) {
    return Status::Corruption("unknown status code on wire");
  }
  std::vector<uint8_t> msg;
  if (!reader.ReadBytes(&msg, msg_len)) {
    return Truncated("query response status message");
  }
  response.status = DecodeStatusField(code, std::move(msg));
  uint64_t candidates = 0;
  uint64_t total = 0;
  uint32_t n_results = 0;
  if (!reader.ReadU64(&candidates) || !reader.ReadU64(&total) ||
      !reader.ReadU32(&n_results)) {
    return Truncated("query response stats");
  }
  response.stats.candidates = candidates;
  response.stats.total = total;
  // Bound the reserve by what the payload can actually hold (24 bytes
  // per row) so a forged count cannot force a huge allocation.
  response.results.reserve(
      std::min<size_t>(n_results, payload.size() / 24 + 1));
  for (uint32_t i = 0; i < n_results; ++i) {
    QueryResult r;
    if (!reader.ReadI64(&r.i_id) || !reader.ReadI64(&r.v_id) ||
        !reader.ReadF64(&r.score)) {
      return Truncated("query response result row");
    }
    response.results.push_back(std::move(r));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after query response");
  }
  return response;
}

std::vector<uint8_t> EncodeStatsResponse(const ServiceStatsSnapshot& stats) {
  std::vector<uint8_t> out;
  PutU8(&out, 0);  // status code: stats snapshots always succeed
  PutU64(&out, stats.received);
  PutU64(&out, stats.served);
  PutU64(&out, stats.rejected);
  PutU64(&out, stats.expired);
  PutU64(&out, stats.failed);
  PutU64(&out, stats.degraded);
  PutU64(&out, stats.in_flight);
  PutU64(&out, stats.latency_count);
  PutF64(&out, stats.p50_ms);
  PutF64(&out, stats.p95_ms);
  PutF64(&out, stats.p99_ms);
  PutU64(&out, stats.pager.fetches);
  PutU64(&out, stats.pager.hits);
  PutU64(&out, stats.pager.misses);
  PutU64(&out, stats.pager.evictions);
  PutU64(&out, stats.pager.checksum_failures);
  PutU64(&out, stats.ingest.videos_ingested);
  PutU64(&out, stats.ingest.frames_decoded);
  PutU64(&out, stats.ingest.keyframes_kept);
  PutF64(&out, stats.ingest.decode_ms);
  PutF64(&out, stats.ingest.extract_ms);
  PutF64(&out, stats.ingest.commit_ms);
  PutU32(&out, static_cast<uint32_t>(stats.ingest.extractor_ms.size()));
  for (double ms : stats.ingest.extractor_ms) PutF64(&out, ms);
  PutU64(&out, stats.query.image_queries);
  PutU64(&out, stats.query.video_queries);
  PutU64(&out, stats.query.sharded_ranks);
  PutU64(&out, stats.query.candidates_scored);
  PutU64(&out, stats.query.candidates_total);
  PutU64(&out, stats.query.id_queries);
  PutU64(&out, stats.query.cache_hits);
  PutU64(&out, stats.query.cache_misses);
  PutU64(&out, stats.query.two_stage_queries);
  PutU64(&out, stats.query.coarse_candidates);
  PutF64(&out, stats.query.extract_ms);
  PutF64(&out, stats.query.select_ms);
  PutF64(&out, stats.query.rank_ms);
  PutU64(&out, stats.query.two_stage_fallbacks);
  PutU64(&out, stats.query.margin_kept);
  return out;
}

Result<ServiceStatsSnapshot> DecodeStatsResponse(
    const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  ServiceStatsSnapshot stats;
  uint8_t code = 0;
  if (!reader.ReadU8(&code) || !reader.ReadU64(&stats.received) ||
      !reader.ReadU64(&stats.served) || !reader.ReadU64(&stats.rejected) ||
      !reader.ReadU64(&stats.expired) || !reader.ReadU64(&stats.failed) ||
      !reader.ReadU64(&stats.degraded) ||
      !reader.ReadU64(&stats.in_flight) ||
      !reader.ReadU64(&stats.latency_count) || !reader.ReadF64(&stats.p50_ms) ||
      !reader.ReadF64(&stats.p95_ms) || !reader.ReadF64(&stats.p99_ms) ||
      !reader.ReadU64(&stats.pager.fetches) ||
      !reader.ReadU64(&stats.pager.hits) ||
      !reader.ReadU64(&stats.pager.misses) ||
      !reader.ReadU64(&stats.pager.evictions) ||
      !reader.ReadU64(&stats.pager.checksum_failures) ||
      !reader.ReadU64(&stats.ingest.videos_ingested) ||
      !reader.ReadU64(&stats.ingest.frames_decoded) ||
      !reader.ReadU64(&stats.ingest.keyframes_kept) ||
      !reader.ReadF64(&stats.ingest.decode_ms) ||
      !reader.ReadF64(&stats.ingest.extract_ms) ||
      !reader.ReadF64(&stats.ingest.commit_ms)) {
    return Truncated("stats response");
  }
  if (!ValidStatusCode(code)) {
    return Status::Corruption("unknown status code on wire");
  }
  uint32_t n_extractors = 0;
  if (!reader.ReadU32(&n_extractors)) return Truncated("stats response");
  if (n_extractors != static_cast<uint32_t>(kNumFeatureKinds)) {
    return Status::Corruption("stats response extractor count mismatch");
  }
  for (double& ms : stats.ingest.extractor_ms) {
    if (!reader.ReadF64(&ms)) return Truncated("stats response");
  }
  if (!reader.ReadU64(&stats.query.image_queries) ||
      !reader.ReadU64(&stats.query.video_queries) ||
      !reader.ReadU64(&stats.query.sharded_ranks) ||
      !reader.ReadU64(&stats.query.candidates_scored) ||
      !reader.ReadU64(&stats.query.candidates_total) ||
      !reader.ReadU64(&stats.query.id_queries) ||
      !reader.ReadU64(&stats.query.cache_hits) ||
      !reader.ReadU64(&stats.query.cache_misses) ||
      !reader.ReadU64(&stats.query.two_stage_queries) ||
      !reader.ReadU64(&stats.query.coarse_candidates) ||
      !reader.ReadF64(&stats.query.extract_ms) ||
      !reader.ReadF64(&stats.query.select_ms) ||
      !reader.ReadF64(&stats.query.rank_ms) ||
      !reader.ReadU64(&stats.query.two_stage_fallbacks) ||
      !reader.ReadU64(&stats.query.margin_kept)) {
    return Truncated("stats response");
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after stats response");
  }
  return stats;
}

std::vector<uint8_t> EncodeErrorResponse(const Status& status) {
  std::vector<uint8_t> out;
  PutU8(&out, static_cast<uint8_t>(status.code()));
  const std::string& msg = status.message();
  PutU32(&out, static_cast<uint32_t>(msg.size()));
  PutBytes(&out, msg.data(), msg.size());
  return out;
}

Status DecodeErrorResponse(const std::vector<uint8_t>& payload, Status* out) {
  ByteReader reader(payload);
  uint8_t code = 0;
  uint32_t msg_len = 0;
  if (!reader.ReadU8(&code) || !reader.ReadU32(&msg_len)) {
    return Truncated("error response header");
  }
  if (!ValidStatusCode(code) || code == 0) {
    return Status::Corruption("unknown status code on wire");
  }
  std::vector<uint8_t> msg;
  if (!reader.ReadBytes(&msg, msg_len) || !reader.AtEnd()) {
    return Truncated("error response message");
  }
  *out = DecodeStatusField(code, std::move(msg));
  return Status::OK();
}

FrameSender::FrameSender(MessageType type,
                         const std::vector<uint8_t>& payload) {
  frame_.reserve(9 + payload.size());
  PutU32(&frame_, static_cast<uint32_t>(payload.size()));
  PutU8(&frame_, static_cast<uint8_t>(type) | kChecksumMarker);
  PutU32(&frame_,
                  FrameChecksum(type, payload.data(), payload.size()));
  PutBytes(&frame_, payload.data(), payload.size());
}

Status FrameSender::Resume(Transport* transport, TransportDeadline deadline) {
  while (offset_ < frame_.size()) {
    auto sent = transport->Send(frame_.data() + offset_,
                                frame_.size() - offset_, deadline);
    if (!sent.ok()) return sent.status();
    offset_ += *sent;
  }
  return Status::OK();
}

Status SendFrame(Transport* transport, MessageType type,
                 const std::vector<uint8_t>& payload,
                 TransportDeadline deadline) {
  if (payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument("frame payload too large");
  }
  FrameSender sender(type, payload);
  return sender.Resume(transport, deadline);
}

namespace {

/// Reads exactly \p n bytes. \p any_received distinguishes EOF at a
/// frame boundary (clean close) from EOF mid-frame (torn frame).
Status RecvAll(Transport* transport, uint8_t* buf, size_t n,
               TransportDeadline deadline, bool* any_received) {
  size_t got = 0;
  while (got < n) {
    auto r = transport->Recv(buf + got, n - got, deadline);
    if (!r.ok()) return r.status();
    if (*r == 0) {
      return (got == 0 && !*any_received)
                 ? Status::IOError("connection closed")
                 : Status::IOError("connection closed mid-frame");
    }
    got += *r;
    *any_received = true;
  }
  return Status::OK();
}

}  // namespace

Result<Frame> RecvFrame(Transport* transport, TransportDeadline deadline,
                        size_t max_payload) {
  bool any = false;
  uint8_t header[5];
  VR_RETURN_NOT_OK(RecvAll(transport, header, sizeof(header), deadline, &any));
  // Fixed-size buffers: the reads below cannot run short.
  ByteReader fields(header, sizeof(header));
  uint32_t len = 0;
  uint8_t type_byte = 0;
  (void)fields.ReadU32(&len);
  (void)fields.ReadU8(&type_byte);
  // Length is validated before any payload allocation, so a forged
  // length field cannot drive an over-allocation.
  if (len > max_payload) {
    return Status::Corruption("oversized wire frame");
  }
  if ((type_byte & kChecksumMarker) != kChecksumMarker) {
    return Status::Corruption("bad frame marker bits");
  }
  const uint8_t raw_type = type_byte & static_cast<uint8_t>(~kChecksumMarker);
  if (raw_type == 0 || raw_type > kMaxMessageType) {
    return Status::Corruption("unknown wire message type");
  }

  uint8_t sum[4];
  VR_RETURN_NOT_OK(RecvAll(transport, sum, sizeof(sum), deadline, &any));
  uint32_t expected_checksum = 0;
  (void)ByteReader(sum, sizeof(sum)).ReadU32(&expected_checksum);

  Frame frame;
  frame.type = static_cast<MessageType>(raw_type);
  frame.payload.resize(len);
  if (len > 0) {
    VR_RETURN_NOT_OK(
        RecvAll(transport, frame.payload.data(), len, deadline, &any));
  }
  if (FrameChecksum(frame.type, frame.payload.data(), frame.payload.size()) !=
      expected_checksum) {
    return Status::Corruption("frame checksum mismatch");
  }
  return frame;
}

}  // namespace vr
