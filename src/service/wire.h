/// \file wire.h
/// \brief Length-prefixed, checksummed binary wire protocol for
/// VrServer/VrClient.
///
/// Frame layout (all integers little-endian, written and read through
/// util/byte_io.h):
///
///   u32 payload_length | u8 type_byte | u32 checksum | payload bytes
///
/// The type byte packs the MessageType in its low 6 bits; the two high
/// bits are the frame marker and must both be set (0xC0). Any other
/// marker value is kCorruption — two bits, so no single bit flip can
/// produce a valid marker. The u32 frame checksum (a folded 64-bit
/// FNV-1a over the message type then the payload) is verified on every
/// frame; a mismatch is kCorruption, never a silently-accepted frame.
/// There is one frame format and no unchecksummed variant.
///
/// Message payloads:
///   kQueryRequest:   u64 request_id | u8 mode | u8 feature | u32 k |
///                    u64 deadline_ms | body by mode:
///                      mode 0/1 (image): u16 width | u16 height |
///                        u8 channels | width*height*channels pixel bytes
///                      mode 2 (by stored id): i64 frame_id (no image)
///   kQueryResponse:  u64 request_id | u8 status_code | u32 msg_len |
///                    msg bytes | u64 candidates | u64 total |
///                    u32 n_results | n * (i64 i_id | i64 v_id | f64 score)
///   kStatsRequest:   (empty)
///   kStatsResponse:  u8 status_code=0 | 7 * u64 counters (received,
///                    served, rejected, expired, failed, degraded,
///                    in_flight) |
///                    u64 latency_count | 3 * f64 (p50, p95, p99 ms) |
///                    5 * u64 pager stats (fetches, hits, misses,
///                    evictions, checksum_failures) |
///                    3 * u64 ingest counters (videos_ingested,
///                    frames_decoded, keyframes_kept) |
///                    3 * f64 ingest times (decode, extract, commit ms) |
///                    u32 n_extractors | n * f64 per-extractor ms
///                    (FeatureKind enum order) |
///                    10 * u64 query counters (image_queries,
///                    video_queries, sharded_ranks, candidates_scored,
///                    candidates_total, id_queries, cache_hits,
///                    cache_misses, two_stage_queries,
///                    coarse_candidates) |
///                    3 * f64 query times (extract, select, rank ms) |
///                    2 * u64 (two_stage_fallbacks, margin_kept)
///                    One fixed layout: n_extractors must equal
///                    kNumFeatureKinds, and a short, long or
///                    miscounted payload is kCorruption.
///   kShutdownRequest: (empty)
///   kShutdownResponse: u8 status_code=0
///   kErrorResponse:  u8 status_code | u32 msg_len | msg bytes
///                    (a typed transport-level rejection — oversized
///                    frame, draining server, connection cap, unknown
///                    message type — sent in place of the RPC-specific
///                    response)
///
/// A query response with status kPartialResult carries ranked results
/// like an OK response; the status message summarizes the quarantined
/// tables (the degraded-read contract in DESIGN.md).
///
/// Per-feature distances of QueryResult are not shipped — the wire
/// carries (i_id, v_id, score) triples, which is what remote ranking
/// consumers need. Frames above kMaxFramePayload are rejected.

#pragma once

#include <cstdint>
#include <vector>

#include "service/service.h"
#include "service/stats.h"
#include "service/transport.h"

namespace vr {

enum class MessageType : uint8_t {
  kQueryRequest = 1,
  kQueryResponse = 2,
  kStatsRequest = 3,
  kStatsResponse = 4,
  kShutdownRequest = 5,
  kShutdownResponse = 6,
  kErrorResponse = 7,
};

/// Largest accepted frame payload (a query image plus headroom).
inline constexpr size_t kMaxFramePayload = 64u << 20;

/// Largest MessageType value; frames with a higher type are rejected.
inline constexpr uint8_t kMaxMessageType =
    static_cast<uint8_t>(MessageType::kErrorResponse);

/// Frame checksum: 64-bit FNV-1a over the message type byte then the
/// payload, folded to 32 bits.
uint32_t FrameChecksum(MessageType type, const uint8_t* payload, size_t len);

/// \name Message payload codecs.
/// @{
std::vector<uint8_t> EncodeQueryRequest(const ServiceRequest& request);
Result<ServiceRequest> DecodeQueryRequest(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeQueryResponse(const ServiceResponse& response);
Result<ServiceResponse> DecodeQueryResponse(
    const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeStatsResponse(const ServiceStatsSnapshot& stats);
Result<ServiceStatsSnapshot> DecodeStatsResponse(
    const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeErrorResponse(const Status& status);
/// Decodes an error-response payload. Returns OK with \p out set to the
/// (always non-OK) transported status, or the decode failure itself.
Status DecodeErrorResponse(const std::vector<uint8_t>& payload, Status* out);
/// @}

/// One decoded frame.
struct Frame {
  MessageType type;
  std::vector<uint8_t> payload;
};

/// \brief Resumable frame write.
///
/// Encodes the full frame up front; Resume pushes the remaining bytes
/// through the transport, and a kDeadlineExceeded mid-frame leaves the
/// sender positioned to continue on the next call — the connection is
/// never desynchronized by a timeout between two Sends. Any other error
/// is fatal to the connection.
class FrameSender {
 public:
  FrameSender(MessageType type, const std::vector<uint8_t>& payload);

  /// Sends remaining bytes until done or the deadline expires.
  /// Returns OK when the frame is fully sent, kDeadlineExceeded when
  /// more remains (call Resume again), or the transport's error.
  Status Resume(Transport* transport, TransportDeadline deadline);

  bool done() const { return offset_ == frame_.size(); }
  size_t bytes_sent() const { return offset_; }

 private:
  std::vector<uint8_t> frame_;
  size_t offset_ = 0;
};

/// \name Frame I/O over a Transport.
/// Full-message semantics: partial sends/reads are retried until the
/// frame completes or the deadline expires; a peer close mid-frame is
/// an IOError, an oversized length or checksum mismatch kCorruption.
/// @{
Status SendFrame(Transport* transport, MessageType type,
                 const std::vector<uint8_t>& payload,
                 TransportDeadline deadline = kNoDeadline);
Result<Frame> RecvFrame(Transport* transport,
                        TransportDeadline deadline = kNoDeadline,
                        size_t max_payload = kMaxFramePayload);
/// @}

}  // namespace vr
