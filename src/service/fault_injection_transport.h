/// \file fault_injection_transport.h
/// \brief Transport wrapper that injects deterministic network faults.
///
/// The network-side counterpart of FaultInjectionEnv: where that double
/// fails writes and cuts power under the storage engine, this one sits
/// between the wire codecs and a real (or in-memory) Transport and
/// injects the failure modes a retrieval service sees in production —
/// connection resets, torn frames, flipped bytes, stalls. Every fault
/// is drawn from a seeded vr::Rng, so a chaos-test schedule replays
/// bit-for-bit from its seed.
///
/// Fault selection: each Send/Recv makes exactly one UniformDouble draw
/// and tests it against the cumulative probability bands (reset, then
/// truncate, then corrupt, then stall). At most one fault fires per
/// operation, and the draw sequence — hence the schedule — depends only
/// on the seed and the operation order.

#pragma once

#include <cstdint>
#include <memory>

#include "service/transport.h"
#include "util/rng.h"

namespace vr {

/// \brief Probabilities and seed for one fault schedule.
struct TransportFaultOptions {
  /// Seed for the schedule; equal seeds give equal fault sequences.
  uint64_t seed = 1;
  /// Probability an operation kills the connection (IOError, inner
  /// transport closed — subsequent operations fail too).
  double reset_prob = 0.0;
  /// Probability a Send forwards only a prefix and then reports the
  /// connection dead (a torn frame on the peer's side).
  double truncate_prob = 0.0;
  /// Probability one bit of the operation's payload is flipped while
  /// the operation itself "succeeds" (silent wire corruption).
  double corrupt_prob = 0.0;
  /// Probability the operation is delayed by stall_ms first.
  double stall_prob = 0.0;
  uint64_t stall_ms = 2;
};

/// \brief Wraps a Transport and injects faults per TransportFaultOptions.
///
/// Also exposes a FailNthRecv one-shot counter (1-based, 0 disables)
/// mirroring FaultInjectionEnv::FailNthWrite, for tests that need one
/// precisely-placed fault instead of a probabilistic schedule.
class FaultInjectionTransport : public Transport {
 public:
  FaultInjectionTransport(std::unique_ptr<Transport> inner,
                          const TransportFaultOptions& options)
      : inner_(std::move(inner)), options_(options), rng_(options.seed) {}

  Result<size_t> Send(const uint8_t* data, size_t len,
                      TransportDeadline deadline) override;
  Result<size_t> Recv(uint8_t* buf, size_t len,
                      TransportDeadline deadline) override;
  void Close() override;

  /// Fails the Nth Recv from now with an injected reset; 0 disables.
  void FailNthRecv(uint64_t n) {
    fail_recv_at_ = n == 0 ? 0 : recvs_ + n;
  }

  uint64_t sends() const { return sends_; }
  uint64_t recvs() const { return recvs_; }
  uint64_t resets() const { return resets_; }
  uint64_t corruptions() const { return corruptions_; }
  uint64_t stalls() const { return stalls_; }

 private:
  enum class Fault { kNone, kReset, kTruncate, kCorrupt, kStall };

  /// One scheduled draw; \p for_send enables kTruncate.
  Fault DrawFault(bool for_send);
  Status InjectReset();

  std::unique_ptr<Transport> inner_;
  TransportFaultOptions options_;
  Rng rng_;
  bool dead_ = false;  ///< a reset fired; connection is gone
  uint64_t sends_ = 0;
  uint64_t recvs_ = 0;
  uint64_t resets_ = 0;
  uint64_t corruptions_ = 0;
  uint64_t stalls_ = 0;
  uint64_t fail_recv_at_ = 0;  // absolute recv index; 0 = disabled
};

}  // namespace vr
