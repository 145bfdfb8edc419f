#include "service/fault_injection_transport.h"

#include <chrono>
#include <thread>
#include <vector>

namespace vr {

FaultInjectionTransport::Fault FaultInjectionTransport::DrawFault(
    bool for_send) {
  double u = rng_.UniformDouble();
  double band = options_.reset_prob;
  if (u < band) return Fault::kReset;
  band += options_.truncate_prob;
  if (u < band) return for_send ? Fault::kTruncate : Fault::kReset;
  band += options_.corrupt_prob;
  if (u < band) return Fault::kCorrupt;
  band += options_.stall_prob;
  if (u < band) return Fault::kStall;
  return Fault::kNone;
}

Status FaultInjectionTransport::InjectReset() {
  ++resets_;
  dead_ = true;
  if (inner_) inner_->Close();
  return Status::IOError("injected connection reset");
}

Result<size_t> FaultInjectionTransport::Send(const uint8_t* data, size_t len,
                                             TransportDeadline deadline) {
  ++sends_;
  if (dead_) return Status::IOError("injected connection reset");
  switch (DrawFault(/*for_send=*/true)) {
    case Fault::kReset:
      return InjectReset();
    case Fault::kTruncate: {
      // Forward a strict prefix, then kill the connection: the peer
      // sees a torn frame followed by EOF.
      size_t half = len / 2;
      if (half > 0) {
        size_t done = 0;
        while (done < half) {
          auto sent = inner_->Send(data + done, half - done, deadline);
          if (!sent.ok()) break;
          done += *sent;
        }
      }
      ++resets_;
      dead_ = true;
      inner_->Close();
      return Status::IOError("injected torn frame");
    }
    case Fault::kCorrupt: {
      ++corruptions_;
      std::vector<uint8_t> copy(data, data + len);
      uint64_t bit = rng_.Next() % (len * 8);
      copy[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      return inner_->Send(copy.data(), len, deadline);
    }
    case Fault::kStall:
      ++stalls_;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.stall_ms));
      break;
    case Fault::kNone:
      break;
  }
  return inner_->Send(data, len, deadline);
}

Result<size_t> FaultInjectionTransport::Recv(uint8_t* buf, size_t len,
                                             TransportDeadline deadline) {
  ++recvs_;
  if (dead_) return Status::IOError("injected connection reset");
  if (fail_recv_at_ != 0 && recvs_ == fail_recv_at_) {
    fail_recv_at_ = 0;
    return InjectReset();
  }
  Fault fault = DrawFault(/*for_send=*/false);
  if (fault == Fault::kReset) return InjectReset();
  if (fault == Fault::kStall) {
    ++stalls_;
    std::this_thread::sleep_for(std::chrono::milliseconds(options_.stall_ms));
  }
  auto got = inner_->Recv(buf, len, deadline);
  if (!got.ok() || *got == 0) return got;
  if (fault == Fault::kCorrupt) {
    ++corruptions_;
    uint64_t bit = rng_.Next() % (*got * 8);
    buf[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
  return got;
}

void FaultInjectionTransport::Close() {
  if (inner_) inner_->Close();
}

}  // namespace vr
