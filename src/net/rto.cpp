#include "net/rto.h"

#include <algorithm>
#include <stdexcept>

namespace uesr::net {

namespace {

SimTime clamp(SimTime t) { return std::min(std::max(t, kRtoMin), kRtoMax); }

}  // namespace

RtoEstimator::RtoEstimator(SimTime initial) {
  if (initial == 0)
    throw std::invalid_argument("RtoEstimator: initial rto must be > 0");
  if (initial > kRtoMax)
    throw std::invalid_argument("RtoEstimator: initial rto > kRtoMax");
  rto_ = clamp(initial);
}

void RtoEstimator::sample(SimTime rtt) {
  if (samples_ == 0) {
    // First measurement: srtt = R, rttvar = R / 2 (the RFC 6298 init).
    srtt8_ = rtt << 3;
    rttvar4_ = rtt << 1;
  } else {
    const std::int64_t delta =
        static_cast<std::int64_t>(rtt) -
        static_cast<std::int64_t>(srtt8_ >> 3);
    const std::int64_t abs_delta = delta < 0 ? -delta : delta;
    // rttvar4 += |delta| - rttvar4/4  ==  rttvar <- 3/4 rttvar + |delta|/4
    rttvar4_ += static_cast<std::uint64_t>(
        abs_delta - static_cast<std::int64_t>(rttvar4_ >> 2));
    // srtt8 += delta  ==  srtt <- 7/8 srtt + R/8
    srtt8_ = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(srtt8_) + delta);
  }
  ++samples_;
  // A fresh unambiguous sample re-derives the RTO, ending any backoff
  // (Karn's rule: the backed-off value never outlives a clean measurement).
  rto_ = clamp((srtt8_ >> 3) + std::max(kRtoGranularity, rttvar4_));
}

void RtoEstimator::backoff() { rto_ = std::min(rto_ * 2, kRtoMax); }

}  // namespace uesr::net
