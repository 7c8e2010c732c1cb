// FNV-1a digests of TrafficEngine reports for the golden-pin tests.
#pragma once

#include <cstdint>
#include <vector>

#include "core/traffic.h"

namespace uesr::test_support {

/// One code per end state: delivered 1, certified 2, uncertified 3,
/// exhausted 4, none of these 0 (departed sessions carry their own field).
inline std::uint64_t verdict_code(const core::SessionReport& r) {
  return r.delivered           ? 1
         : r.failure_certified ? 2
         : r.uncertified       ? 3
         : r.exhausted         ? 4
                               : 0;
}

/// FNV-1a over the words `fields(report)` returns, byte by byte (low byte
/// first), for every report in session-id order.
template <class Fields>
std::uint64_t report_digest(const std::vector<core::SessionReport>& reports,
                            Fields fields) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const core::SessionReport& r : reports)
    for (std::uint64_t v : fields(r))
      for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xff;
        h *= 0x100000001b3ULL;
      }
  return h;
}

}  // namespace uesr::test_support
