// Bit-level size accounting for the O(log n) space claims (Theorem 1).
//
// The paper bounds two quantities: the message-header overhead and the
// per-node working space, both O(log n) where n is the namespace size.  The
// width helpers compute exact bit widths so benches/tests can verify the
// bound with real numbers rather than hand-waving.
#pragma once

#include <cstdint>

namespace uesr::util {

/// Number of bits needed to represent values in [0, v] (bit_width(v), >= 1).
int bits_for_value(std::uint64_t v);

/// Number of bits needed to index a set of `count` items ([0, count-1]).
/// By convention 0 for empty/singleton sets (no information needed).
int bits_for_count(std::uint64_t count);

/// ceil(log2(v)) for v >= 1.
int ceil_log2(std::uint64_t v);

/// floor(log2(v)) for v >= 1.
int floor_log2(std::uint64_t v);

}  // namespace uesr::util
