#include "util/rng.h"

namespace uesr::util {

std::uint64_t Pcg32::next_u64() {
  std::uint64_t hi = next();
  std::uint64_t lo = next();
  return (hi << 32) | lo;
}

}  // namespace uesr::util
