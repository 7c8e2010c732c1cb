#include "util/bitpack.h"

#include <bit>
#include <stdexcept>

namespace uesr::util {

int bits_for_value(std::uint64_t v) {
  if (v == 0) return 1;
  return std::bit_width(v);
}

int bits_for_count(std::uint64_t count) {
  if (count <= 1) return 0;
  return std::bit_width(count - 1);
}

int ceil_log2(std::uint64_t v) {
  if (v == 0) throw std::invalid_argument("ceil_log2: v == 0");
  return std::bit_width(v - 1);
}

int floor_log2(std::uint64_t v) {
  if (v == 0) throw std::invalid_argument("floor_log2: v == 0");
  return std::bit_width(v) - 1;
}

}  // namespace uesr::util
