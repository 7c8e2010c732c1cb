// Heap bytes of one lossy route session, counted by a replacement global
// operator new (so this suite lives in a binary of its own).  The bound is
// ROADMAP item 3's: a session's channel costs O(1) in the graph — the
// simulator keeps no per-node or per-link table, and restart() rebuilds
// nothing sized by the reduction.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/lossy_route.h"
#include "explore/degree_reduce.h"
#include "explore/sequence.h"
#include "graph/generators.h"

namespace {

// Every block carries its size in a header of the default new alignment,
// so delete can subtract what new added.
constexpr std::size_t kHeader = __STDCPP_DEFAULT_NEW_ALIGNMENT__;

std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};

void* counted_alloc(std::size_t n) noexcept {
  auto* block = static_cast<unsigned char*>(std::malloc(n + kHeader));
  if (block == nullptr) return nullptr;
  *reinterpret_cast<std::size_t*>(block) = n;
  const std::size_t live = g_live.fetch_add(n, std::memory_order_relaxed) + n;
  std::size_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return block + kHeader;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  auto* block = static_cast<unsigned char*>(p) - kHeader;
  g_live.fetch_sub(*reinterpret_cast<std::size_t*>(block),
                   std::memory_order_relaxed);
  std::free(block);
}

void* counted_new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace uesr::core {
namespace {

constexpr std::size_t kSessionBound = 64 * 1024;

struct SessionBytes {
  std::size_t live = 0;  ///< held after the last restart
  std::size_t peak = 0;  ///< most held at once over the session's life
};

/// Builds one selective-repeat session (loss 0.1, default window) on the
/// reduction of grid(k, k), steps it, restarts it twice (stepping after
/// each), and reports the heap bytes it held beyond what existed before.
SessionBytes session_bytes(graph::NodeId k) {
  const explore::ReducedGraph net =
      explore::reduce_to_cubic(graph::grid(k, k));
  const auto seq = explore::standard_ues(net.cubic.num_nodes(), 0x5eed0001);
  LossyTrafficConfig cfg;
  cfg.link.loss = 0.1;
  cfg.arq = ArqKind::kSelectiveRepeat;

  const std::size_t base = g_live.load();
  g_peak.store(base);
  SessionBytes out;
  {
    LossyRouteSession session(net, *seq, 0, k * k - 1, cfg);
    session.step();
    for (std::uint64_t epoch = 1; epoch <= 2; ++epoch) {
      session.restart(net, *seq, epoch);
      session.step();
    }
    EXPECT_EQ(session.restarts(), 2u);
    EXPECT_GT(session.wire_frames(), 0u);
    out.live = g_live.load() - base;
  }
  out.peak = g_peak.load() - base;
  return out;
}

TEST(LossySessionMemory, HeapBytesAreBoundedAndIndependentOfTheGraph) {
  std::vector<SessionBytes> sizes;
  for (const graph::NodeId k : {32u, 100u, 316u}) {
    const SessionBytes b = session_bytes(k);
    SCOPED_TRACE(testing::Message() << "grid(" << k << ", " << k << ")");
    RecordProperty("grid" + std::to_string(k) + "_live_bytes",
                   std::to_string(b.live));
    RecordProperty("grid" + std::to_string(k) + "_peak_bytes",
                   std::to_string(b.peak));
    EXPECT_LE(b.live, kSessionBound);
    EXPECT_LE(b.peak, kSessionBound);
    EXPECT_GT(b.peak, 0u);
    sizes.push_back(b);
  }
  for (const SessionBytes& b : sizes) {
    EXPECT_EQ(b.live, sizes.front().live);
    EXPECT_EQ(b.peak, sizes.front().peak);
  }
}

}  // namespace
}  // namespace uesr::core
