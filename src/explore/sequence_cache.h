// Process-wide cache of immutable exploration sequences.
//
// ExplorationSequence objects are stateless and immutable (sequence.h), so
// two sessions asking for "the standard T_n at (seed, size bound)" have no
// reason to hold distinct objects.  Before this cache, every multiplexed
// caller rebuilt its own: route_adaptive constructed a fresh standard_ues
// per call, every dynamic route rebuilt one per epoch restart, and a
// traffic engine admitting a thousand sessions over one topology would
// have built a thousand identical T_n.  SequenceCache keys on
// (family, seed, size bound) and hands every hit the *identical* object
// (shared_ptr to one instance) — sharing is observable as pointer equality,
// which is also how the tests pin the cached/fresh bit-identity.
//
// Thread-safe: lookups may race from parallel session lanes
// (core::TrafficEngine steps sessions over a thread pool).  The hit path —
// what a million concurrent sessions hammer — takes only a shared lock, so
// readers proceed in parallel; a miss upgrades to the exclusive lock,
// re-checks, and builds, so a key is still built exactly once.  Hit/miss
// counters are relaxed atomics (they are statistics, not synchronization).
// Cached sequences are never evicted — entries are a few dozen bytes
// (counter-based families store no symbols) — but clear() exists for tests
// and long-lived processes that sweep many one-off bounds.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>

#include "explore/sequence.h"
#include "graph/graph.h"

namespace uesr::explore {

class SequenceCache {
 public:
  /// The standard_ues() family, cached: same (n, seed) -> the same object
  /// every time, bit-identical to a freshly built standard_ues(n, seed).
  std::shared_ptr<const ExplorationSequence> standard(graph::NodeId n,
                                                      std::uint64_t seed);

  /// Generic keyed lookup: returns the cached sequence for
  /// (family, seed, size_bound), invoking build() only on a miss.  The
  /// builder must be a pure function of the key (same key -> semantically
  /// identical sequence), or the cache would change behaviour.
  std::shared_ptr<const ExplorationSequence> get(
      const std::string& family, graph::NodeId size_bound,
      std::uint64_t seed,
      const std::function<std::shared_ptr<const ExplorationSequence>()>&
          build);

  std::size_t size() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  void clear();

  /// The process-wide instance every library-internal caller shares.
  static SequenceCache& global();

 private:
  struct Key {
    std::string family;
    std::uint64_t seed;
    graph::NodeId size_bound;
    friend bool operator<(const Key& a, const Key& b) {
      if (a.family != b.family) return a.family < b.family;
      if (a.seed != b.seed) return a.seed < b.seed;
      return a.size_bound < b.size_bound;
    }
  };

  mutable std::shared_mutex m_;
  std::map<Key, std::shared_ptr<const ExplorationSequence>> entries_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

/// Shorthand for SequenceCache::global().standard(n, seed) — the drop-in
/// cached equivalent of standard_ues(n, seed).
std::shared_ptr<const ExplorationSequence> cached_standard_ues(
    graph::NodeId n, std::uint64_t seed = 0x5eed0001);

}  // namespace uesr::explore
