// Per-node software cache — the §VII fix the paper names as future work
// ("setting the proper software configuration on the OSG resources for
// less time"). The stock OSG model charges a download/install draw on
// every attempt; with a cache attached the first completed install on a
// node pays the cold price and later attempts on the same node pay only
// a small hit latency. Eviction is LRU by bytes, so a bounded node disk
// behaves realistically when many bundles compete.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <string_view>

#include "sim/platform.hpp"

namespace pga::data {

/// Tunables for the per-node cache.
struct SoftwareCacheConfig {
  std::uint64_t capacity_bytes = 8ull << 30;  ///< per-node disk budget (8 GiB)
  double hit_seconds = 5.0;  ///< cost of a warm setup (unpack/verify only)
};

/// LRU-by-bytes cache of software bundles, keyed (node, package).
/// Implements sim::InstallModel: platforms call install() to price a
/// setup and commit() once the install ran to completion (a preempted
/// download never populates the cache). Fully deterministic — no clocks,
/// no randomness — so a cached run replays byte-identically from its seed.
class SoftwareCache final : public sim::InstallModel {
 public:
  explicit SoftwareCache(SoftwareCacheConfig config = {});

  sim::InstallOutcome install(std::string_view node, std::string_view package,
                              std::uint64_t bytes, double cold_seconds) override;
  void commit(std::string_view node, std::string_view package,
              std::uint64_t bytes) override;

  /// Whether `node` currently caches `package`.
  [[nodiscard]] bool cached(std::string_view node, std::string_view package) const;
  /// Bytes cached on `node` (0 for unknown nodes).
  [[nodiscard]] std::uint64_t node_bytes(std::string_view node) const;

  /// Telemetry since construction.
  struct Stats {
    std::size_t hits = 0;       ///< warm installs served
    std::size_t misses = 0;     ///< cold installs priced
    std::size_t evictions = 0;  ///< bundles LRU-evicted for space
    std::uint64_t bytes_cached = 0;  ///< currently held across all nodes
    [[nodiscard]] double hit_rate() const {
      const std::size_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    std::list<std::string>::iterator lru_pos;  ///< position in NodeCache::lru
    std::uint64_t bytes = 0;
  };
  /// Both maps look names up by view (std::less<>), so pricing an
  /// install builds no string.
  using Entries = std::map<std::string, Entry, std::less<>>;
  struct NodeCache {
    std::list<std::string> lru;  ///< front = most recently used package
    Entries entries;
    std::uint64_t used = 0;
  };

  /// Moves the package at `entry` to the front of `node`'s LRU list.
  static void touch(NodeCache& node, Entries::iterator entry);

  SoftwareCacheConfig config_;
  std::map<std::string, NodeCache, std::less<>> nodes_;
  Stats stats_;
};

}  // namespace pga::data
