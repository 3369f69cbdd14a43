#include "data/software_cache.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pga::data {

SoftwareCache::SoftwareCache(SoftwareCacheConfig config) : config_(config) {
  common::require_non_negative("SoftwareCache", "hit_seconds", config_.hit_seconds);
}

void SoftwareCache::touch(NodeCache& node, const std::string& package) {
  const auto it = node.entries.find(package);
  node.lru.erase(it->second.lru_pos);
  node.lru.push_front(package);
  it->second.lru_pos = node.lru.begin();
}

sim::InstallOutcome SoftwareCache::install(const std::string& node,
                                           const std::string& package,
                                           std::uint64_t /*bytes*/,
                                           double cold_seconds) {
  const auto node_it = nodes_.find(node);
  if (node_it != nodes_.end() && node_it->second.entries.count(package) != 0) {
    touch(node_it->second, package);
    ++stats_.hits;
    return {std::min(config_.hit_seconds, cold_seconds), true};
  }
  ++stats_.misses;
  return {cold_seconds, false};
}

void SoftwareCache::commit(const std::string& node, const std::string& package,
                           std::uint64_t bytes) {
  // A bundle larger than the whole node disk can never be retained.
  if (config_.capacity_bytes > 0 && bytes > config_.capacity_bytes) return;
  NodeCache& cache = nodes_[node];
  const auto it = cache.entries.find(package);
  if (it != cache.entries.end()) {
    touch(cache, package);
    return;
  }
  // Make room, coldest-first.
  while (config_.capacity_bytes > 0 && cache.used + bytes > config_.capacity_bytes) {
    const std::string victim = cache.lru.back();
    const auto victim_it = cache.entries.find(victim);
    cache.used -= victim_it->second.bytes;
    stats_.bytes_cached -= victim_it->second.bytes;
    cache.lru.pop_back();
    cache.entries.erase(victim_it);
    ++stats_.evictions;
  }
  cache.lru.push_front(package);
  cache.entries[package] = {cache.lru.begin(), bytes};
  cache.used += bytes;
  stats_.bytes_cached += bytes;
}

bool SoftwareCache::cached(const std::string& node, const std::string& package) const {
  const auto it = nodes_.find(node);
  return it != nodes_.end() && it->second.entries.count(package) != 0;
}

std::uint64_t SoftwareCache::node_bytes(const std::string& node) const {
  const auto it = nodes_.find(node);
  return it == nodes_.end() ? 0 : it->second.used;
}

}  // namespace pga::data
