#include "data/software_cache.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pga::data {

SoftwareCache::SoftwareCache(SoftwareCacheConfig config) : config_(config) {
  common::require_non_negative("SoftwareCache", "hit_seconds", config_.hit_seconds);
}

void SoftwareCache::touch(NodeCache& node, Entries::iterator entry) {
  node.lru.splice(node.lru.begin(), node.lru, entry->second.lru_pos);
}

sim::InstallOutcome SoftwareCache::install(std::string_view node, std::string_view package,
                                           std::uint64_t /*bytes*/,
                                           double cold_seconds) {
  const auto node_it = nodes_.find(node);
  if (node_it != nodes_.end()) {
    const auto entry = node_it->second.entries.find(package);
    if (entry != node_it->second.entries.end()) {
      touch(node_it->second, entry);
      ++stats_.hits;
      return {std::min(config_.hit_seconds, cold_seconds), true};
    }
  }
  ++stats_.misses;
  return {cold_seconds, false};
}

void SoftwareCache::commit(std::string_view node, std::string_view package,
                           std::uint64_t bytes) {
  // A bundle larger than the whole node disk can never be retained.
  if (config_.capacity_bytes > 0 && bytes > config_.capacity_bytes) return;
  auto node_it = nodes_.find(node);
  if (node_it == nodes_.end()) node_it = nodes_.emplace(node, NodeCache{}).first;
  NodeCache& cache = node_it->second;
  const auto it = cache.entries.find(package);
  if (it != cache.entries.end()) {
    touch(cache, it);
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
  cache.lru.emplace_front(package);
  cache.entries.emplace(package, Entry{cache.lru.begin(), bytes});
  cache.used += bytes;
  stats_.bytes_cached += bytes;
}

bool SoftwareCache::cached(std::string_view node, std::string_view package) const {
  const auto it = nodes_.find(node);
  return it != nodes_.end() && it->second.entries.contains(package);
}

std::uint64_t SoftwareCache::node_bytes(std::string_view node) const {
  const auto it = nodes_.find(node);
  return it == nodes_.end() ? 0 : it->second.used;
}

}  // namespace pga::data
