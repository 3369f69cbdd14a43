#include "data/software_cache.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>

#include "common/error.hpp"
#include "sim/osg.hpp"
#include "sim_test_sink.hpp"

namespace pga::data {
namespace {

constexpr std::uint64_t kMiB = 1024 * 1024;

TEST(SoftwareCache, ColdThenWarmPerNode) {
  SoftwareCacheConfig config;
  config.hit_seconds = 5;
  SoftwareCache cache(config);

  // First attempt on a node prices the full cold install...
  auto first = cache.install("node-a", "cap3", 350 * kMiB, 400);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_DOUBLE_EQ(first.seconds, 400);
  // ...and until the platform commits it, the node stays cold.
  EXPECT_FALSE(cache.cached("node-a", "cap3"));
  cache.commit("node-a", "cap3", 350 * kMiB);
  EXPECT_TRUE(cache.cached("node-a", "cap3"));

  auto warm = cache.install("node-a", "cap3", 350 * kMiB, 400);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_DOUBLE_EQ(warm.seconds, 5);
  // Other nodes share nothing — the cache is per node disk.
  EXPECT_FALSE(cache.install("node-b", "cap3", 350 * kMiB, 400).cache_hit);
  EXPECT_EQ(cache.node_bytes("node-a"), 350 * kMiB);
  EXPECT_EQ(cache.node_bytes("node-b"), 0u);

  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_NEAR(cache.stats().hit_rate(), 1.0 / 3.0, 1e-12);
}

TEST(SoftwareCache, WarmHitNeverCostsMoreThanCold) {
  SoftwareCacheConfig config;
  config.hit_seconds = 50;
  SoftwareCache cache(config);
  cache.commit("n", "p", kMiB);
  // The cold draw came in below hit_seconds: a hit must not be a penalty.
  EXPECT_DOUBLE_EQ(cache.install("n", "p", kMiB, 10).seconds, 10);
}

TEST(SoftwareCache, LruEvictionByBytes) {
  SoftwareCacheConfig config;
  config.capacity_bytes = 100;
  SoftwareCache cache(config);
  cache.commit("n", "a", 40);
  cache.commit("n", "b", 40);
  // Touch "a" so "b" becomes the LRU victim.
  EXPECT_TRUE(cache.install("n", "a", 40, 100).cache_hit);
  cache.commit("n", "c", 40);  // needs room: evicts "b"
  EXPECT_TRUE(cache.cached("n", "a"));
  EXPECT_FALSE(cache.cached("n", "b"));
  EXPECT_TRUE(cache.cached("n", "c"));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.node_bytes("n"), 80u);
  EXPECT_EQ(cache.stats().bytes_cached, 80u);

  // A bundle that cannot fit evicts everything it must.
  cache.commit("n", "d", 100);
  EXPECT_TRUE(cache.cached("n", "d"));
  EXPECT_EQ(cache.node_bytes("n"), 100u);
  EXPECT_EQ(cache.stats().evictions, 3u);
}

TEST(SoftwareCache, OversizedBundleNeverCached) {
  SoftwareCacheConfig config;
  config.capacity_bytes = 100;
  SoftwareCache cache(config);
  cache.commit("n", "huge", 101);
  EXPECT_FALSE(cache.cached("n", "huge"));
  EXPECT_EQ(cache.stats().bytes_cached, 0u);
  // Zero-byte bundles (size unknown) are cacheable: the install still
  // happened, only the byte accounting is trivial.
  cache.commit("n", "tiny", 0);
  EXPECT_TRUE(cache.cached("n", "tiny"));
}

TEST(SoftwareCache, RecommitTouchesInsteadOfDuplicating) {
  SoftwareCacheConfig config;
  config.capacity_bytes = 100;
  SoftwareCache cache(config);
  cache.commit("n", "a", 60);
  cache.commit("n", "a", 60);
  EXPECT_EQ(cache.node_bytes("n"), 60u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(SoftwareCache, DeterministicReplay) {
  // No clocks, no RNG: the same call sequence yields identical telemetry.
  const auto run = [] {
    SoftwareCacheConfig config;
    config.capacity_bytes = 200;
    SoftwareCache cache(config);
    for (int i = 0; i < 50; ++i) {
      const std::string node = "node-" + std::to_string(i % 3);
      const std::string pkg = "pkg-" + std::to_string(i % 4);
      const auto outcome = cache.install(node, pkg, 50, 300);
      if (!outcome.cache_hit) cache.commit(node, pkg, 50);
    }
    return cache.stats();
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.bytes_cached, b.bytes_cached);
  EXPECT_GT(a.hits, 0u);
}

TEST(SoftwareCache, AttemptsOfARemovedSinkRunUncached) {
  // The transformation label is a view its workflow owns. Attempts still
  // waiting for a node when their sink is removed outlive that label, so
  // dispatch must not hand it to the cache: they run uncached and their
  // results are dropped.
  sim::EventQueue queue;
  sim::OsgConfig config;
  config.capacity_wobble = 0;
  config.preempt_mean = 1e12;
  sim::OsgPlatform platform(queue, config);
  SoftwareCache cache;
  platform.set_install_model(&cache);
  {
    const auto label = std::make_unique<std::string>("a-transformation-label-off-the-stack");
    sim::CallbackSink sink(platform, [](const sim::AttemptResult&) { ADD_FAILURE(); });
    for (std::uint32_t job = 0; job < 2; ++job) {
      sink.submit({.job = job,
                   .transformation = *label,
                   .cpu_seconds = 100,
                   .software_bytes = kMiB,
                   .needs_software_setup = true});
    }
  }  // the label and the sink go before any attempt is matched to a node
  queue.run();
  EXPECT_EQ(platform.dropped_completions(), 2u);
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0u);
}

TEST(SoftwareCache, RejectsNegativeHitSeconds) {
  SoftwareCacheConfig config;
  config.hit_seconds = -1;
  EXPECT_THROW(SoftwareCache cache(config), common::InvalidArgument);
}

TEST(SoftwareCache, RejectsNonFiniteHitSeconds) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    SoftwareCacheConfig config;
    config.hit_seconds = bad;
    EXPECT_THROW(SoftwareCache cache(config), common::InvalidArgument) << bad;
  }
}

}  // namespace
}  // namespace pga::data
