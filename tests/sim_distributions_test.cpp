// Statistical validation of the platform models' stochastic behaviour:
// the distributions must actually have the properties the DESIGN.md
// calibration relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/summary.hpp"
#include "sim/campus_cluster.hpp"
#include "sim/osg.hpp"
#include "sim_test_sink.hpp"

namespace pga::sim {
namespace {

/// Collects per-attempt results for `jobs` identical jobs (no retries).
std::vector<AttemptResult> collect(ExecutionPlatform& platform, EventQueue& queue,
                                   std::size_t jobs, double cpu_seconds,
                                   bool setup) {
  std::vector<AttemptResult> attempts;
  CallbackSink sink(platform, [&attempts](const AttemptResult& r) { attempts.push_back(r); });
  for (std::uint32_t i = 0; i < jobs; ++i) {
    sink.submit({.job = i,
                 .transformation = "t",
                 .cpu_seconds = cpu_seconds,
                 .needs_software_setup = setup});
  }
  queue.run();
  return attempts;
}

TEST(OsgDistributions, MatchDelayIsHeavyTailedLognormal) {
  EventQueue queue;
  OsgConfig config;
  config.base_slots = 100'000;  // never queue-bound: waits = match delay
  config.capacity_wobble = 0;
  config.preempt_mean = 1e12;
  config.seed = 7;
  OsgPlatform platform(queue, config);
  const auto attempts = collect(platform, queue, 3'000, 1.0, false);

  common::Summary waits;
  for (const auto& a : attempts) waits.add(a.wait_seconds);
  // Median of lognormal(mu, sigma) = e^mu.
  EXPECT_NEAR(waits.median(), std::exp(config.wait_mu),
              0.15 * std::exp(config.wait_mu));
  // Heavy tail: mean well above median, p95/p50 around e^(1.645*sigma).
  EXPECT_GT(waits.mean(), 1.5 * waits.median());
  const double tail_ratio = waits.percentile(95) / waits.median();
  const double expected = std::exp(1.645 * config.wait_sigma);
  EXPECT_GT(tail_ratio, 0.6 * expected);
  EXPECT_LT(tail_ratio, 1.6 * expected);
}

TEST(OsgDistributions, PreemptionRateMatchesExponentialHazard) {
  EventQueue queue;
  OsgConfig config;
  config.base_slots = 100'000;
  config.capacity_wobble = 0;
  config.preempt_mean = 5'000;
  config.node_speed_min = 1.0;
  config.node_speed_max = 1.0;  // fixed duration
  config.seed = 11;
  OsgPlatform platform(queue, config);
  const double duration = 2'500;  // T = preempt_mean / 2
  const auto attempts = collect(platform, queue, 4'000, duration, false);

  std::size_t failures = 0;
  for (const auto& a : attempts) {
    if (!a.success) ++failures;
  }
  // P(preempt before T) = 1 - e^(-T/mean) = 1 - e^-0.5 ~ 0.3935.
  const double observed = static_cast<double>(failures) / 4'000.0;
  EXPECT_NEAR(observed, 1.0 - std::exp(-0.5), 0.03);
}

TEST(OsgDistributions, InstallUniformWithinBounds) {
  EventQueue queue;
  OsgConfig config;
  config.base_slots = 100'000;
  config.capacity_wobble = 0;
  config.preempt_mean = 1e12;
  config.seed = 13;
  OsgPlatform platform(queue, config);
  const auto attempts = collect(platform, queue, 2'000, 1.0, true);

  common::Summary installs;
  for (const auto& a : attempts) installs.add(a.install_seconds);
  EXPECT_GE(installs.min(), config.install_min);
  EXPECT_LE(installs.max(), config.install_max);
  // Uniform: mean at the midpoint, quartiles at the quarter points.
  const double mid = (config.install_min + config.install_max) / 2;
  EXPECT_NEAR(installs.mean(), mid, 10.0);
  EXPECT_NEAR(installs.percentile(25),
              config.install_min + 0.25 * (config.install_max - config.install_min),
              15.0);
}

TEST(OsgDistributions, NodeSpeedsSpanTheConfiguredRange) {
  EventQueue queue;
  OsgConfig config;
  config.base_slots = 100'000;
  config.capacity_wobble = 0;
  config.preempt_mean = 1e12;
  config.seed = 17;
  OsgPlatform platform(queue, config);
  const double cost = 10'000;
  const auto attempts = collect(platform, queue, 2'000, cost, false);
  common::Summary speeds;
  for (const auto& a : attempts) speeds.add(cost / a.exec_seconds);
  EXPECT_GE(speeds.min(), config.node_speed_min - 1e-6);
  EXPECT_LE(speeds.max(), config.node_speed_max + 1e-6);
  EXPECT_NEAR(speeds.mean(), (config.node_speed_min + config.node_speed_max) / 2,
              0.02);
}

TEST(CampusDistributions, DispatchLatencyLognormalAndSmall) {
  EventQueue queue;
  CampusClusterConfig config;
  config.allocated_slots = 100'000;  // waits = dispatch latency only
  config.seed = 19;
  CampusClusterPlatform platform(queue, config);
  const auto attempts = collect(platform, queue, 3'000, 1.0, false);
  common::Summary waits;
  for (const auto& a : attempts) waits.add(a.wait_seconds);
  EXPECT_NEAR(waits.median(), std::exp(config.dispatch_mu),
              0.1 * std::exp(config.dispatch_mu));
  // "Small and negligible": even p99 under 3 minutes.
  EXPECT_LT(waits.percentile(99), 180.0);
}

TEST(CampusDistributions, UtilizationSaturatesAtAllocation) {
  EventQueue queue;
  CampusClusterConfig config;
  config.allocated_slots = 16;
  config.seed = 23;
  CampusClusterPlatform platform(queue, config);
  // 64 long jobs on 16 slots: the queue must hold ~48 once saturated.
  std::size_t max_queued = 0;
  std::vector<AttemptResult> attempts;
  CallbackSink sink(platform, [&](const AttemptResult& r) {
    attempts.push_back(r);
    max_queued = std::max(max_queued, platform.queued());
  });
  for (std::uint32_t i = 0; i < 64; ++i) {
    sink.submit({.job = i, .transformation = "t", .cpu_seconds = 10'000});
  }
  queue.run();
  ASSERT_EQ(attempts.size(), 64u);
  // Exactly 4 waves of 16.
  common::Summary starts;
  for (const auto& a : attempts) starts.add(a.start_time);
  EXPECT_GT(starts.max(), 3 * 9'000.0);  // last wave starts after ~3 runs
}

}  // namespace
}  // namespace pga::sim
