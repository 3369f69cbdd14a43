#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace pga::core {
namespace {

/// One shared sweep (3 repetitions) reused by the claim tests — the full
/// 31-rep sweep lives in bench/fig4_walltime.
const SweepResults& shared_sweep() {
  static const SweepResults* results = [] {
    ExperimentConfig config;
    config.repetitions = 3;
    return new SweepResults(run_platform_sweep(config));
  }();
  return *results;
}

TEST(Experiment, SerialBaselineNearHundredHours) {
  const auto& results = shared_sweep();
  EXPECT_GT(results.serial_seconds, 90.0 * 3600);
  EXPECT_LT(results.serial_seconds, 110.0 * 3600);
}

TEST(Experiment, SweepCoversAllPoints) {
  const auto& results = shared_sweep();
  EXPECT_EQ(results.points.size(), 8u);  // 2 platforms x 4 n values
  for (const auto& platform : {"sandhills", "osg"}) {
    for (const std::size_t n : {10ul, 100ul, 300ul, 500ul}) {
      EXPECT_NO_THROW((void)results.point(platform, n));
      EXPECT_GT(results.wall(platform, n), 0.0);
    }
  }
  EXPECT_THROW((void)results.point("sandhills", 42), common::InvalidArgument);
}

TEST(Experiment, ParallelReductionExceeds95Percent) {
  // The paper's headline: "reduces the running time ... for more than 95%".
  const auto claims = evaluate_claims(shared_sweep());
  EXPECT_GT(claims.reduction_vs_serial_percent, 95.0);
}

TEST(Experiment, SandhillsBeatsOsgAtLowN) {
  // §VI.A: "Sandhills resulted in better running time ... especially
  // noticeable when n is 10, 100, and 300."
  const auto claims = evaluate_claims(shared_sweep());
  EXPECT_TRUE(claims.sandhills_beats_osg_low_n);
}

TEST(Experiment, CoarseSplitMuchSlowerOnSandhills) {
  // §VI.A: 41,593 s at n=10 vs ~10,000 s at n >= 100 (an ~4x gap; we
  // accept 2.5-6x across seeds).
  const auto claims = evaluate_claims(shared_sweep());
  EXPECT_GT(claims.sandhills_n10_over_n300, 2.5);
  EXPECT_LT(claims.sandhills_n10_over_n300, 6.0);
  const auto& results = shared_sweep();
  EXPECT_GT(results.wall("sandhills", 10), 30'000.0);
  EXPECT_LT(results.wall("sandhills", 10), 50'000.0);
  for (const std::size_t n : {100ul, 300ul, 500ul}) {
    EXPECT_GT(results.wall("sandhills", n), 7'000.0) << n;
    EXPECT_LT(results.wall("sandhills", n), 16'000.0) << n;
  }
}

TEST(Experiment, OsgKickstartBeatsSandhills) {
  // §VI.B / §VII: "if comparing only the actual duration and running time
  // of tasks on both platforms ... OSG gives significantly better results."
  const auto claims = evaluate_claims(shared_sweep());
  EXPECT_TRUE(claims.osg_kickstart_beats_sandhills);
}

TEST(Experiment, OsgPaysInstallAndWaiting) {
  const auto& results = shared_sweep();
  for (const std::size_t n : {10ul, 100ul, 300ul, 500ul}) {
    const auto& osg = results.point("osg", n);
    const auto& sandhills = results.point("sandhills", n);
    EXPECT_GT(osg.stats.cumulative_install(), 0.0) << n;
    EXPECT_DOUBLE_EQ(sandhills.stats.cumulative_install(), 0.0) << n;
  }
}

TEST(Experiment, OsgSeesPreemptionsAndRetries) {
  const auto& results = shared_sweep();
  std::size_t total_preemptions = 0;
  std::size_t sandhills_retries = 0;
  for (const auto& p : results.points) {
    if (p.platform == "osg") total_preemptions += p.preemptions;
    if (p.platform == "sandhills") sandhills_retries += p.stats.retries();
  }
  EXPECT_GT(total_preemptions, 0u);   // "failures and retries were observed on OSG"
  EXPECT_EQ(sandhills_retries, 0u);   // "no failures ... on Sandhills"
}

TEST(Experiment, CloudPointRuns) {
  ExperimentConfig config;
  config.n_values = {100};
  config.include_cloud = true;
  const auto point = run_sim_point(config, "cloud", 100);
  EXPECT_GT(point.stats.wall_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(point.stats.cumulative_install(), 0.0);
}

TEST(Experiment, UnknownPlatformRejected) {
  EXPECT_THROW(run_sim_point(ExperimentConfig{}, "xsede", 10),
               common::InvalidArgument);
}

TEST(Experiment, ZeroRepetitionsRejected) {
  ExperimentConfig config;
  config.repetitions = 0;
  EXPECT_THROW(run_sim_point(config, "sandhills", 10), common::InvalidArgument);
}

TEST(Experiment, RepetitionsProduceThatManyWalls) {
  ExperimentConfig config;
  config.repetitions = 4;
  const auto point = run_sim_point(config, "sandhills", 10);
  EXPECT_EQ(point.walls.size(), 4u);
  EXPECT_GT(point.mean_wall(), 0.0);
}

TEST(Experiment, DeterministicForSeed) {
  ExperimentConfig config;
  config.repetitions = 2;
  const auto a = run_sim_point(config, "osg", 100);
  const auto b = run_sim_point(config, "osg", 100);
  EXPECT_EQ(a.walls, b.walls);
}

}  // namespace
}  // namespace pga::core
