#include "core/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/error.hpp"

namespace pga::core {
namespace {

TEST(Workload, CalibratedToPaperSerialTime) {
  const WorkloadModel model;
  // Total CAP3 work matches the calibration target exactly...
  EXPECT_NEAR(model.total_cap3_seconds(), model.params().serial_cap3_seconds,
              model.params().serial_cap3_seconds * 1e-6);
  // ...and the full serial pipeline sits near the paper's 100 hours.
  EXPECT_GT(model.serial_pipeline_seconds(), 90.0 * 3600);
  EXPECT_LT(model.serial_pipeline_seconds(), 110.0 * 3600);
}

TEST(Workload, ClusterSizesSumToTranscripts) {
  const WorkloadModel model;
  const auto& sizes = model.cluster_sizes();
  EXPECT_EQ(sizes.size(), model.params().proteins);
  const std::size_t total = std::accumulate(sizes.begin(), sizes.end(), std::size_t{0});
  EXPECT_EQ(total, model.params().transcripts);
}

TEST(Workload, SizesDescendingAndPositive) {
  const WorkloadModel model;
  const auto& sizes = model.cluster_sizes();
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_LE(sizes[i], sizes[i - 1]);
  }
  EXPECT_GE(sizes.back(), 1u);
}

TEST(Workload, CostSuperlinearInSize) {
  const WorkloadModel model;
  // Doubling size more than doubles cost (beta > 1).
  EXPECT_GT(model.cluster_cost(2'000), 2.0 * model.cluster_cost(1'000));
  EXPECT_GT(model.cluster_cost(100), 0.0);
}

TEST(Workload, DeterministicForSeed) {
  const WorkloadModel a, b;
  EXPECT_EQ(a.cluster_sizes(), b.cluster_sizes());
  WorkloadParams p;
  p.seed = 99;
  const WorkloadModel c(p);
  EXPECT_NE(a.cluster_sizes(), c.cluster_sizes());
}

TEST(Workload, ChunkCostsPartitionTotal) {
  const WorkloadModel model;
  for (const std::size_t n : {1ul, 10ul, 100ul, 300ul, 500ul}) {
    const auto chunks = model.chunk_costs(n);
    ASSERT_EQ(chunks.size(), n);
    double sum = 0;
    for (const double c : chunks) sum += c;
    const double expected = model.total_cap3_seconds() +
                            static_cast<double>(n) *
                                model.params().run_cap3_fixed_seconds;
    EXPECT_NEAR(sum, expected, expected * 1e-9) << "n=" << n;
  }
}

TEST(Workload, CoarseSplitHasStragglerChunk) {
  // The Fig. 4 anchor: at n=10 the worst chunk is ~4x the n=300 worst chunk.
  const WorkloadModel model;
  const auto c10 = model.chunk_costs(10);
  const auto c300 = model.chunk_costs(300);
  const double max10 = *std::max_element(c10.begin(), c10.end());
  const double max300 = *std::max_element(c300.begin(), c300.end());
  EXPECT_GT(max10 / max300, 3.0);
  EXPECT_LT(max10 / max300, 5.0);
  // And the n=10 straggler lands in the paper's 41,593 s ballpark.
  EXPECT_GT(max10, 33'000.0);
  EXPECT_LT(max10, 46'000.0);
}

TEST(Workload, MediumSplitsFloorNearTenThousandSeconds) {
  const WorkloadModel model;
  for (const std::size_t n : {100ul, 300ul, 500ul}) {
    const auto chunks = model.chunk_costs(n);
    const double mx = *std::max_element(chunks.begin(), chunks.end());
    EXPECT_GT(mx, 7'000.0) << "n=" << n;
    EXPECT_LT(mx, 13'000.0) << "n=" << n;
  }
}

TEST(Workload, ThreeHundredChunksBalanceBetterThanHundred) {
  // The structural reason n=300 is the paper's sweet spot: at n=100 the
  // largest cluster shares its chunk with other clusters; at n=300 it
  // rides alone.
  const WorkloadModel model;
  const auto c100 = model.chunk_costs(100);
  const auto c300 = model.chunk_costs(300);
  EXPECT_GT(*std::max_element(c100.begin(), c100.end()),
            *std::max_element(c300.begin(), c300.end()));
}

TEST(Workload, Validation) {
  WorkloadParams p;
  p.proteins = 0;
  EXPECT_THROW(WorkloadModel{p}, common::InvalidArgument);
  p = WorkloadParams{};
  p.transcripts = 10;
  p.proteins = 100;
  EXPECT_THROW(WorkloadModel{p}, common::InvalidArgument);
  p = WorkloadParams{};
  p.cost_beta = 0.5;
  EXPECT_THROW(WorkloadModel{p}, common::InvalidArgument);
  p = WorkloadParams{};
  p.serial_cap3_seconds = -1;
  EXPECT_THROW(WorkloadModel{p}, common::InvalidArgument);
  const WorkloadModel model;
  EXPECT_THROW(model.chunk_costs(0), common::InvalidArgument);
}

TEST(Workload, NonFiniteOrNegativeKnobsThrow) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double WorkloadParams::*field :
       {&WorkloadParams::zipf_s, &WorkloadParams::cost_beta,
        &WorkloadParams::serial_cap3_seconds, &WorkloadParams::create_list_seconds,
        &WorkloadParams::split_base_seconds, &WorkloadParams::split_per_chunk_seconds,
        &WorkloadParams::run_cap3_fixed_seconds, &WorkloadParams::merge_joined_seconds,
        &WorkloadParams::find_unjoined_seconds, &WorkloadParams::final_merge_seconds,
        &WorkloadParams::merge_per_chunk_seconds}) {
    for (const double bad : {nan, inf, -1.0}) {
      WorkloadParams p;
      p.*field = bad;
      EXPECT_THROW(WorkloadModel{p}, common::InvalidArgument) << bad;
    }
  }
}

}  // namespace
}  // namespace pga::core
