#include "data/staging_service.hpp"

#include <gtest/gtest.h>

#include <map>

#include "common/error.hpp"
#include "sim/campus_cluster.hpp"
#include "wms/engine.hpp"
#include "wms/exec_service.hpp"
#include "wms_test_dags.hpp"

namespace pga::data {
namespace {

constexpr std::uint64_t kMiB = 1024 * 1024;

/// Full staging harness over the shared staging-heavy scenario.
struct Harness {
  sim::EventQueue queue;
  sim::CampusClusterPlatform platform;
  wms::SimService sim_service;
  TransferManager transfers;
  wms::ReplicaCatalog replicas;
  StagingService staging;

  explicit Harness(TransferConfig transfer_config = {}, StagingConfig config = {},
                   std::size_t width = 4)
      : platform(queue, {}),
        sim_service(queue, platform),
        transfers(queue, transfer_config),
        replicas(wms::testing::staging_heavy_replicas(width)),
        staging(queue, sim_service, transfers, replicas, on_osg(std::move(config))) {}

  /// The shared scenario executes on "osg"; jobs no longer carry a site.
  static StagingConfig on_osg(StagingConfig config) {
    if (config.execution_site.empty()) config.execution_site = "osg";
    return config;
  }
};

TEST(StagingService, RunsTheStagingHeavyDagEndToEnd) {
  Harness h;
  wms::DagmanEngine engine(wms::EngineOptions{});
  const auto report = engine.run(wms::testing::staging_heavy_dag(4), h.staging);
  ASSERT_TRUE(report.success);
  EXPECT_EQ(h.staging.staged_jobs(), 2u);  // stage_in_0 + stage_out_0

  std::map<std::string, const wms::RecordedAttempt*> final;
  for (const auto& run : report.runs) final[run.id] = run.final_attempt();
  // Stage-in moved the 4 reference files; sizes come from the replicas.
  ASSERT_NE(final["stage_in_0"], nullptr);
  EXPECT_EQ(final["stage_in_0"]->transferred_bytes, 4 * 64 * kMiB);
  EXPECT_EQ(final["stage_in_0"]->transfer_attempts, 4u);
  EXPECT_EQ(final["stage_in_0"]->node, "osg-se");
  // Outputs have no replica entries and default_file_bytes is 0.
  ASSERT_NE(final["stage_out_0"], nullptr);
  EXPECT_EQ(final["stage_out_0"]->transferred_bytes, 0u);
  EXPECT_EQ(final["stage_out_0"]->transfer_attempts, 4u);
  // Compute jobs passed through to the simulated platform untouched.
  ASSERT_NE(final["run_cap3_0"], nullptr);
  EXPECT_GT(final["run_cap3_0"]->exec_seconds, 0);
  EXPECT_EQ(final["run_cap3_0"]->transferred_bytes, 0u);

  EXPECT_EQ(h.transfers.stats().completed, 8u);
  EXPECT_EQ(h.transfers.stats().bytes_moved, 4 * 64 * kMiB);
}

TEST(StagingService, ReplicaMirrorsShortCircuitToSameSite) {
  // Even-numbered references are mirrored on the execution site, so their
  // stage-in is latency-only; odd ones cross from "local". With the
  // default 100 MB/s elements, 64 MiB takes ~0.67 s on top of latency.
  Harness h;
  wms::DagmanEngine engine(wms::EngineOptions{});
  ASSERT_TRUE(engine.run(wms::testing::staging_heavy_dag(2), h.staging).success);
  EXPECT_TRUE(h.transfers.element("osg").holds("reference_0.fasta"));
  EXPECT_TRUE(h.transfers.element("osg").holds("reference_1.fasta"));
  // Only the cross-site copy counted against the wide-area path; both
  // transfers landed, so bytes_moved covers both files.
  EXPECT_EQ(h.transfers.stats().bytes_moved, 2 * 64 * kMiB);
}

TEST(StagingService, DefaultFileBytesPricesUnknownOutputs) {
  StagingConfig config;
  config.default_file_bytes = 10 * kMiB;
  Harness h({}, config);
  wms::DagmanEngine engine(wms::EngineOptions{});
  const auto report = engine.run(wms::testing::staging_heavy_dag(4), h.staging);
  ASSERT_TRUE(report.success);
  for (const auto& run : report.runs) {
    if (run.id != "stage_out_0") continue;
    EXPECT_EQ(run.final_attempt()->transferred_bytes, 4 * 10 * kMiB);
  }
}

TEST(StagingService, ExhaustedTransferRetriesFailTheAttemptNotTheEngine) {
  TransferConfig transfer_config;
  transfer_config.failure_probability = 0.999999;  // every attempt fails
  transfer_config.max_retries = 1;
  transfer_config.retry_backoff_seconds = 1;
  Harness h(transfer_config);
  wms::EngineOptions options;
  options.retries = 2;
  wms::DagmanEngine engine(options);
  const auto report = engine.run(wms::testing::staging_heavy_dag(2), h.staging);
  // The run fails — but terminates, with the staging failure attributed.
  EXPECT_FALSE(report.success);
  EXPECT_GT(report.jobs_failed, 0u);
  for (const auto& run : report.runs) {
    if (run.id != "stage_in_0") continue;
    EXPECT_FALSE(run.succeeded);
    ASSERT_FALSE(run.attempts.empty());
    EXPECT_FALSE(run.attempts.back().success);
    EXPECT_NE(run.attempts.back().error.find("transfer failed"),
              std::string::npos);
  }
  EXPECT_GT(h.transfers.stats().failed, 0u);
}

TEST(StagingService, AttemptsEchoTheirHandles) {
  // Staged and passed-through attempts alike come back under the handle
  // of the job they ran, whatever order they finish in.
  Harness h;
  const wms::ConcreteWorkflow workflow = wms::testing::staging_heavy_dag(4);
  for (const char* id : {"stage_in_0", "run_cap3_2", "stage_out_0"}) {
    h.staging.submit(workflow.job(id));
  }
  std::map<std::uint32_t, std::string> nodes;
  for (int round = 0; round < 10 && nodes.size() < 3; ++round) {
    for (const auto& attempt : h.staging.wait()) {
      EXPECT_TRUE(attempt.success);
      EXPECT_TRUE(nodes.emplace(attempt.job, attempt.node).second) << attempt.job;
    }
  }
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes.at(workflow.ids().find("stage_in_0")), "osg-se");
  EXPECT_EQ(nodes.at(workflow.ids().find("stage_out_0")), "osg-se");
  EXPECT_TRUE(nodes.at(workflow.ids().find("run_cap3_2")).starts_with("sandhills-node-"));
}

TEST(StagingService, TransfersThatOutliveTheServiceAreDropped) {
  // A workflow that gave up on a staging job is torn down with the job's
  // transfers still queued on the shared manager: they run to their end,
  // and their callbacks must not touch the destroyed service.
  sim::EventQueue queue;
  sim::CampusClusterPlatform platform(queue, {});
  wms::SimService sim_service(queue, platform);
  TransferManager transfers(queue, {});
  const wms::ReplicaCatalog replicas = wms::testing::staging_heavy_replicas(4);
  const wms::ConcreteWorkflow workflow = wms::testing::staging_heavy_dag(4);
  {
    StagingService staging(queue, sim_service, transfers, replicas,
                           Harness::on_osg({}));
    staging.submit(workflow.job("stage_in_0"));
  }
  queue.run();
  EXPECT_EQ(transfers.stats().completed, 4u);
}

TEST(StagingService, RejectsEmptySubmitSite) {
  sim::EventQueue queue;
  sim::CampusClusterPlatform platform(queue, {});
  wms::SimService sim_service(queue, platform);
  TransferManager transfers(queue);
  wms::ReplicaCatalog replicas;
  StagingConfig config;
  config.submit_site = "";
  config.execution_site = "osg";
  EXPECT_THROW(
      StagingService(queue, sim_service, transfers, replicas, config),
      common::InvalidArgument);
}

TEST(StagingService, RejectsEmptyExecutionSite) {
  sim::EventQueue queue;
  sim::CampusClusterPlatform platform(queue, {});
  wms::SimService sim_service(queue, platform);
  TransferManager transfers(queue);
  wms::ReplicaCatalog replicas;
  EXPECT_THROW(StagingService(queue, sim_service, transfers, replicas, {}),
               common::InvalidArgument);
}

}  // namespace
}  // namespace pga::data
