// Chaos suite for the data layer: seeded transfer failures and injected
// engine-level faults stacked on modeled staging and the per-node software
// cache. The assertions mirror wms_chaos_test.cpp — every run terminates
// with coherent accounting, and a fixed seed replays byte-identically.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/digest.hpp"
#include "data/software_cache.hpp"
#include "data/staging_service.hpp"
#include "sim/campus_cluster.hpp"
#include "sim/osg.hpp"
#include "wms/engine.hpp"
#include "wms/exec_service.hpp"
#include "wms/fault_injection.hpp"
#include "wms_test_dags.hpp"

namespace pga::data {
namespace {

/// One full stacked run: OSG platform + software cache, SimService wrapped
/// in chaos faults, wrapped again in modeled staging with flaky transfers.
struct ChaosOutcome {
  bool success = false;
  std::vector<std::string> jobstate_log;
  SoftwareCache::Stats cache;
  TransferManager::Stats transfers;
  std::size_t total_attempts = 0;
  double wall = 0;
};

ChaosOutcome run_stacked(std::uint64_t seed, double transfer_failure) {
  sim::EventQueue queue;
  sim::OsgConfig platform_config;
  platform_config.seed = seed;
  platform_config.base_slots = 8;
  sim::OsgPlatform platform(queue, platform_config);

  SoftwareCache cache;
  platform.set_install_model(&cache);

  wms::SimService sim_service(queue, platform);
  auto chaos = wms::testing::chaos_for(seed);
  chaos.hang_probability = 0;  // hangs need engine timeouts, not under test here
  wms::FaultyService faulty(sim_service, wms::FaultPlan().chaos(chaos));

  TransferConfig transfer_config;
  transfer_config.failure_probability = transfer_failure;
  transfer_config.max_retries = 5;
  transfer_config.retry_backoff_seconds = 10;
  transfer_config.seed = seed ^ 0xda7aULL;
  TransferManager transfers(queue, transfer_config);
  const auto replicas = wms::testing::staging_heavy_replicas(6);
  StagingConfig staging_config;
  staging_config.execution_site = "osg";
  StagingService staging(queue, faulty, transfers, replicas, staging_config);

  wms::EngineOptions options = wms::testing::hardened_options();
  options.retries = 10;
  options.attempt_timeout_seconds = 50'000;  // OSG waits are heavy-tailed
  wms::DagmanEngine engine(options);
  const auto report =
      engine.run(wms::testing::staging_heavy_dag(6), staging);

  ChaosOutcome outcome;
  outcome.success = report.success;
  outcome.jobstate_log = report.jobstate_log;
  outcome.cache = cache.stats();
  outcome.transfers = transfers.stats();
  outcome.total_attempts = report.total_attempts;
  outcome.wall = report.wall_seconds();
  return outcome;
}

class DataChaosSeed : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, DataChaosSeed,
                         ::testing::Values(3ULL, 17ULL, 101ULL));

TEST_P(DataChaosSeed, FlakyTransfersRetryWithoutWedgingTheEngine) {
  const auto outcome = run_stacked(GetParam(), /*transfer_failure=*/0.3);
  // Terminating at all is the headline assertion; a generous per-transfer
  // retry budget should then let staging survive a 30 % failure rate.
  EXPECT_TRUE(outcome.success);
  EXPECT_GT(outcome.transfers.completed, 0u);
  // Every cold install that completed was committed; the OSG node pool is
  // far smaller than the retry-inflated attempt count, so hits occur.
  EXPECT_GT(outcome.cache.misses, 0u);
}

TEST_P(DataChaosSeed, SeededRunsReplayByteIdentically) {
  const std::uint64_t seed = GetParam();
  const auto first = run_stacked(seed, 0.3);
  const auto second = run_stacked(seed, 0.3);
  // Cache determinism under fault injection: identical hit/miss/eviction
  // telemetry, identical transfer accounting, identical jobstate log.
  EXPECT_EQ(first.cache.hits, second.cache.hits);
  EXPECT_EQ(first.cache.misses, second.cache.misses);
  EXPECT_EQ(first.cache.evictions, second.cache.evictions);
  EXPECT_EQ(first.transfers.retries, second.transfers.retries);
  EXPECT_EQ(first.transfers.bytes_moved, second.transfers.bytes_moved);
  EXPECT_EQ(first.total_attempts, second.total_attempts);
  EXPECT_DOUBLE_EQ(first.wall, second.wall);
  EXPECT_EQ(first.jobstate_log, second.jobstate_log);

  // And a different seed actually explores a different trajectory.
  const auto other = run_stacked(seed + 1, 0.3);
  EXPECT_NE(first.jobstate_log, other.jobstate_log);
}

TEST(DataChaos, TransferFailuresExhaustingRetriesStillTerminate) {
  // Near-certain transfer failure: staging jobs burn their budgets and the
  // run fails, but nothing deadlocks and the accounting stays coherent.
  const auto outcome = run_stacked(7, /*transfer_failure=*/0.97);
  EXPECT_FALSE(outcome.success);
  EXPECT_GT(outcome.transfers.failed, 0u);
  EXPECT_GT(outcome.transfers.retries, 0u);
}

// ---------------------------------------------- generated-shape stacked runs
//
// PR 6: run_stacked()'s full stack — staging + software cache + fault
// injection — replayed over planned generator shapes, with replicas from
// the generator's own catalog (cost-model-sized bytes) instead of the
// hand-built staging_heavy fixtures.

ChaosOutcome run_stacked_shape(const workload::ShapeSpec& spec,
                               std::uint64_t seed, double transfer_failure) {
  const auto workflow = workload::build_workflow(spec);
  const auto concrete = workload::plan_shape(spec, "osg");

  sim::EventQueue queue;
  sim::OsgConfig platform_config;
  platform_config.seed = seed;
  platform_config.base_slots = 8;
  sim::OsgPlatform platform(queue, platform_config);
  SoftwareCache cache;
  platform.set_install_model(&cache);

  wms::SimService sim_service(queue, platform);
  auto chaos = wms::testing::chaos_for(seed);
  chaos.hang_probability = 0;
  wms::FaultyService faulty(sim_service, wms::FaultPlan().chaos(chaos));

  TransferConfig transfer_config;
  transfer_config.failure_probability = transfer_failure;
  transfer_config.max_retries = 5;
  transfer_config.retry_backoff_seconds = 10;
  transfer_config.seed = seed ^ 0xda7aULL;
  TransferManager transfers(queue, transfer_config);
  const auto replicas = workload::generator_replica_catalog(workflow, spec);
  StagingConfig staging_config;
  staging_config.execution_site = concrete.site();
  StagingService staging(queue, faulty, transfers, replicas, staging_config);

  wms::EngineOptions options = wms::testing::hardened_options();
  options.retries = 10;
  options.attempt_timeout_seconds = 50'000;
  wms::DagmanEngine engine(options);
  const auto report = engine.run(concrete, staging);

  ChaosOutcome outcome;
  outcome.success = report.success;
  outcome.jobstate_log = report.jobstate_log;
  outcome.cache = cache.stats();
  outcome.transfers = transfers.stats();
  outcome.total_attempts = report.total_attempts;
  outcome.wall = report.wall_seconds();
  return outcome;
}

std::vector<workload::ShapeSpec> stacked_shape_specs(std::uint64_t seed) {
  std::vector<workload::ShapeSpec> specs;
  for (const workload::Shape shape :
       {workload::Shape::kDiamond, workload::Shape::kFan,
        workload::Shape::kMontage}) {
    workload::ShapeSpec spec;
    spec.shape = shape;
    spec.size = 6;
    spec.seed = seed;
    specs.push_back(spec);
  }
  return specs;
}

TEST_P(DataChaosSeed, GeneratedShapesSurviveTheFullStack) {
  const std::uint64_t seed = GetParam();
  for (const auto& spec : stacked_shape_specs(seed)) {
    const auto outcome = run_stacked_shape(spec, seed, /*transfer_failure=*/0.3);
    EXPECT_TRUE(outcome.success) << workload::spec_name(spec);
    // Real staging happened (the generator's replicas were resolved) and
    // OSG's cold installs went through the cache.
    EXPECT_GT(outcome.transfers.completed, 0u) << workload::spec_name(spec);
    EXPECT_GT(outcome.cache.misses, 0u) << workload::spec_name(spec);
  }
}

TEST_P(DataChaosSeed, GeneratedShapesReplayByteIdenticallyOnTheFullStack) {
  const std::uint64_t seed = GetParam();
  for (const auto& spec : stacked_shape_specs(seed)) {
    const auto first = run_stacked_shape(spec, seed, 0.3);
    const auto second = run_stacked_shape(spec, seed, 0.3);
    EXPECT_EQ(first.jobstate_log, second.jobstate_log)
        << workload::spec_name(spec);
    EXPECT_EQ(first.cache.hits, second.cache.hits) << workload::spec_name(spec);
    EXPECT_EQ(first.cache.misses, second.cache.misses)
        << workload::spec_name(spec);
    EXPECT_EQ(first.transfers.retries, second.transfers.retries)
        << workload::spec_name(spec);
    EXPECT_EQ(first.transfers.bytes_moved, second.transfers.bytes_moved)
        << workload::spec_name(spec);
    EXPECT_DOUBLE_EQ(first.wall, second.wall) << workload::spec_name(spec);
  }
}

// ------------------------------------------------ lean vs full reports
//
// The lean report (EngineOptions::lean_report) keeps counters and a
// streamed digest instead of the log and the roster. Both modes must
// account the densest event stream the same way: chaos with hangs over
// modeled staging, with attempt timeouts, retry backoff and node
// blacklisting all switched on.

/// Compute jobs per run: enough attempts that every seed below hangs one
/// attempt into a timeout and fails one node three times in a row.
constexpr std::size_t kWidth = 32;

/// One hardened staging-heavy run on `site` ("sandhills" or "osg").
wms::RunReport run_report_mode(std::uint64_t seed, const std::string& site,
                               bool lean) {
  sim::EventQueue queue;
  std::unique_ptr<sim::ExecutionPlatform> platform;
  wms::EngineOptions options = wms::testing::hardened_options();
  if (site == "sandhills") {
    sim::CampusClusterConfig config;
    config.allocated_slots = 4;
    config.seed = seed;
    platform = std::make_unique<sim::CampusClusterPlatform>(queue, config);
  } else {
    sim::OsgConfig config;
    config.seed = seed;
    config.base_slots = 8;
    platform = std::make_unique<sim::OsgPlatform>(queue, config);
    options.retries = 10;
    options.attempt_timeout_seconds = 50'000;  // OSG waits are heavy-tailed
  }
  options.lean_report = lean;

  wms::SimService sim_service(queue, *platform);
  wms::FaultyService faulty(sim_service,
                            wms::FaultPlan().chaos(wms::testing::chaos_for(seed)));
  TransferConfig transfer_config;
  transfer_config.failure_probability = 0.3;
  transfer_config.max_retries = 5;
  transfer_config.retry_backoff_seconds = 10;
  transfer_config.seed = seed ^ 0xda7aULL;
  TransferManager transfers(queue, transfer_config);
  add_site_elements(transfers, workload::generator_site_catalog(),
                    /*transfer_slots=*/4);
  const auto replicas = wms::testing::staging_heavy_replicas(kWidth, site);
  StagingConfig staging_config;
  staging_config.execution_site = site;
  StagingService staging(queue, faulty, transfers, replicas, staging_config);

  wms::DagmanEngine engine(options);
  return engine.run(wms::testing::staging_heavy_dag(kWidth, site), staging);
}

/// Number of jobstate lines whose event is `event` ("TIMEOUT", ...).
std::size_t count_event(const std::vector<std::string>& log, const std::string& event) {
  std::size_t count = 0;
  for (const auto& line : log) {
    if (line.find(' ' + event) != std::string::npos) ++count;
  }
  return count;
}

class LeanReportSeed : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, LeanReportSeed,
                         ::testing::Values(3ULL, 17ULL, 42ULL, 101ULL));

TEST_P(LeanReportSeed, LeanAndFullReportsAgreeUnderChaosAndStaging) {
  const std::uint64_t seed = GetParam();
  for (const std::string site : {"sandhills", "osg"}) {
    const auto full = run_report_mode(seed, site, /*lean=*/false);
    const auto lean = run_report_mode(seed, site, /*lean=*/true);
    EXPECT_TRUE(lean.jobstate_log.empty()) << site;
    EXPECT_TRUE(lean.runs.empty()) << site;
    EXPECT_EQ(full.jobstate_digest, common::lines_digest(full.jobstate_log)) << site;
    EXPECT_EQ(lean.jobstate_digest, full.jobstate_digest) << site;
    EXPECT_EQ(lean.jobstate_lines, full.jobstate_log.size()) << site;
    EXPECT_EQ(lean.success, full.success) << site;
    EXPECT_EQ(lean.error, full.error) << site;
    EXPECT_EQ(lean.workflow, full.workflow) << site;
    EXPECT_EQ(lean.service, full.service) << site;
    EXPECT_DOUBLE_EQ(lean.start_time, full.start_time) << site;
    EXPECT_DOUBLE_EQ(lean.end_time, full.end_time) << site;
    EXPECT_EQ(lean.jobs_total, full.jobs_total) << site;
    EXPECT_EQ(lean.jobs_succeeded, full.jobs_succeeded) << site;
    EXPECT_EQ(lean.jobs_failed, full.jobs_failed) << site;
    EXPECT_EQ(lean.jobs_skipped, full.jobs_skipped) << site;
    EXPECT_EQ(lean.total_attempts, full.total_attempts) << site;
    EXPECT_EQ(lean.total_retries, full.total_retries) << site;
    EXPECT_EQ(lean.timed_out_attempts, full.timed_out_attempts) << site;
    EXPECT_DOUBLE_EQ(lean.total_backoff_seconds, full.total_backoff_seconds) << site;
    EXPECT_EQ(lean.blacklisted_nodes, full.blacklisted_nodes) << site;
    // The full roster agrees with the success tally both modes keep.
    std::size_t succeeded = 0;
    for (const auto& run : full.runs) succeeded += run.succeeded ? 1 : 0;
    EXPECT_EQ(full.jobs_succeeded, succeeded) << site;
    // The run exercised every hardening line, not just SUBMIT/SUCCESS.
    EXPECT_GT(count_event(full.jobstate_log, "TIMEOUT"), 0u) << site;
    EXPECT_GT(count_event(full.jobstate_log, "BACKOFF"), 0u) << site;
    EXPECT_GT(count_event(full.jobstate_log, "BLACKLIST"), 0u) << site;
  }
}

}  // namespace
}  // namespace pga::data
