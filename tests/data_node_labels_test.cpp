// The bytes that name execution hosts: the kickstart records' host=, the
// attempts CSV's node column and the jobstate log's BLACKLIST lines. Node
// labels travel from the platforms and services to these writers as
// views; these runs pin what the writers print for each kind of label
// (campus node, OSG site, chaos node, "<site>-se" storage element). The
// digests were recorded when attempts still carried the labels as owned
// strings.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/digest.hpp"
#include "common/fsutil.hpp"
#include "data/staging_service.hpp"
#include "sim/campus_cluster.hpp"
#include "sim/osg.hpp"
#include "wms/analyzer.hpp"
#include "wms/engine.hpp"
#include "wms/fault_injection.hpp"
#include "wms/kickstart.hpp"
#include "wms_test_dags.hpp"

namespace pga::data {
namespace {

/// What the host-naming writers print for one full-mode report.
struct Emitted {
  std::string csv;                     ///< wms::attempts_csv
  std::string kickstart;               ///< every record, in file order
  std::vector<std::string> blacklist;  ///< the BLACKLIST jobstate lines

  /// FNV-1a over all three, the pin these tests hold the bytes to.
  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t hash = common::fnv1a(common::fnv1a(csv), kickstart);
    for (const auto& line : blacklist) hash = common::fnv1a(common::fnv1a(hash, line), "\n");
    return hash;
  }
};

Emitted emit(const wms::RunReport& report, const std::string& scratch) {
  Emitted out;
  out.csv = wms::attempts_csv(report);
  common::ScratchDir dir(scratch);
  for (const auto& path : wms::write_invocation_records(report, dir.path())) {
    out.kickstart += common::read_file(path);
  }
  for (const auto& line : report.jobstate_log) {
    if (line.find(" BLACKLIST ") != std::string::npos) out.blacklist.push_back(line);
  }
  return out;
}

/// True when `label` is printed as a host by both record writers.
bool printed_as_host(const Emitted& emitted, const std::string& label) {
  return emitted.csv.find("," + label + ",") != std::string::npos &&
         emitted.kickstart.find("host=\"" + label + "\"") != std::string::npos;
}

wms::ConcreteWorkflow independent_jobs(std::size_t count, double cost, bool setup) {
  wms::ConcreteWorkflow workflow("labels", "sim");
  for (std::size_t i = 0; i < count; ++i) {
    wms::ConcreteJob job;
    job.id = "job_" + std::to_string(i);
    job.transformation = "run_cap3";
    job.cpu_seconds_hint = cost;
    job.needs_software_setup = setup;
    workflow.add_job(std::move(job));
  }
  return workflow;
}

TEST(NodeLabels, CampusNodesAndStorageElementsReachTheRecords) {
  sim::EventQueue queue;
  sim::CampusClusterPlatform platform(queue, {});
  wms::SimService sim_service(queue, platform);
  TransferManager transfers(queue, {});
  const wms::ReplicaCatalog replicas = wms::testing::staging_heavy_replicas(4);
  StagingConfig config;
  config.execution_site = "osg";
  StagingService staging(queue, sim_service, transfers, replicas, config);
  const auto report =
      wms::DagmanEngine().run(wms::testing::staging_heavy_dag(4), staging);
  ASSERT_TRUE(report.success);
  const Emitted emitted = emit(report, "labels-campus");
  EXPECT_TRUE(printed_as_host(emitted, "sandhills-node-0"));
  EXPECT_TRUE(printed_as_host(emitted, "sandhills-node-3"));
  EXPECT_TRUE(printed_as_host(emitted, "osg-se"));
  EXPECT_TRUE(emitted.blacklist.empty());
  EXPECT_EQ(emitted.digest(), 11415894769476243407ULL);
}

TEST(NodeLabels, PreemptedOsgSitesAreBlacklistedByName) {
  sim::EventQueue queue;
  sim::OsgConfig config;
  config.preempt_mean = 1'500;
  config.seed = 23;
  sim::OsgPlatform platform(queue, config);
  wms::SimService service(queue, platform);
  wms::EngineOptions options;
  options.retries = 30;
  options.node_blacklist_threshold = 1;
  const auto report =
      wms::DagmanEngine(options).run(independent_jobs(12, 2'000, true), service);
  ASSERT_TRUE(report.success);
  const Emitted emitted = emit(report, "labels-osg");
  ASSERT_FALSE(emitted.blacklist.empty());
  for (const auto& line : emitted.blacklist) {
    EXPECT_NE(line.find(" BLACKLIST osg-site-"), std::string::npos) << line;
  }
  EXPECT_TRUE(printed_as_host(emitted, "osg-site-0"));
  EXPECT_EQ(emitted.digest(), 14169438424367252240ULL);
}

TEST(NodeLabels, ChaosNodesReachTheRecordsAndTheBlacklist) {
  sim::EventQueue queue;
  sim::CampusClusterPlatform platform(queue, {});
  wms::SimService sim_service(queue, platform);
  wms::ChaosConfig chaos;
  chaos.fail_probability = 0.3;
  chaos.corrupt_probability = 0.4;
  chaos.seed = 5;
  wms::FaultyService faulty(sim_service, wms::FaultPlan().chaos(chaos));
  wms::EngineOptions options;
  options.retries = 20;
  options.node_blacklist_threshold = 2;
  const auto report =
      wms::DagmanEngine(options).run(independent_jobs(20, 300, false), faulty);
  ASSERT_TRUE(report.success);
  const Emitted emitted = emit(report, "labels-chaos");
  EXPECT_TRUE(printed_as_host(emitted, "chaos-node"));
  bool numbered = false;
  for (const char* label : {"chaos-node-0", "chaos-node-1", "chaos-node-2", "chaos-node-3"}) {
    numbered = numbered || printed_as_host(emitted, label);
  }
  EXPECT_TRUE(numbered);
  ASSERT_EQ(emitted.blacklist.size(), 1u);
  EXPECT_TRUE(emitted.blacklist[0].ends_with(" BLACKLIST chaos-node")) << emitted.blacklist[0];
  EXPECT_EQ(emitted.digest(), 4202789619547552090ULL);
}

TEST(NodeLabels, FailingStorageElementsAreBlacklistedByName) {
  sim::EventQueue queue;
  sim::CampusClusterPlatform platform(queue, {});
  wms::SimService sim_service(queue, platform);
  TransferConfig transfer_config;
  transfer_config.failure_probability = 0.999999;  // every transfer fails
  transfer_config.max_retries = 1;
  transfer_config.retry_backoff_seconds = 1;
  TransferManager transfers(queue, transfer_config);
  const wms::ReplicaCatalog replicas = wms::testing::staging_heavy_replicas(2);
  StagingConfig config;
  config.execution_site = "osg";
  StagingService staging(queue, sim_service, transfers, replicas, config);
  wms::EngineOptions options;
  options.retries = 2;
  options.node_blacklist_threshold = 1;
  const auto report =
      wms::DagmanEngine(options).run(wms::testing::staging_heavy_dag(2), staging);
  ASSERT_FALSE(report.success);
  const Emitted emitted = emit(report, "labels-se");
  EXPECT_TRUE(printed_as_host(emitted, "osg-se"));
  ASSERT_EQ(emitted.blacklist.size(), 1u);
  EXPECT_TRUE(emitted.blacklist[0].ends_with(" stage_in_0 BLACKLIST osg-se"))
      << emitted.blacklist[0];
  EXPECT_EQ(emitted.digest(), 3014031597907811728ULL);
}

}  // namespace
}  // namespace pga::data
