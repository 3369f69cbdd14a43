// Seeded chaos suite: randomized DAGs run under seeded-random fault plans
// on the simulated platforms, with the engine's hardening (attempt
// timeouts, retry backoff, node blacklisting) switched on. Every invariant
// asserted here must hold for *any* seed; the suite is fully deterministic
// — same seed, same run, byte-identical jobstate logs.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/fsutil.hpp"
#include "sim/campus_cluster.hpp"
#include "sim/osg.hpp"
#include "wms/engine.hpp"
#include "wms/fault_injection.hpp"
#include "wms/statistics.hpp"
#include "wms_test_dags.hpp"

namespace pga::wms {
namespace {

// Scenario builders shared with the golden-log suite and its fixture
// generator, so the chaos invariants and the recorded logs can never
// drift apart.
using testing::chaos_for;
using testing::hardened_options;
using testing::random_dag;

struct ChaosRun {
  RunReport report;
  std::size_t injected_hangs = 0;
};

/// One full chaos run: random DAG + chaos plan over the simulated campus
/// cluster (deterministic backend; the chaos layer supplies the failures).
ChaosRun run_chaos(std::uint64_t seed, EngineOptions options = hardened_options()) {
  sim::EventQueue queue;
  sim::CampusClusterConfig config;
  config.allocated_slots = 4;
  config.seed = seed;
  sim::CampusClusterPlatform platform(queue, config);
  SimService sim_service(queue, platform);
  FaultyService faulty(sim_service, FaultPlan().chaos(chaos_for(seed)));
  DagmanEngine engine(options);
  ChaosRun out;
  out.report = engine.run(random_dag(seed), faulty);
  out.injected_hangs = faulty.injected_hangs();
  return out;
}

class ChaosSeed : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSeed,
                         ::testing::Values(3, 17, 42, 271, 1009, 65537));

TEST_P(ChaosSeed, NoJobStartsBeforeItsParentsSucceed) {
  const auto chaos = run_chaos(GetParam());
  const auto wf = random_dag(GetParam());
  // Replay the jobstate log: SUBMIT of a job must come after SUCCESS (or
  // RESCUED) of every parent.
  std::set<std::string> finished;
  for (const auto& line : chaos.report.jobstate_log) {
    std::istringstream is(line);
    std::string time, job, event;
    is >> time >> job >> event;
    if (event == "SUCCESS" || event == "RESCUED") finished.insert(job);
    if (event == "SUBMIT") {
      for (const auto& parent : wf.parents(job)) {
        EXPECT_TRUE(finished.count(parent))
            << job << " submitted before parent " << parent << " finished";
      }
    }
  }
}

TEST_P(ChaosSeed, AttemptsNeverExceedRetryBudget) {
  const auto chaos = run_chaos(GetParam());
  const auto options = hardened_options();
  for (const auto& run : chaos.report.runs) {
    EXPECT_LE(run.attempts.size(),
              static_cast<std::size_t>(options.retries) + 1)
        << run.id;
  }
}

TEST_P(ChaosSeed, AccountingIsSelfConsistent) {
  const auto chaos = run_chaos(GetParam());
  const RunReport& report = chaos.report;

  std::size_t attempts = 0;
  std::size_t launched = 0;
  std::size_t succeeded = 0;
  std::size_t dead = 0;
  double backoff = 0;
  for (const auto& run : report.runs) {
    attempts += run.attempts.size();
    backoff += run.backoff_seconds;
    if (!run.attempts.empty()) ++launched;
    if (run.succeeded && !run.skipped_by_rescue) ++succeeded;
    if (!run.succeeded && !run.attempts.empty()) ++dead;
  }
  EXPECT_EQ(report.total_attempts, attempts);
  EXPECT_EQ(report.jobs_succeeded, succeeded);
  EXPECT_EQ(report.jobs_failed, dead);
  // Every attempt after a job's first was scheduled as a retry.
  EXPECT_EQ(report.total_retries, attempts - launched);
  EXPECT_DOUBLE_EQ(report.total_backoff_seconds, backoff);
  EXPECT_EQ(report.success,
            report.jobs_succeeded + report.jobs_skipped == report.jobs_total);

  // Timed-out attempts both appear in the log and never exceed the total.
  std::size_t timeout_lines = 0;
  for (const auto& line : report.jobstate_log) {
    if (line.find(" TIMEOUT") != std::string::npos) ++timeout_lines;
  }
  EXPECT_EQ(report.timed_out_attempts, timeout_lines);
  EXPECT_LE(report.timed_out_attempts, report.total_attempts);
  // Hangs can only be cleared by timeouts; with the timeout enabled the run
  // always terminates, and every injected hang was written off.
  EXPECT_EQ(report.timed_out_attempts, chaos.injected_hangs);

  // Blacklisted nodes are unique.
  std::set<std::string> unique(report.blacklisted_nodes.begin(),
                               report.blacklisted_nodes.end());
  EXPECT_EQ(unique.size(), report.blacklisted_nodes.size());

  // The statistics layer agrees with the report.
  const auto stats = WorkflowStatistics::from_run(report);
  EXPECT_EQ(stats.timed_out_attempts(), report.timed_out_attempts);
  EXPECT_DOUBLE_EQ(stats.total_backoff_seconds(), report.total_backoff_seconds);
  EXPECT_EQ(stats.blacklisted_nodes(), report.blacklisted_nodes.size());
  EXPECT_EQ(stats.attempts(), report.total_attempts);
}

TEST_P(ChaosSeed, SameSeedProducesByteIdenticalJobstateLogs) {
  const auto first = run_chaos(GetParam());
  const auto second = run_chaos(GetParam());
  ASSERT_EQ(first.report.jobstate_log.size(), second.report.jobstate_log.size());
  for (std::size_t i = 0; i < first.report.jobstate_log.size(); ++i) {
    EXPECT_EQ(first.report.jobstate_log[i], second.report.jobstate_log[i]) << i;
  }
  EXPECT_DOUBLE_EQ(first.report.wall_seconds(), second.report.wall_seconds());
  EXPECT_EQ(first.report.blacklisted_nodes, second.report.blacklisted_nodes);
  EXPECT_DOUBLE_EQ(first.report.total_backoff_seconds,
                   second.report.total_backoff_seconds);
}

TEST_P(ChaosSeed, RescueNeverRerunsADoneJob) {
  const std::uint64_t seed = GetParam();
  common::ScratchDir dir("chaos-rescue");
  const auto rescue = dir.file("rescue.dag");

  // First run: chaos plus one unconditionally dead job, so the run fails
  // and writes a rescue file.
  auto options = hardened_options();
  options.rescue_path = rescue;
  std::set<std::string> done_first;
  {
    sim::EventQueue queue;
    sim::CampusClusterConfig config;
    config.allocated_slots = 4;
    config.seed = seed;
    sim::CampusClusterPlatform platform(queue, config);
    SimService sim_service(queue, platform);
    FaultyService faulty(sim_service, FaultPlan()
                                          .always_fail("j12", "poisoned")
                                          .chaos(chaos_for(seed)));
    DagmanEngine engine(options);
    const auto report = engine.run(random_dag(seed), faulty);
    EXPECT_FALSE(report.success);
    ASSERT_TRUE(std::filesystem::exists(rescue));
    for (const auto& run : report.runs) {
      if (run.succeeded) done_first.insert(run.id);
    }
  }
  EXPECT_EQ(DagmanEngine::read_rescue_file(rescue), done_first);

  // Rescue run without the poison: completes, and no DONE job is re-run.
  {
    sim::EventQueue queue;
    sim::CampusClusterConfig config;
    config.allocated_slots = 4;
    config.seed = seed;
    sim::CampusClusterPlatform platform(queue, config);
    SimService sim_service(queue, platform);
    FaultyService faulty(sim_service, FaultPlan().chaos(chaos_for(seed + 1)));
    DagmanEngine engine(options);
    const auto report =
        engine.run_rescue(random_dag(seed), sim_service, rescue);
    EXPECT_TRUE(report.success);
    EXPECT_EQ(report.jobs_skipped, done_first.size());
    for (const auto& run : report.runs) {
      if (done_first.count(run.id)) {
        EXPECT_TRUE(run.skipped_by_rescue) << run.id;
        EXPECT_TRUE(run.attempts.empty()) << run.id << " was re-run";
      }
    }
  }
}

TEST_P(ChaosSeed, StagingHeavyDagSurvivesChaosWithOrderedStaging) {
  // The staging-heavy scenario shared with the scheduler and data-layer
  // suites, run without the data layer: its stage jobs execute as plain
  // simulated jobs under chaos, and the dependency bracket (stage_in
  // before any compute, stage_out after all of them) must survive any
  // injected failure pattern.
  const std::uint64_t seed = GetParam();
  sim::EventQueue queue;
  sim::CampusClusterConfig config;
  config.allocated_slots = 4;
  config.seed = seed;
  sim::CampusClusterPlatform platform(queue, config);
  SimService sim_service(queue, platform);
  auto chaos = chaos_for(seed);
  chaos.hang_probability = 0;  // keep the run bounded by retries alone
  FaultyService faulty(sim_service, FaultPlan().chaos(chaos));
  DagmanEngine engine(hardened_options());
  const auto report = engine.run(testing::staging_heavy_dag(4), faulty);
  double stage_in_done = -1;
  double last_compute_done = -1;
  for (const auto& run : report.runs) {
    if (!run.succeeded) continue;
    const double end = run.final_attempt()->end_time;
    if (run.id == "stage_in_0") stage_in_done = end;
    if (run.kind == JobKind::kCompute) {
      last_compute_done = std::max(last_compute_done, end);
      EXPECT_GE(run.attempts.front().submit_time, stage_in_done) << run.id;
    }
    if (run.id == "stage_out_0") {
      EXPECT_GE(run.attempts.front().submit_time, last_compute_done);
    }
  }
  if (report.success) {
    EXPECT_GT(stage_in_done, 0);
  }
}

TEST_P(ChaosSeed, SurvivesTheOsgBackendToo) {
  // Chaos stacked on the already-failure-prone OSG model: preemption,
  // install overheads, fluctuating capacity, plus injected faults — the
  // worst day the paper's §VI describes. The hardened engine still
  // terminates with consistent accounting.
  const std::uint64_t seed = GetParam();
  sim::EventQueue queue;
  sim::OsgConfig config;
  config.seed = seed;
  config.base_slots = 8;
  config.preempt_mean = 6'000;
  sim::OsgPlatform platform(queue, config);
  SimService sim_service(queue, platform);
  auto chaos = chaos_for(seed);
  chaos.hang_probability = 0.05;
  FaultyService faulty(sim_service, FaultPlan().chaos(chaos));
  auto options = hardened_options();
  options.retries = 10;
  options.attempt_timeout_seconds = 50'000;  // OSG waits are heavy-tailed
  DagmanEngine engine(options);
  const auto report = engine.run(random_dag(seed, 20), faulty);
  // Terminates (this line being reached is the headline assertion) with
  // coherent accounting whether or not every job survived its budget.
  std::size_t attempts = 0, launched = 0;
  for (const auto& run : report.runs) {
    attempts += run.attempts.size();
    if (!run.attempts.empty()) ++launched;
  }
  EXPECT_EQ(report.total_attempts, attempts);
  EXPECT_EQ(report.total_retries, attempts - launched);
  if (!report.success) {
    EXPECT_GT(report.jobs_failed, 0u);
  }
}

// ---------------------------------------------- generated-shape chaos sweep
//
// PR 6: the invariants above all ran on random_dag(); this sweep replays
// the core ones over *planned generator shapes* (stage jobs included), so
// the chaos hardening is demonstrated on the same topologies the policy
// ablation uses.

/// The sweep's shape grid: one staged, one wide, one level-structured.
std::vector<workload::ShapeSpec> chaos_shape_specs(std::uint64_t seed) {
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

/// run_chaos() with a planned generator shape instead of random_dag().
RunReport run_shape_chaos(const workload::ShapeSpec& spec, std::uint64_t seed) {
  const auto concrete = workload::plan_shape(spec, "sandhills");
  sim::EventQueue queue;
  sim::CampusClusterConfig config;
  config.allocated_slots = 4;
  config.seed = seed;
  sim::CampusClusterPlatform platform(queue, config);
  SimService sim_service(queue, platform);
  FaultyService faulty(sim_service, FaultPlan().chaos(chaos_for(seed)));
  DagmanEngine engine(hardened_options());
  return engine.run(concrete, faulty);
}

TEST_P(ChaosSeed, GeneratedShapesReplayByteIdenticallyUnderChaos) {
  const std::uint64_t seed = GetParam();
  for (const auto& spec : chaos_shape_specs(seed)) {
    const auto first = run_shape_chaos(spec, seed);
    const auto second = run_shape_chaos(spec, seed);
    EXPECT_EQ(first.jobstate_log, second.jobstate_log)
        << workload::spec_name(spec);
    EXPECT_EQ(first.success, second.success) << workload::spec_name(spec);
  }
}

TEST_P(ChaosSeed, GeneratedShapesKeepAccountingCoherentUnderChaos) {
  const std::uint64_t seed = GetParam();
  for (const auto& spec : chaos_shape_specs(seed)) {
    const auto report = run_shape_chaos(spec, seed);
    std::size_t attempts = 0, launched = 0;
    for (const auto& run : report.runs) {
      attempts += run.attempts.size();
      if (!run.attempts.empty()) ++launched;
    }
    EXPECT_EQ(report.total_attempts, attempts) << workload::spec_name(spec);
    EXPECT_EQ(report.total_retries, attempts - launched)
        << workload::spec_name(spec);
    if (report.success) {
      // Everything planned (closed form + both stage jobs) finished.
      EXPECT_EQ(report.jobs_succeeded,
                workload::closed_form_counts(spec).jobs + 2)
          << workload::spec_name(spec);
    } else {
      EXPECT_GT(report.jobs_failed, 0u) << workload::spec_name(spec);
    }
  }
}

}  // namespace
}  // namespace pga::wms
