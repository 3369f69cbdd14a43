#include "wms/exec_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <set>
#include <stdexcept>
#include <thread>

#include "common/error.hpp"
#include "sim/campus_cluster.hpp"
#include "sim/osg.hpp"
#include "wms/engine.hpp"
#include "wms/statistics.hpp"

namespace pga::wms {
namespace {

/// `handle` stands in for the index a workflow would give the job; the
/// services echo it back in TaskAttempt::job.
ConcreteJob job(const std::string& id, double cost = 10, bool setup = false,
                std::uint32_t handle = 0) {
  ConcreteJob j;
  j.id = id;
  j.transformation = "tf";
  j.cpu_seconds_hint = cost;
  j.needs_software_setup = setup;
  j.index = handle;
  return j;
}

TEST(LocalService, RunsJobsForReal) {
  std::atomic<int> executed{0};
  LocalService service(4, [&executed](const ConcreteJob&) { executed.fetch_add(1); });
  for (int i = 0; i < 10; ++i) service.submit(job("j" + std::to_string(i)));
  std::size_t completions = 0;
  while (completions < 10) {
    const auto batch = service.wait();
    ASSERT_FALSE(batch.empty());
    for (const auto& attempt : batch) {
      EXPECT_TRUE(attempt.success);
      EXPECT_GE(attempt.end_time, attempt.submit_time);
    }
    completions += batch.size();
  }
  EXPECT_EQ(executed.load(), 10);
}

TEST(LocalService, CapturesFailures) {
  LocalService service(2, [](const ConcreteJob& j) {
    if (j.id == "bad") throw std::runtime_error("kaboom");
  });
  service.submit(job("bad"));
  const auto batch = service.wait();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_FALSE(batch[0].success);
  EXPECT_EQ(batch[0].error, "kaboom");
}

TEST(LocalService, RunsPayloadsAndReportsSuccess) {
  std::atomic<int> ran{0};
  LocalService service(4, [&ran](const ConcreteJob&) { ran.fetch_add(1); });
  for (int i = 0; i < 20; ++i) service.submit(job("p" + std::to_string(i)));
  std::size_t completions = 0;
  while (completions < 20) {
    const auto batch = service.wait();
    ASSERT_FALSE(batch.empty());
    for (const auto& attempt : batch) {
      EXPECT_TRUE(attempt.success);
      EXPECT_TRUE(attempt.error.empty());
      EXPECT_GE(attempt.exec_seconds, 0.0);
      EXPECT_GE(attempt.wait_seconds, 0.0);
    }
    completions += batch.size();
  }
  EXPECT_EQ(ran.load(), 20);
}

TEST(LocalService, CapturesExceptions) {
  LocalService service(2, [](const ConcreteJob&) {
    throw std::runtime_error("task exploded");
  });
  service.submit(job("exploding", 10, false, 4));
  const auto batch = service.wait();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].job, 4u);
  EXPECT_FALSE(batch[0].success);
  EXPECT_EQ(batch[0].error, "task exploded");
}

TEST(LocalService, CapturesNonStdExceptions) {
  LocalService service(1, [](const ConcreteJob&) { throw 42; });  // NOLINT
  service.submit(job("odd"));
  const auto batch = service.wait();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_FALSE(batch[0].success);
  EXPECT_EQ(batch[0].error, "unknown exception");
}

TEST(LocalService, FailureDoesNotPoisonLaterJobs) {
  LocalService service(1, [](const ConcreteJob& j) {
    if (j.id == "bad") throw std::runtime_error("boom");
  });
  service.submit(job("bad"));
  ASSERT_FALSE(service.wait().front().success);
  service.submit(job("good", 10, false, 1));
  const auto batch = service.wait();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].job, 1u);
  EXPECT_TRUE(batch[0].success);
}

TEST(LocalService, MeasuresExecTime) {
  LocalService service(1, [](const ConcreteJob&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  service.submit(job("sleepy"));
  const auto batch = service.wait();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_GE(batch[0].exec_seconds, 0.045);
}

TEST(LocalService, WaitTimeGrowsWhenSaturated) {
  LocalService service(1, [](const ConcreteJob& j) {
    if (j.id == "first") std::this_thread::sleep_for(std::chrono::milliseconds(60));
  });
  service.submit(job("first", 10, false, 0));
  service.submit(job("second", 10, false, 1));
  std::vector<TaskAttempt> done;
  while (done.size() < 2) {
    auto batch = service.wait();
    ASSERT_FALSE(batch.empty());
    for (auto& attempt : batch) done.push_back(std::move(attempt));
  }
  ASSERT_EQ(done[1].job, 1u);  // one slot: strictly in order
  EXPECT_GE(done[1].wait_seconds, 0.05);
}

TEST(LocalService, WaitWithNothingOutstandingReturnsEmpty) {
  LocalService service(1, [](const ConcreteJob&) {});
  EXPECT_TRUE(service.wait().empty());
}

TEST(LocalService, NullRunnerRejected) {
  EXPECT_THROW(LocalService(1, nullptr), common::InvalidArgument);
}

TEST(LocalService, NowAdvances) {
  LocalService service(1, [](const ConcreteJob&) {});
  const double t0 = service.now();
  service.submit(job("x"));
  (void)service.wait();
  EXPECT_GE(service.now(), t0);
}

TEST(SimServiceOsg, InstallAndRetriesFlowThroughEngine) {
  sim::EventQueue queue;
  sim::OsgConfig config;
  config.preempt_mean = 2'000;  // some preemptions for 1000s jobs
  config.seed = 7;
  sim::OsgPlatform platform(queue, config);
  SimService service(queue, platform);

  ConcreteWorkflow wf("osg-test", "osg");
  for (int i = 0; i < 20; ++i) {
    wf.add_job(job("j" + std::to_string(i), 1'000, /*setup=*/true));
  }
  DagmanEngine engine(EngineOptions{.retries = 20, .rescue_path = {}});
  const auto report = engine.run(wf, service);
  EXPECT_TRUE(report.success);

  const auto stats = WorkflowStatistics::from_run(report);
  EXPECT_EQ(stats.jobs(), 20u);
  EXPECT_GT(stats.cumulative_install(), 0.0);
  // With preemption at this rate, some retries are overwhelmingly likely;
  // badput is recorded for failed attempts.
  if (stats.retries() > 0) {
    EXPECT_GT(stats.cumulative_badput(), 0.0);
  }
  EXPECT_EQ(service.label(), "osg");
}

TEST(SimService, DeterministicAcrossRuns) {
  const auto run_once = [] {
    sim::EventQueue queue;
    sim::OsgConfig config;
    config.seed = 99;
    sim::OsgPlatform platform(queue, config);
    SimService service(queue, platform);
    ConcreteWorkflow wf("det", "osg");
    for (int i = 0; i < 10; ++i) wf.add_job(job("j" + std::to_string(i), 500, true));
    DagmanEngine engine(EngineOptions{.retries = 10, .rescue_path = {}});
    return engine.run(wf, service).wall_seconds();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(SimService, RejectedSubmitLeavesNothingOutstanding) {
  // A job the platform rejects must not count as outstanding: wait() would
  // then report a simulation deadlock instead of "nothing to wait for".
  sim::EventQueue queue;
  sim::CampusClusterConfig config;
  config.allocated_slots = 1;
  sim::CampusClusterPlatform platform(queue, config);
  SimService service(queue, platform);
  try {
    service.submit(job("bad", std::numeric_limits<double>::quiet_NaN(), false, 2));
    ADD_FAILURE() << "a NaN cost was accepted";
  } catch (const common::InvalidArgument& err) {
    // The platform names the handle; the service adds the job's id.
    EXPECT_NE(std::string(err.what()).find("job 2 "), std::string::npos) << err.what();
    EXPECT_NE(std::string(err.what()).find("'bad'"), std::string::npos) << err.what();
  }
  EXPECT_TRUE(service.wait().empty());
  service.submit(job("good", 100, false, 3));
  const std::vector<TaskAttempt> done = service.wait();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].job, 3u);
  EXPECT_TRUE(done[0].success);
  EXPECT_EQ(done[0].node, "sandhills-node-0");
}

TEST(SimService, StatisticsAccountingIdentities) {
  sim::EventQueue queue;
  sim::OsgConfig config;
  config.seed = 13;
  sim::OsgPlatform platform(queue, config);
  SimService service(queue, platform);
  ConcreteWorkflow wf("acct", "osg");
  for (int i = 0; i < 30; ++i) wf.add_job(job("j" + std::to_string(i), 2'000, true));
  DagmanEngine engine(EngineOptions{.retries = 30, .rescue_path = {}});
  const auto report = engine.run(wf, service);
  ASSERT_TRUE(report.success);
  const auto stats = WorkflowStatistics::from_run(report);

  // Wall time can never beat perfectly-parallel execution of the goodput.
  EXPECT_GE(stats.wall_seconds() * static_cast<double>(platform.slots()) * 2.0,
            stats.cumulative_kickstart());
  // Each job's successful kickstart is at most its cost / min speed.
  for (const auto& [tf, s] : stats.per_transformation()) {
    EXPECT_GE(s.kickstart.min(), 2'000.0 / config.node_speed_max - 1e-6);
    EXPECT_LE(s.kickstart.max(), 2'000.0 / config.node_speed_min + 1e-6);
  }
  // Attempts = jobs + retries.
  EXPECT_EQ(stats.attempts(), stats.jobs() + stats.retries());
}

TEST(Statistics, RenderMentionsHeadlineNumbers) {
  RunReport report;
  report.success = true;
  report.start_time = 0;
  report.end_time = 10'000;
  JobRun run;
  run.id = "cap3_0";
  run.transformation = "run_cap3";
  run.succeeded = true;
  RecordedAttempt attempt;
  attempt.success = true;
  attempt.exec_seconds = 9'000;
  attempt.wait_seconds = 50;
  attempt.install_seconds = 300;
  run.attempts.push_back(attempt);
  report.runs.push_back(run);

  const auto stats = WorkflowStatistics::from_run(report);
  EXPECT_DOUBLE_EQ(stats.wall_seconds(), 10'000.0);
  EXPECT_DOUBLE_EQ(stats.cumulative_kickstart(), 9'000.0);
  EXPECT_DOUBLE_EQ(stats.cumulative_install(), 300.0);
  const std::string text = stats.render("test run");
  EXPECT_NE(text.find("Workflow Wall Time"), std::string::npos);
  EXPECT_NE(text.find("run_cap3"), std::string::npos);
  EXPECT_NE(text.find("2h 46m 40s"), std::string::npos);  // 10000 s
}

TEST(Statistics, RescuedJobsExcluded) {
  RunReport report;
  report.success = true;
  JobRun rescued;
  rescued.id = "done_before";
  rescued.transformation = "tf";
  rescued.succeeded = true;
  rescued.skipped_by_rescue = true;
  report.runs.push_back(rescued);
  const auto stats = WorkflowStatistics::from_run(report);
  EXPECT_EQ(stats.jobs(), 0u);
}

}  // namespace
}  // namespace pga::wms
