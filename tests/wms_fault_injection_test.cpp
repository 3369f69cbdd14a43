// Table-driven coverage of every FaultPlan directive against a stub
// service, plus the FaultyService/engine interplay each directive exists
// to exercise (retry budgets, attempt timeouts, node blacklisting).
#include "wms/fault_injection.hpp"

#include <gtest/gtest.h>

#include <map>

#include "common/error.hpp"
#include "sim/campus_cluster.hpp"
#include "wms/engine.hpp"

namespace pga::wms {
namespace {

/// Deterministic stub with a controllable clock: every submission succeeds
/// on the next wait()/wait_for() call, 10 s of fake time per batch.
/// wait_for() advances the fake clock to its deadline when nothing is
/// pending, which is what lets engine timeouts and backoffs elapse.
class StubService final : public ExecutionService {
 public:
  void submit(const ConcreteJob& job) override {
    pending_.push_back(job.index);
    submissions.push_back(job.id);
  }

  std::vector<TaskAttempt> wait() override { return complete_pending(); }

  std::vector<TaskAttempt> wait_for(double timeout_seconds) override {
    if (pending_.empty()) {
      time_ += timeout_seconds;  // burn idle time so deadlines can pass
      return {};
    }
    return complete_pending();
  }

  double now() override { return time_; }
  [[nodiscard]] std::string label() const override { return "stub"; }

  std::vector<std::string> submissions;  ///< all forwarded submissions
  std::string node = "stub-node";        ///< node reported on completions

 private:
  std::vector<TaskAttempt> complete_pending() {
    std::vector<TaskAttempt> out;
    for (const std::uint32_t handle : pending_) {
      TaskAttempt attempt;
      attempt.job = handle;
      attempt.success = true;
      attempt.node = node;
      attempt.submit_time = time_;
      attempt.end_time = time_ + 10;
      attempt.exec_seconds = 10;
      out.push_back(std::move(attempt));
    }
    pending_.clear();
    time_ += 10;
    return out;
  }

  std::vector<std::uint32_t> pending_;  ///< job handles
  double time_ = 0;
};

ConcreteJob job(const std::string& id) {
  ConcreteJob j;
  j.id = id;
  j.transformation = "tf";
  return j;
}

/// Chain: a -> b.
ConcreteWorkflow chain() {
  ConcreteWorkflow wf("chain", "stub");
  wf.add_job(job("a"));
  wf.add_job(job("b"));
  wf.add_dependency("a", "b");
  return wf;
}

// --------------------------------------------------- directive table tests

TEST(FaultPlan, FailKTimesThenSucceed) {
  StubService stub;
  FaultyService faulty(stub, FaultPlan().fail_first("a", 2, "boom"));
  DagmanEngine engine(EngineOptions{.retries = 3});
  const auto report = engine.run(chain(), faulty);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.total_retries, 2u);
  EXPECT_EQ(faulty.injected_failures(), 2u);
  // The first two attempts never reached the inner service.
  EXPECT_EQ(stub.submissions, (std::vector<std::string>{"a", "b"}));
  // The injected error string is what the attempts record.
  const auto& runs = report.runs;
  for (const auto& run : runs) {
    if (run.id != "a") continue;
    ASSERT_EQ(run.attempts.size(), 3u);
    EXPECT_EQ(run.attempts[0].error, "boom");
    EXPECT_EQ(run.attempts[1].error, "boom");
    EXPECT_TRUE(run.attempts[2].success);
  }
}

TEST(FaultPlan, PermanentFailurePastRetryBudget) {
  StubService stub;
  FaultyService faulty(stub, FaultPlan().always_fail("a", "dead node"));
  DagmanEngine engine(EngineOptions{.retries = 2});
  const auto report = engine.run(chain(), faulty);
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.jobs_failed, 1u);
  EXPECT_EQ(report.total_attempts, 3u);  // 1 + 2 retries, all injected
  EXPECT_EQ(faulty.injected_failures(), 3u);
  EXPECT_TRUE(stub.submissions.empty());  // nothing ever really ran
}

TEST(FaultPlan, HangBecomesTimeoutInsteadOfDeadlock) {
  StubService stub;
  FaultyService faulty(stub, FaultPlan().hang("a", 1));
  DagmanEngine engine(EngineOptions{.retries = 1, .attempt_timeout_seconds = 60});
  const auto report = engine.run(chain(), faulty);
  EXPECT_TRUE(report.success);  // retry (attempt 2) is not hung
  EXPECT_EQ(report.timed_out_attempts, 1u);
  EXPECT_EQ(faulty.injected_hangs(), 1u);
  bool saw_timeout_line = false;
  for (const auto& line : report.jobstate_log) {
    if (line.find("TIMEOUT") != std::string::npos) saw_timeout_line = true;
  }
  EXPECT_TRUE(saw_timeout_line);
  // The timed-out attempt is recorded with the timeout error.
  for (const auto& run : report.runs) {
    if (run.id != "a") continue;
    ASSERT_EQ(run.attempts.size(), 2u);
    EXPECT_FALSE(run.attempts[0].success);
    EXPECT_NE(run.attempts[0].error.find("timed out"), std::string::npos);
    EXPECT_TRUE(run.attempts[1].success);
  }
}

TEST(FaultPlan, HangWithoutTimeoutFailsFastNotForever) {
  // Without an engine timeout a hung attempt cannot complete; the engine
  // must fail fast (no completions -> WorkflowError), never block forever.
  StubService stub;
  FaultyService faulty(stub, FaultPlan().hang("a", 1));
  DagmanEngine engine(EngineOptions{.retries = 0});
  EXPECT_THROW(engine.run(chain(), faulty), common::WorkflowError);
}

TEST(FaultPlan, DelayedCompletionStretchesAttempt) {
  StubService stub;
  FaultyService faulty(stub, FaultPlan().delay("a", 1, 500));
  DagmanEngine engine;
  const auto report = engine.run(chain(), faulty);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(faulty.injected_delays(), 1u);
  for (const auto& run : report.runs) {
    if (run.id != "a") continue;
    ASSERT_EQ(run.attempts.size(), 1u);
    EXPECT_GE(run.attempts[0].exec_seconds, 500.0);
  }
}

TEST(FaultPlan, DelayPastTimeoutIsDeclaredDead) {
  // A completion delayed beyond the attempt timeout: the engine writes the
  // attempt off, the straggler completion is dropped, and the retry wins.
  StubService stub;
  FaultyService faulty(stub, FaultPlan().delay("a", 1, 1'000));
  DagmanEngine engine(EngineOptions{.retries = 1, .attempt_timeout_seconds = 100});
  const auto report = engine.run(chain(), faulty);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.timed_out_attempts, 1u);
  for (const auto& run : report.runs) {
    if (run.id != "a") continue;
    EXPECT_EQ(run.attempts.size(), 2u);
    EXPECT_TRUE(run.attempts.back().success);
  }
}

TEST(FaultPlan, CorruptedNodeIsReported) {
  StubService stub;
  FaultyService faulty(stub, FaultPlan().corrupt_node("a", 1, "evil-host"));
  DagmanEngine engine;
  const auto report = engine.run(chain(), faulty);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(faulty.corrupted_nodes(), 1u);
  for (const auto& run : report.runs) {
    if (run.id == "a") {
      EXPECT_EQ(run.attempts.at(0).node, "evil-host");
    }
    if (run.id == "b") {
      EXPECT_EQ(run.attempts.at(0).node, "stub-node");
    }
  }
}

TEST(FaultPlan, FailWithNodeFeedsBlacklistLedger) {
  // Repeated injected failures attributed to one node blacklist it, and
  // the engine passes the hint down through the decorator.
  StubService stub;
  FaultyService faulty(stub,
                       FaultPlan().fail_first("a", 2, "io error", "flaky-host"));
  DagmanEngine engine(
      EngineOptions{.retries = 3, .node_blacklist_threshold = 2});
  const auto report = engine.run(chain(), faulty);
  EXPECT_TRUE(report.success);
  ASSERT_EQ(report.blacklisted_nodes.size(), 1u);
  EXPECT_EQ(report.blacklisted_nodes[0], "flaky-host");
}

// --------------------------------------------------------- plan mechanics

TEST(FaultPlan, DirectivesMatchPerAttemptIndex) {
  FaultPlan plan;
  plan.fail("x", 2).hang("x", 3).delay("y", 0, 5);
  EXPECT_TRUE(plan.match("x", 1).empty());
  ASSERT_EQ(plan.match("x", 2).size(), 1u);
  EXPECT_EQ(plan.match("x", 2)[0]->action, FaultAction::kFail);
  ASSERT_EQ(plan.match("x", 3).size(), 1u);
  EXPECT_EQ(plan.match("x", 3)[0]->action, FaultAction::kHang);
  // attempt == 0 is a wildcard.
  EXPECT_EQ(plan.match("y", 1).size(), 1u);
  EXPECT_EQ(plan.match("y", 7).size(), 1u);
  EXPECT_TRUE(plan.match("z", 1).empty());
}

TEST(FaultPlan, RejectsBadArguments) {
  EXPECT_THROW(FaultPlan().fail("x", -1), common::InvalidArgument);
  EXPECT_THROW(FaultPlan().delay("x", 1, -2.0), common::InvalidArgument);
  EXPECT_THROW(FaultPlan().corrupt_node("x", 1, ""), common::InvalidArgument);
  ChaosConfig bad;
  bad.fail_probability = 0.8;
  bad.hang_probability = 0.5;
  EXPECT_THROW(FaultPlan().chaos(bad), common::InvalidArgument);
}

TEST(FaultyService, LabelAndPassThrough) {
  StubService stub;
  FaultyService faulty(stub, FaultPlan());
  EXPECT_EQ(faulty.label(), "faulty(stub)");
  DagmanEngine engine;
  const auto report = engine.run(chain(), faulty);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.total_attempts, 2u);
  EXPECT_EQ(stub.submissions.size(), 2u);
  EXPECT_EQ(faulty.injected_failures() + faulty.injected_hangs() +
                faulty.injected_delays() + faulty.corrupted_nodes(),
            0u);
}

TEST(FaultyService, ChaosModeIsSeedDeterministic) {
  const auto run_once = [](std::uint64_t seed) {
    StubService stub;
    ChaosConfig chaos;
    chaos.fail_probability = 0.3;
    chaos.delay_probability = 0.2;
    chaos.max_delay_seconds = 50;
    chaos.seed = seed;
    FaultyService faulty(stub, FaultPlan().chaos(chaos));
    ConcreteWorkflow wf("soak", "stub");
    for (int i = 0; i < 25; ++i) wf.add_job(job("j" + std::to_string(i)));
    DagmanEngine engine(EngineOptions{.retries = 10});
    const auto report = engine.run(wf, faulty);
    std::string log;
    for (const auto& line : report.jobstate_log) log += line + "\n";
    return log;
  };
  EXPECT_EQ(run_once(11), run_once(11));
  // A different seed gives a different fault stream (overwhelmingly likely
  // with 25 jobs at these probabilities).
  EXPECT_NE(run_once(11), run_once(12));
}

TEST(FaultyService, ComposesWithSimService) {
  // The same plan drives the discrete-event backend: inject a failure and
  // a delay into a simulated campus-cluster run.
  sim::EventQueue queue;
  sim::CampusClusterConfig config;
  config.allocated_slots = 2;
  sim::CampusClusterPlatform platform(queue, config);
  SimService sim_service(queue, platform);
  FaultyService faulty(sim_service,
                       FaultPlan().fail("a", 1, "preempted").delay("b", 1, 2'000));

  ConcreteWorkflow wf = chain();
  for (const auto& j : wf.jobs()) wf.mutable_job(j.id).cpu_seconds_hint = 100;
  DagmanEngine engine(EngineOptions{.retries = 2});
  const auto report = engine.run(wf, faulty);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.total_retries, 1u);
  EXPECT_EQ(faulty.injected_delays(), 1u);
  // The injected delay pushed b's completion (and the wall time) out.
  EXPECT_GT(report.wall_seconds(), 2'000.0);
}

TEST(FaultyService, KeysJobsByHandleAndEchoesThem) {
  // Attempt counts and pending rewrites live in a slot per job handle, and
  // every attempt — forwarded, rewritten or synthesized — comes back under
  // the handle it was submitted with. Directives still match by job id.
  StubService stub;
  FaultyService faulty(
      stub, FaultPlan().corrupt_node("a", 2, "bad-node").fail("c", 2, "late"));
  ConcreteJob a = job("a");
  a.index = 0;
  ConcreteJob b = job("b");
  b.index = 5;
  ConcreteJob c = job("c");
  c.index = 1;
  const auto run = [&](const ConcreteJob& j) {
    faulty.submit(j);
    auto done = faulty.wait();
    EXPECT_EQ(done.size(), 1u) << j.id;
    if (done.empty()) return TaskAttempt{};
    EXPECT_EQ(done.front().job, j.index) << j.id;
    return done.front();
  };
  EXPECT_EQ(run(a).node, "stub-node");
  EXPECT_TRUE(run(b).success);
  EXPECT_TRUE(run(c).success);
  EXPECT_EQ(run(a).node, "bad-node");  // attempt 2 of a, not of c
  const TaskAttempt late = run(c);
  EXPECT_FALSE(late.success);
  EXPECT_EQ(late.error, "late");
  EXPECT_EQ(late.node, "injected");
  EXPECT_EQ(faulty.attempts_seen(0), 2);
  EXPECT_EQ(faulty.attempts_seen(5), 1);
  EXPECT_EQ(faulty.attempts_seen(1), 2);
  EXPECT_EQ(faulty.attempts_seen(2), 0);
  EXPECT_EQ(faulty.attempts_seen(99), 0);
  EXPECT_EQ(faulty.corrupted_nodes(), 1u);
  EXPECT_EQ(faulty.injected_failures(), 1u);
  EXPECT_EQ(stub.submissions.size(), 4u);  // the injected failure never ran
  // A job outside any workflow has no handle to echo.
  EXPECT_THROW(faulty.submit(job("orphan")), common::InvalidArgument);
  EXPECT_EQ(stub.submissions.size(), 4u);
}

TEST(FaultyService, ChaosAttemptsEchoTheirHandles) {
  // Synthesized chaos failures and chaos-corrupted completions carry the
  // submitted handle and a chaos-node label.
  StubService stub;
  ChaosConfig chaos;
  chaos.fail_probability = 0.4;
  chaos.corrupt_probability = 0.4;
  chaos.seed = 3;
  FaultyService faulty(stub, FaultPlan().chaos(chaos));
  std::size_t chaos_nodes = 0;
  for (std::uint32_t handle = 0; handle < 40; ++handle) {
    ConcreteJob j = job("j" + std::to_string(handle));
    j.index = handle;
    faulty.submit(j);
    const auto done = faulty.wait();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].job, handle);
    if (done[0].node.starts_with("chaos-node")) ++chaos_nodes;
  }
  EXPECT_EQ(chaos_nodes, faulty.injected_failures() + faulty.corrupted_nodes());
  EXPECT_GT(faulty.injected_failures(), 0u);
  EXPECT_GT(faulty.corrupted_nodes(), 0u);
}

}  // namespace
}  // namespace pga::wms
