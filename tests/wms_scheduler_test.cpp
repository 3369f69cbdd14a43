// The scheduler core: JobStateMachine lifecycle/transition-guard tests,
// per-policy ordering on hand-built diamond and fan DAGs, and the
// acceptance check that the critical-path policy beats FIFO on an
// adversarial ordering of the paper's n=10 Sandhills split.
#include "wms/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/workload.hpp"
#include "sim/campus_cluster.hpp"
#include "wms/engine.hpp"
#include "wms/exec_service.hpp"
#include "wms_test_dags.hpp"

namespace pga::wms {
namespace {

/// Diamond: a -> {b, c} -> d.
ConcreteWorkflow diamond() {
  ConcreteWorkflow wf("diamond", "test");
  for (const auto* id : {"a", "b", "c", "d"}) {
    ConcreteJob job;
    job.id = id;
    job.transformation = "tf";
    wf.add_job(std::move(job));
  }
  wf.add_dependency("a", "b");
  wf.add_dependency("a", "c");
  wf.add_dependency("b", "d");
  wf.add_dependency("c", "d");
  return wf;
}

/// Fan: root -> {w0..w3}; per-child priority and cost knobs.
ConcreteWorkflow fan(const std::vector<int>& priorities,
                     const std::vector<double>& costs) {
  ConcreteWorkflow wf("fan", "test");
  ConcreteJob root;
  root.id = "root";
  root.transformation = "tf";
  wf.add_job(std::move(root));
  for (std::size_t i = 0; i < priorities.size(); ++i) {
    const std::string id = "w" + std::to_string(i);
    ConcreteJob job;
    job.id = id;
    job.transformation = "tf";
    job.priority = priorities[i];
    job.cpu_seconds_hint = costs[i];
    wf.add_job(std::move(job));
    wf.add_dependency("root", id);
  }
  return wf;
}

// --------------------------------------------------------- state machine

TEST(JobStateMachine, WalksTheLegalLifecycle) {
  const auto wf = diamond();
  JobStateMachine fsm(wf);
  ASSERT_EQ(fsm.size(), 4u);
  const auto a = fsm.index_of("a");
  EXPECT_EQ(fsm.id_of(a), "a");
  for (const auto* id : {"a", "b", "c", "d"}) {
    EXPECT_EQ(fsm.state(fsm.index_of(id)), SchedState::kIdle) << id;
  }

  fsm.seed_root(a);
  EXPECT_EQ(fsm.state(a), SchedState::kReady);
  ASSERT_TRUE(fsm.has_ready());
  EXPECT_EQ(fsm.take_ready(0), a);
  EXPECT_EQ(fsm.state(a), SchedState::kSubmitted);
  EXPECT_EQ(fsm.attempts(a), 1);
  EXPECT_EQ(fsm.submitted_count(), 1u);

  fsm.mark_done(a);
  EXPECT_EQ(fsm.state(a), SchedState::kDone);
  EXPECT_EQ(fsm.submitted_count(), 0u);
  EXPECT_EQ(fsm.done_count(), 1u);

  // Children release in sorted-id order.
  const auto freed = fsm.release_children(a);
  ASSERT_EQ(freed.size(), 2u);
  EXPECT_EQ(fsm.id_of(freed[0]), "b");
  EXPECT_EQ(fsm.id_of(freed[1]), "c");
  EXPECT_EQ(fsm.state(freed[0]), SchedState::kReady);

  // d stays Idle until BOTH parents finish.
  const auto b = fsm.take_ready(0);
  fsm.mark_done(b);
  EXPECT_TRUE(fsm.release_children(b).empty());
  EXPECT_EQ(fsm.state(fsm.index_of("d")), SchedState::kIdle);
  const auto c = fsm.take_ready(0);
  fsm.mark_done(c);
  const auto after_c = fsm.release_children(c);
  ASSERT_EQ(after_c.size(), 1u);
  EXPECT_EQ(fsm.id_of(after_c[0]), "d");

  const auto d = fsm.take_ready(0);
  fsm.mark_done(d);
  fsm.release_children(d);
  EXPECT_EQ(fsm.done_count(), 4u);
  EXPECT_EQ(fsm.failed_count(), 0u);
  EXPECT_TRUE(fsm.quiescent());
}

TEST(JobStateMachine, IllegalTransitionsThrowWorkflowError) {
  const auto wf = diamond();
  JobStateMachine fsm(wf);
  const auto a = fsm.index_of("a");
  // Completion verbs require Submitted.
  EXPECT_THROW(fsm.mark_done(a), common::WorkflowError);
  EXPECT_THROW(fsm.mark_failed(a), common::WorkflowError);
  EXPECT_THROW(fsm.requeue(a), common::WorkflowError);
  EXPECT_THROW(fsm.start_backoff(a, 10.0), common::WorkflowError);
  // Skipping is only legal from Idle.
  fsm.seed_root(a);
  EXPECT_THROW(fsm.mark_skipped(a), common::WorkflowError);
  // Double submission of the same Ready entry is impossible: the queue
  // holds it once and take_ready() moves it out of Ready.
  const auto popped = fsm.take_ready(0);
  EXPECT_EQ(popped, a);
  EXPECT_FALSE(fsm.has_ready());
  // Unknown ids are rejected.
  EXPECT_THROW((void)fsm.index_of("nope"), common::InvalidArgument);
}

TEST(JobStateMachine, SeedRootIsIdempotentAfterRescueRelease) {
  const auto wf = diamond();
  JobStateMachine fsm(wf);
  const auto a = fsm.index_of("a");
  fsm.mark_skipped(a);
  EXPECT_EQ(fsm.state(a), SchedState::kSkipped);
  EXPECT_EQ(fsm.done_count(), 1u);  // skipped counts as done
  const auto freed = fsm.release_children(a);
  ASSERT_EQ(freed.size(), 2u);
  // b and c are Ready via the rescued parent; re-seeding must not enqueue
  // them twice.
  fsm.seed_root(freed[0]);
  EXPECT_EQ(fsm.ready().size(), 2u);
}

TEST(JobStateMachine, RetryAndBackoffLifecycle) {
  const auto wf = diamond();
  JobStateMachine fsm(wf);
  const auto a = fsm.index_of("a");
  fsm.seed_root(a);
  fsm.take_ready(0);

  // Immediate retry: back of the queue, attempt count grows on take.
  fsm.requeue(a);
  EXPECT_EQ(fsm.state(a), SchedState::kReady);
  fsm.take_ready(0);
  EXPECT_EQ(fsm.attempts(a), 2);

  // Cooling retry: parked until the release time passes.
  fsm.start_backoff(a, 100.0);
  EXPECT_EQ(fsm.state(a), SchedState::kBackoff);
  EXPECT_TRUE(fsm.any_cooling());
  EXPECT_DOUBLE_EQ(fsm.earliest_release(), 100.0);
  EXPECT_TRUE(fsm.release_due(99.0, 1e-9).empty());
  EXPECT_FALSE(fsm.quiescent());
  const auto released = fsm.release_due(100.0, 1e-9);
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0], a);
  EXPECT_EQ(fsm.state(a), SchedState::kReady);
  EXPECT_FALSE(fsm.any_cooling());

  // Forced release: used when the service clock cannot advance.
  fsm.take_ready(0);
  fsm.start_backoff(a, 500.0);
  EXPECT_EQ(fsm.force_release_earliest(), a);
  EXPECT_EQ(fsm.state(a), SchedState::kReady);

  // Budget exhaustion.
  fsm.take_ready(0);
  fsm.mark_failed(a);
  EXPECT_EQ(fsm.state(a), SchedState::kFailed);
  EXPECT_EQ(fsm.failed_count(), 1u);
  EXPECT_TRUE(fsm.quiescent());
}

TEST(JobStateMachine, StateNamesAreStable) {
  EXPECT_STREQ(sched_state_name(SchedState::kIdle), "IDLE");
  EXPECT_STREQ(sched_state_name(SchedState::kReady), "READY");
  EXPECT_STREQ(sched_state_name(SchedState::kSubmitted), "SUBMITTED");
  EXPECT_STREQ(sched_state_name(SchedState::kBackoff), "BACKOFF");
  EXPECT_STREQ(sched_state_name(SchedState::kDone), "DONE");
  EXPECT_STREQ(sched_state_name(SchedState::kFailed), "FAILED");
  EXPECT_STREQ(sched_state_name(SchedState::kSkipped), "SKIPPED");
}

// -------------------------------------------------------------- policies

/// Drains `ready` through the policy and returns the picked ids in order.
std::vector<std::string> drain(SchedulingPolicy& policy,
                               const ConcreteWorkflow& wf,
                               std::deque<std::uint32_t> ready) {
  policy.prepare(wf);
  std::vector<std::string> order;
  while (!ready.empty()) {
    const std::size_t position = policy.pick(ready);
    order.push_back(wf.jobs()[ready[position]].id);
    ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(position));
  }
  return order;
}

/// The fan's worker indices in arrival (sorted-id) order.
std::deque<std::uint32_t> worker_indices(const ConcreteWorkflow& wf,
                                         std::size_t count) {
  std::deque<std::uint32_t> ready;
  for (std::size_t i = 0; i < count; ++i) {
    ready.push_back(wf.job_index("w" + std::to_string(i)));
  }
  return ready;
}

TEST(SchedulingPolicy, FifoAlwaysPicksTheFront) {
  const auto wf = fan({0, 0, 0, 0}, {10, 20, 30, 40});
  const auto policy = fifo_policy();
  EXPECT_EQ(policy->name(), "fifo");
  EXPECT_EQ(drain(*policy, wf, worker_indices(wf, 4)),
            (std::vector<std::string>{"w0", "w1", "w2", "w3"}));
}

TEST(SchedulingPolicy, PriorityPicksHighestAndBreaksTiesFifo) {
  const auto wf = fan({0, 5, 5, 1}, {10, 10, 10, 10});
  const auto policy = job_priority_policy();
  EXPECT_EQ(policy->name(), "priority");
  // 5-tie resolves to the earlier arrival (w1), then w2, then 1, then 0.
  EXPECT_EQ(drain(*policy, wf, worker_indices(wf, 4)),
            (std::vector<std::string>{"w1", "w2", "w3", "w0"}));
}

TEST(SchedulingPolicy, PriorityWithAllZeroPrioritiesIsExactlyFifo) {
  const auto wf = fan({0, 0, 0, 0}, {40, 30, 20, 10});
  const auto policy = job_priority_policy();
  EXPECT_EQ(drain(*policy, wf, worker_indices(wf, 4)),
            (std::vector<std::string>{"w0", "w1", "w2", "w3"}));
}

TEST(SchedulingPolicy, CriticalPathOrdersByLongestDownstreamCost) {
  // Chain x(10) -> y(20) -> z(30) next to a lone heavy job solo(45):
  // upward ranks are x=60, y=50, solo=45, z=30 — x wins despite having the
  // cheapest own cost, because the rank sums the whole downstream path.
  ConcreteWorkflow wf("ranked", "test");
  const auto add = [&](const std::string& id, double hint) {
    ConcreteJob job;
    job.id = id;
    job.transformation = "tf";
    job.cpu_seconds_hint = hint;
    wf.add_job(std::move(job));
  };
  add("solo", 45);
  add("x", 10);
  add("y", 20);
  add("z", 30);
  wf.add_dependency("x", "y");
  wf.add_dependency("y", "z");

  const auto policy = critical_path_policy();
  EXPECT_EQ(policy->name(), "critical-path");
  std::deque<std::uint32_t> all{wf.job_index("solo"), wf.job_index("x"),
                                wf.job_index("y"), wf.job_index("z")};
  EXPECT_EQ(drain(*policy, wf, all),
            (std::vector<std::string>{"x", "y", "solo", "z"}));
}

TEST(SchedulingPolicy, CriticalPathOnFlatFanIsLongestProcessingTimeFirst) {
  const auto wf = fan({0, 0, 0, 0}, {10, 40, 20, 30});
  const auto policy = critical_path_policy();
  EXPECT_EQ(drain(*policy, wf, worker_indices(wf, 4)),
            (std::vector<std::string>{"w1", "w3", "w2", "w0"}));
}

TEST(SchedulingPolicy, WidestBranchPicksTheJobWithMostChildren) {
  // root -> {a, b}; a -> {l0}; b -> {m0, m1, m2}: b is wider than a.
  ConcreteWorkflow wf("branchy", "test");
  const auto add = [&](const std::string& id) {
    ConcreteJob job;
    job.id = id;
    job.transformation = "tf";
    wf.add_job(std::move(job));
  };
  for (const auto* id : {"root", "a", "b", "l0", "m0", "m1", "m2"}) add(id);
  wf.add_dependency("root", "a");
  wf.add_dependency("root", "b");
  wf.add_dependency("a", "l0");
  wf.add_dependency("b", "m0");
  wf.add_dependency("b", "m1");
  wf.add_dependency("b", "m2");

  const auto policy = widest_branch_policy();
  EXPECT_EQ(policy->name(), "widest-branch");
  std::deque<std::uint32_t> ready{wf.job_index("a"), wf.job_index("b")};
  EXPECT_EQ(drain(*policy, wf, ready),
            (std::vector<std::string>{"b", "a"}));
}

TEST(SchedulingPolicy, FactoryKnowsEveryKnobNameAndRejectsOthers) {
  for (const auto& name : policy_names()) {
    EXPECT_EQ(make_policy(name)->name(), name);
  }
  EXPECT_EQ(policy_names(),
            (std::vector<std::string>{"fifo", "priority", "critical-path",
                                      "widest-branch"}));
  EXPECT_THROW(make_policy("sjf"), common::InvalidArgument);
  EXPECT_THROW(make_policy(""), common::InvalidArgument);
}

// ----------------------------------------------- engine-level ordering

/// Completes exactly one outstanding attempt per wait(), oldest first, so
/// a throttled engine refills one slot at a time and the recorded submit
/// order exposes the policy's choices.
class SerializingService final : public ExecutionService {
 public:
  void submit(const ConcreteJob& job) override {
    pending_.push_back(job.index);
    order.push_back(job.id);
  }
  std::vector<TaskAttempt> wait() override {
    std::vector<TaskAttempt> out;
    if (pending_.empty()) return out;
    time_ += 1;
    TaskAttempt attempt;
    attempt.job = pending_.front();
    attempt.success = true;
    attempt.submit_time = time_ - 1;
    attempt.end_time = time_;
    pending_.erase(pending_.begin());
    out.push_back(std::move(attempt));
    return out;
  }
  double now() override { return time_; }
  [[nodiscard]] std::string label() const override { return "serializing"; }

  std::vector<std::string> order;

 private:
  std::vector<std::uint32_t> pending_;  ///< job handles
  double time_ = 0;
};

TEST(SchedulingPolicy, EngineHonoursPriorityOrderUnderThrottle) {
  const auto wf = fan({1, 9, 3, 7}, {10, 10, 10, 10});
  SerializingService service;
  EngineOptions options;
  options.max_jobs_in_flight = 1;
  options.policy = job_priority_policy();
  DagmanEngine engine(std::move(options));
  ASSERT_TRUE(engine.run(wf, service).success);
  EXPECT_EQ(service.order,
            (std::vector<std::string>{"root", "w1", "w3", "w2", "w0"}));
}

TEST(SchedulingPolicy, EngineDefaultsToFifoUnderThrottle) {
  const auto wf = fan({1, 9, 3, 7}, {10, 10, 10, 10});
  SerializingService service;
  EngineOptions options;
  options.max_jobs_in_flight = 1;
  DagmanEngine engine(std::move(options));
  ASSERT_TRUE(engine.run(wf, service).success);
  // Priorities are ignored without an explicit policy: arrival order.
  EXPECT_EQ(service.order,
            (std::vector<std::string>{"root", "w0", "w1", "w2", "w3"}));
}

TEST(SchedulingPolicy, CriticalPathRunsCostliestChunkFirstOnStagingHeavyDag) {
  // The shared staging-heavy scenario: stage_in gates a compute fan whose
  // cost hints rise with the index, and stage_out joins them. Under a
  // 1-wide throttle, critical-path releases the costliest chunk first
  // while FIFO sticks to id order — the stage jobs bracket both.
  const auto wf = testing::staging_heavy_dag(3);
  const auto run = [&wf](std::shared_ptr<SchedulingPolicy> policy) {
    SerializingService service;
    EngineOptions options;
    options.max_jobs_in_flight = 1;
    options.policy = std::move(policy);
    DagmanEngine engine(std::move(options));
    EXPECT_TRUE(engine.run(wf, service).success);
    return service.order;
  };
  EXPECT_EQ(run(critical_path_policy()),
            (std::vector<std::string>{"stage_in_0", "run_cap3_2", "run_cap3_1",
                                      "run_cap3_0", "stage_out_0"}));
  EXPECT_EQ(run(nullptr),
            (std::vector<std::string>{"stage_in_0", "run_cap3_0", "run_cap3_1",
                                      "run_cap3_2", "stage_out_0"}));
}

// --------------------------------------------------- acceptance: Fig. 4

/// The paper's n=10 Sandhills split with the chunk ids assigned to the
/// model's real costs in ASCENDING order. The splitter's greedy assignment
/// makes the stock workflow's id order accidentally longest-first, which
/// hides any policy effect; flipping it adversarial makes FIFO release the
/// cheapest chunks first and pay the straggler penalty the critical-path
/// policy avoids.
ConcreteWorkflow adversarial_n10_split() {
  const core::WorkloadModel workload;
  auto costs = workload.chunk_costs(10);
  std::sort(costs.begin(), costs.end());  // ascending: ch0 = cheapest
  ConcreteWorkflow wf("n10split", "sandhills");
  const auto add = [&](const std::string& id, const std::string& tf,
                       double hint) {
    ConcreteJob job;
    job.id = id;
    job.transformation = tf;
    job.cpu_seconds_hint = hint;
    wf.add_job(std::move(job));
  };
  add("split", "split", 130);
  add("zmerge", "zmerge", 153);
  for (std::size_t i = 0; i < costs.size(); ++i) {
    const std::string id = "ch" + std::to_string(i);
    add(id, "run_cap3", costs[i]);
    wf.add_dependency("split", id);
    wf.add_dependency(id, "zmerge");
  }
  return wf;
}

double simulated_wall(const ConcreteWorkflow& wf, const std::string& policy) {
  sim::EventQueue queue;
  sim::CampusClusterConfig config;
  config.allocated_slots = 4;
  config.seed = 11;
  sim::CampusClusterPlatform platform(queue, config);
  SimService service(queue, platform);
  EngineOptions options;
  options.max_jobs_in_flight = 4;  // throttle at the slot count
  options.policy = make_policy(policy);
  DagmanEngine engine(std::move(options));
  const auto report = engine.run(wf, service);
  EXPECT_TRUE(report.success) << policy;
  return report.wall_seconds();
}

TEST(SchedulingPolicy, CriticalPathBeatsFifoOnTheAdversarialN10Split) {
  const auto wf = adversarial_n10_split();
  const double fifo_wall = simulated_wall(wf, "fifo");
  const double cp_wall = simulated_wall(wf, "critical-path");
  // Fixed seed, deterministic simulation: the LPT-style release saves a
  // whole straggler tail (~2.5% here; bench/micro_wms.cpp and the
  // fig4_walltime --policy flag explore the magnitude more broadly).
  EXPECT_LT(cp_wall, fifo_wall);
  EXPECT_LT(cp_wall, fifo_wall * 0.99);
}

// ---------------------------------------------------- cross-shape claims
//
// PR 6: the rankings above were demonstrated on blast2cap3 alone. These
// tests re-derive them on *generated* shapes from wms::testing's shared
// specs — the same instances bench/shape_ablation --smoke guards in CI.

TEST(SchedulingPolicy, CriticalPathBeatsFifoOnTheChainHeavyNgsShape) {
  // The acceptance criterion's "ranking confirmed on another shape": the
  // blast2cap3 critical-path-beats-FIFO result reproduced on the generated
  // NGS-pipeline shape (per-sample chains, Zipf costs ascending over build
  // order). Measured margin at these knobs is ~11%; assert > 1%.
  const auto spec = testing::adversarial_ngs_spec(8);
  const double fifo_wall = testing::shape_wall(spec, "fifo");
  const double cp_wall = testing::shape_wall(spec, "critical-path");
  ASSERT_GT(fifo_wall, 0);
  ASSERT_GT(cp_wall, 0);
  EXPECT_LT(cp_wall, fifo_wall * 0.99);
}

TEST(SchedulingPolicy, WidestBranchBeatsFifoOnTheFanHeavyShape) {
  // On the fan-heavy shape (gateway i gates 1 + 2i leaves, heavy subtrees
  // last in build order) the *widest-branch* policy is the right tool:
  // FIFO opens the narrow gateways first and meets the wide subtrees as a
  // serial tail. Margin ~3.8% at slots == throttle == 2.
  const auto spec = testing::fan_heavy_spec(6);
  const double fifo_wall = testing::shape_wall(spec, "fifo", 2, 2);
  const double widest_wall = testing::shape_wall(spec, "widest-branch", 2, 2);
  ASSERT_GT(fifo_wall, 0);
  ASSERT_GT(widest_wall, 0);
  EXPECT_LT(widest_wall, fifo_wall * 0.99);
}

/// Sorted ids of the jobs that succeeded when `spec` runs under `policy`
/// on the campus backend (slots == throttle == 4, platform seed 11).
std::vector<std::string> succeeded_ids(const workload::ShapeSpec& spec,
                                       const std::string& policy) {
  const auto concrete = workload::plan_shape(spec, "sandhills");
  sim::EventQueue queue;
  sim::CampusClusterConfig config;
  config.allocated_slots = 4;
  config.seed = 11;
  sim::CampusClusterPlatform platform(queue, config);
  SimService service(queue, platform);
  EngineOptions options;
  options.max_jobs_in_flight = 4;
  options.policy = make_policy(policy);
  DagmanEngine engine(std::move(options));
  const auto report = engine.run(concrete, service);
  EXPECT_TRUE(report.success) << workload::spec_name(spec) << "/" << policy;
  std::vector<std::string> ids;
  for (const auto& run : report.runs) {
    if (run.succeeded) ids.push_back(run.id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(SchedulingPolicy, AllPoliciesCompleteEveryShapeWithIdenticalJobSets) {
  // Policies reorder release; they must never change what runs. Every
  // generator shape, all four policies, identical succeeded-job sets whose
  // size is the closed form plus the two stage jobs.
  for (const auto& spec : testing::small_shape_specs()) {
    const auto counts = workload::closed_form_counts(spec);
    const auto baseline = succeeded_ids(spec, "fifo");
    ASSERT_EQ(baseline.size(), counts.jobs + 2) << workload::spec_name(spec);
    for (const std::string policy :
         {"priority", "critical-path", "widest-branch"}) {
      EXPECT_EQ(succeeded_ids(spec, policy), baseline)
          << workload::spec_name(spec) << "/" << policy;
    }
  }
}

}  // namespace
}  // namespace pga::wms
