// Steppable-engine contract: EngineInstance must (a) reproduce
// DagmanEngine::run() byte-for-byte when driven with step(), (b) let two
// engines interleave on one shared EventQueue without perturbing either
// run, and (c) expose the non-blocking cooperative face (step_cooperative,
// poll, next_deadline, idle) the WaaS fleet controller is built on.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "data/staging_service.hpp"
#include "data/transfer_manager.hpp"
#include "sim/campus_cluster.hpp"
#include "sim/event_queue.hpp"
#include "sim/osg.hpp"
#include "wms/engine.hpp"
#include "wms/exec_service.hpp"
#include "wms/fault_injection.hpp"
#include "workload/generator.hpp"

namespace pga::wms {
namespace {

workload::ShapeSpec small_spec(workload::Shape shape, std::size_t size,
                               std::uint64_t seed) {
  workload::ShapeSpec spec;
  spec.shape = shape;
  spec.size = size;
  spec.seed = seed;
  return spec;
}

/// Drives two cooperative engines on one shared queue, pumping ONE event
/// per quiet round so each engine observes its completions at exactly the
/// simulated instant they landed (the solo-run timing).
void drive_pair(sim::EventQueue& queue, EngineInstance& a, EngineInstance& b) {
  for (int guard = 0; guard < 20'000'000; ++guard) {
    bool progress = false;
    if (!a.is_done()) progress |= a.step_cooperative();
    if (!b.is_done()) progress |= b.step_cooperative();
    if (a.is_done() && b.is_done()) return;
    if (progress) continue;
    double fence = std::numeric_limits<double>::infinity();
    if (!a.is_done()) fence = std::min(fence, a.next_deadline());
    if (!b.is_done()) fence = std::min(fence, b.next_deadline());
    const auto next = queue.next_time();
    if (next.has_value() && *next <= fence) {
      queue.step();
      continue;
    }
    ASSERT_FALSE(std::isinf(fence)) << "drive_pair wedged";
    queue.advance_to(fence);
  }
  FAIL() << "drive_pair did not converge";
}

RunReport run_solo_campus(const ConcreteWorkflow& workflow, std::uint64_t seed) {
  sim::EventQueue queue;
  sim::CampusClusterConfig cfg;
  cfg.seed = seed;
  sim::CampusClusterPlatform platform(queue, cfg);
  SimService service(queue, platform);
  DagmanEngine engine({.retries = 3, .rescue_path = {}});
  return engine.run(workflow, service);
}

RunReport run_solo_osg(const ConcreteWorkflow& workflow, std::uint64_t seed) {
  sim::EventQueue queue;
  sim::OsgConfig cfg;
  cfg.seed = seed;
  sim::OsgPlatform platform(queue, cfg);
  SimService service(queue, platform);
  DagmanEngine engine({.retries = 100, .rescue_path = {}});
  return engine.run(workflow, service);
}

TEST(SteppableEngine, ManualSteppingMatchesRunByteForByte) {
  const auto workflow = workload::plan_shape(
      small_spec(workload::Shape::kBlast2cap3, 8, 7), "sandhills");

  const RunReport via_run = run_solo_campus(workflow, 21);

  sim::EventQueue queue;
  sim::CampusClusterConfig cfg;
  cfg.seed = 21;
  sim::CampusClusterPlatform platform(queue, cfg);
  SimService service(queue, platform);
  EngineInstance instance({.retries = 3, .rescue_path = {}}, workflow, service);
  std::size_t steps = 0;
  while (instance.step()) ++steps;
  EXPECT_GT(steps, 0u);
  EXPECT_TRUE(instance.is_done());
  const RunReport via_step = instance.take_report();

  EXPECT_TRUE(via_step.success);
  ASSERT_EQ(via_step.jobstate_log.size(), via_run.jobstate_log.size());
  for (std::size_t i = 0; i < via_run.jobstate_log.size(); ++i) {
    ASSERT_EQ(via_step.jobstate_log[i], via_run.jobstate_log[i])
        << "diverges at line " << i + 1;
  }
}

TEST(SteppableEngine, TwoEnginesOneClockMatchTheirSoloRuns) {
  const auto wf_campus = workload::plan_shape(
      small_spec(workload::Shape::kDiamond, 6, 3), "sandhills");
  const auto wf_osg = workload::plan_shape(
      small_spec(workload::Shape::kFan, 6, 4), "osg");

  const RunReport solo_campus = run_solo_campus(wf_campus, 31);
  const RunReport solo_osg = run_solo_osg(wf_osg, 32);

  // Same platform seeds, but both platforms live on ONE queue and the two
  // engines interleave cooperatively on its clock.
  sim::EventQueue queue;
  sim::CampusClusterConfig campus_cfg;
  campus_cfg.seed = 31;
  sim::CampusClusterPlatform campus(queue, campus_cfg);
  sim::OsgConfig osg_cfg;
  osg_cfg.seed = 32;
  sim::OsgPlatform osg(queue, osg_cfg);
  SimService campus_service(queue, campus);
  SimService osg_service(queue, osg);
  EngineInstance a({.retries = 3, .rescue_path = {}}, wf_campus, campus_service);
  EngineInstance b({.retries = 100, .rescue_path = {}}, wf_osg, osg_service);
  drive_pair(queue, a, b);

  const RunReport report_a = a.take_report();
  const RunReport report_b = b.take_report();
  EXPECT_TRUE(report_a.success);
  EXPECT_TRUE(report_b.success);
  EXPECT_EQ(report_a.jobstate_log, solo_campus.jobstate_log);
  EXPECT_EQ(report_b.jobstate_log, solo_osg.jobstate_log);
}

TEST(SteppableEngine, CooperativeBudgetLimitsSubmissions) {
  const auto workflow = workload::plan_shape(
      small_spec(workload::Shape::kFan, 10, 5), "sandhills");
  sim::EventQueue queue;
  sim::CampusClusterPlatform platform(queue, {});
  SimService service(queue, platform);
  EngineInstance instance({.retries = 3, .rescue_path = {}}, workflow, service);

  // stage_in is the single root: the first cooperative step may submit at
  // most the budget regardless of how much is ready.
  EXPECT_TRUE(instance.step_cooperative(1));
  EXPECT_EQ(instance.jobs_in_flight(), 1u);
  // Ready queue now empty and nothing completed: a quiet step reports so.
  EXPECT_FALSE(instance.step_cooperative(1));
  EXPECT_EQ(instance.jobs_in_flight(), 1u);

  // The budget bounds submissions per call (the fleet turns it into an
  // in-flight cap by granting target-minus-in-flight each round).
  while (!instance.is_done()) {
    const std::size_t before = instance.jobs_in_flight();
    if (!instance.step_cooperative(2)) {
      if (queue.empty()) break;
      queue.step();
      continue;
    }
    EXPECT_LE(instance.jobs_in_flight(), before + 2);
  }
  EXPECT_TRUE(instance.is_done());
  EXPECT_TRUE(instance.take_report().success);
}

TEST(SteppableEngine, ZeroBudgetIsBackPressureNotCompletion) {
  // A fresh engine given no grant has ready work and nothing in flight.
  // That is back-pressure from the driver, not a terminal state: the
  // engine must NOT finalize (regression: it used to report a failed
  // "completed" run the moment a fleet round granted it zero).
  const auto workflow = workload::plan_shape(
      small_spec(workload::Shape::kChain, 3, 11), "sandhills");
  sim::EventQueue queue;
  sim::CampusClusterPlatform platform(queue, {});
  SimService service(queue, platform);
  EngineInstance instance({.retries = 3, .rescue_path = {}}, workflow, service);

  for (int round = 0; round < 3; ++round) {
    EXPECT_FALSE(instance.step_cooperative(0));
    EXPECT_FALSE(instance.is_done());
    EXPECT_EQ(instance.jobs_in_flight(), 0u);
  }
  // Once granted, the run proceeds to a clean finish.
  while (!instance.is_done()) {
    if (!instance.step_cooperative(1) && !queue.empty()) queue.step();
  }
  EXPECT_TRUE(instance.take_report().success);
}

TEST(SteppableEngine, FaultyServicePollHarvestsPumpedCompletions) {
  // An external clock owner pumps the shared queue directly; the chaos
  // decorator's poll() must then hand over the inner service's finished
  // attempts (regression: wait_for(0) bailed on its expired deadline
  // before ever looking, stranding every completion).
  const auto workflow = workload::plan_shape(
      small_spec(workload::Shape::kChain, 2, 12), "sandhills");
  sim::EventQueue queue;
  sim::CampusClusterPlatform platform(queue, {});
  SimService inner(queue, platform);
  FaultyService faulty(inner, FaultPlan{});  // empty plan: pure pass-through
  EngineInstance instance({.retries = 3, .rescue_path = {}}, workflow, faulty);

  EXPECT_TRUE(instance.step_cooperative());  // submits the root
  ASSERT_EQ(instance.jobs_in_flight(), 1u);
  while (!queue.empty()) queue.step();  // run the attempt to completion
  EXPECT_TRUE(instance.step_cooperative());  // poll() must see it land
  EXPECT_EQ(instance.jobs_in_flight(), 0u);
}

TEST(SteppableEngine, TakeReportGuards) {
  const auto workflow = workload::plan_shape(
      small_spec(workload::Shape::kChain, 3, 6), "sandhills");
  sim::EventQueue queue;
  sim::CampusClusterPlatform platform(queue, {});
  SimService service(queue, platform);
  EngineInstance instance({.retries = 3, .rescue_path = {}}, workflow, service);
  EXPECT_THROW(instance.take_report(), common::InvalidArgument);
  while (instance.step()) {
  }
  EXPECT_TRUE(instance.take_report().success);
  EXPECT_THROW(instance.take_report(), common::InvalidArgument);
}

/// Manual-clock stub: submissions pile up; the test completes them.
struct StubService final : ExecutionService {
  double clock = 0;
  std::vector<ConcreteJob> submitted;
  std::vector<TaskAttempt> due;

  void submit(const ConcreteJob& job) override { submitted.push_back(job); }
  std::vector<TaskAttempt> wait() override {
    auto out = std::move(due);
    due.clear();
    return out;
  }
  std::vector<TaskAttempt> wait_for(double timeout_seconds) override {
    clock += std::max(0.0, timeout_seconds);
    return wait();
  }
  double now() override { return clock; }
  [[nodiscard]] std::string label() const override { return "stub"; }
};

TEST(SteppableEngine, NextDeadlineTracksAttemptTimeouts) {
  const auto workflow = workload::plan_shape(
      small_spec(workload::Shape::kChain, 2, 8), "sandhills");
  StubService service;
  EngineOptions options{.retries = 0, .rescue_path = {}};
  options.attempt_timeout_seconds = 50;
  EngineInstance instance(options, workflow, service);

  EXPECT_TRUE(std::isinf(instance.next_deadline()));  // nothing in flight yet
  EXPECT_TRUE(instance.step_cooperative());
  ASSERT_EQ(instance.jobs_in_flight(), 1u);
  EXPECT_DOUBLE_EQ(instance.next_deadline(), 50.0);

  // The driver advances the stub clock to the deadline; the next
  // cooperative step writes the attempt off as timed out, and with
  // retries=0 the root (and thus the chain) is dead.
  service.clock = 50;
  EXPECT_TRUE(instance.step_cooperative());
  EXPECT_EQ(instance.jobs_in_flight(), 0u);
  while (!instance.is_done()) instance.step_cooperative();
  const RunReport report = instance.take_report();
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.timed_out_attempts, 1u);
}

TEST(SteppableEngine, PollDefaultHarvestsWithoutAdvancingClock) {
  const auto workflow = workload::plan_shape(
      small_spec(workload::Shape::kChain, 2, 9), "sandhills");
  sim::EventQueue queue;
  sim::CampusClusterPlatform platform(queue, {});
  SimService service(queue, platform);
  ExecutionService& as_interface = service;

  EngineInstance instance({.retries = 3, .rescue_path = {}}, workflow, service);
  EXPECT_TRUE(instance.step_cooperative());  // submits the root
  const double before = queue.now();
  EXPECT_TRUE(as_interface.poll().empty());  // completion lies in the future
  EXPECT_DOUBLE_EQ(queue.now(), before);     // poll never advances the clock
}

/// Counts engine events, for the idle contract's "emits nothing" clause.
struct EventCounter final : EngineObserver {
  std::size_t events = 0;
  void on_event(const EngineEvent& /*event*/) override { ++events; }
};

TEST(SteppableEngine, IdleStepIsANoOpUnderChaosStagingTimeoutsAndBackoff) {
  // The fleet skips an engine's step when the shared queue has nothing due
  // now and idle() holds. Check that contract where it is hardest: one
  // engine over Faulty(Staging(Sim)) with chaos hangs (reclaimed only by
  // attempt timeouts), delayed completions held inside the decorator,
  // modeled transfers, jittered retry backoff and zero grants
  // (back-pressure, as a capped fleet hands out). Whenever the skip
  // condition holds, the step it replaces must return false, emit no
  // engine event and leave the queue untouched.
  std::size_t idle_checks = 0;      // skip condition held under a grant
  std::size_t withheld_checks = 0;  // ... and under a zero grant
  std::size_t hangs = 0;
  std::size_t delays = 0;
  std::size_t timed_out = 0;
  double backoff_seconds = 0;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL, 6ULL}) {
    const auto spec = small_spec(workload::Shape::kFan, 12, seed);
    const auto workflow = workload::plan_shape(spec, "sandhills");
    const auto replicas =
        workload::generator_replica_catalog(workload::build_workflow(spec), spec);

    sim::EventQueue queue;
    sim::CampusClusterConfig cfg;
    cfg.seed = seed;
    cfg.allocated_slots = 4;  // contention keeps completions spread out
    sim::CampusClusterPlatform platform(queue, cfg);
    SimService sim_service(queue, platform);
    data::TransferManager transfers(queue);  // endpoints auto-register
    data::StagingConfig staging_cfg;
    staging_cfg.execution_site = "sandhills";
    data::StagingService staging(queue, sim_service, transfers, replicas,
                                 staging_cfg);
    ChaosConfig chaos;
    chaos.fail_probability = 0.1;
    chaos.hang_probability = 0.1;
    chaos.delay_probability = 0.25;
    chaos.max_delay_seconds = 900;
    chaos.seed = seed;
    FaultyService faulty(staging, FaultPlan().chaos(chaos));

    EventCounter counter;
    EngineOptions options{.retries = 30, .rescue_path = {}};
    options.attempt_timeout_seconds = 2500;
    options.backoff_base_seconds = 40;
    options.backoff_jitter = 0.3;
    options.backoff_seed = seed;
    options.observers = {&counter};
    EngineInstance engine(options, workflow, faulty);

    for (int guard = 0; !engine.is_done(); ++guard) {
      ASSERT_LT(guard, 1'000'000) << "seed " << seed << " did not converge";
      const std::size_t budget = guard % 3 == 0 ? 0 : 2;
      const auto next = queue.next_time();
      const bool nothing_due = !next.has_value() || *next > queue.now();
      if (nothing_due && engine.idle(budget)) {
        ++(budget == 0 ? withheld_checks : idle_checks);
        const double now = queue.now();
        const std::size_t pending = queue.pending();
        const std::uint64_t processed = queue.processed();
        const std::size_t events = counter.events;
        const std::size_t in_flight = engine.jobs_in_flight();
        ASSERT_FALSE(engine.step_cooperative(budget)) << "seed " << seed;
        ASSERT_EQ(counter.events, events);
        ASSERT_EQ(queue.now(), now);
        ASSERT_EQ(queue.pending(), pending);
        ASSERT_EQ(queue.processed(), processed);
        ASSERT_EQ(engine.jobs_in_flight(), in_flight);
      } else if (engine.step_cooperative(budget)) {
        continue;
      }
      if (budget == 0) continue;  // a withheld grant says nothing of time
      // A quiet step: run one event, or burn time to the engine's fence.
      const double fence = engine.next_deadline();
      if (next.has_value() && *next <= fence) {
        queue.step();
        continue;
      }
      ASSERT_FALSE(std::isinf(fence)) << "seed " << seed << " wedged";
      queue.advance_to(fence);
    }
    const RunReport report = engine.take_report();
    hangs += faulty.injected_hangs();
    delays += faulty.injected_delays();
    timed_out += report.timed_out_attempts;
    backoff_seconds += report.total_backoff_seconds;
  }
  // The contract was exercised, and on the paths it reasons about.
  EXPECT_GT(idle_checks, 100u);
  EXPECT_GT(withheld_checks, 100u);
  EXPECT_GT(hangs, 0u);
  EXPECT_GT(delays, 0u);
  EXPECT_GT(timed_out, 0u);
  EXPECT_GT(backoff_seconds, 0.0);
}

TEST(SteppableEngine, IdleMatchesWhetherTheStepWouldAct) {
  const auto workflow = workload::plan_shape(
      small_spec(workload::Shape::kChain, 2, 8), "sandhills");
  sim::EventQueue queue;
  sim::CampusClusterPlatform platform(queue, {});
  SimService service(queue, platform);
  EngineOptions options{.retries = 1, .rescue_path = {}};
  options.attempt_timeout_seconds = 1e6;
  EngineInstance instance(options, workflow, service);

  EXPECT_FALSE(instance.idle());  // the root is ready to submit
  EXPECT_TRUE(instance.idle(0));  // ... but a zero grant is back-pressure
  EXPECT_FALSE(instance.step_cooperative(0));
  EXPECT_TRUE(instance.step_cooperative());
  EXPECT_TRUE(instance.idle());   // submitted, nothing landed yet
  while (service.quiet()) queue.step();
  EXPECT_FALSE(instance.idle());  // a completion waits in the service
  EXPECT_TRUE(instance.step_cooperative());
  while (!instance.is_done()) {
    if (!instance.step_cooperative()) queue.step();
  }
  EXPECT_FALSE(instance.idle());  // a finished run is never idle
}

}  // namespace
}  // namespace pga::wms
