// Fleet-controller suite: multi-tenant WaaS over one shared clock.
// Covers completion/accounting invariants, weighted fair share (equal
// weights finish together; 3:1 weights yield ~3:1 throughput), cap
// enforcement, dual-platform placement, staging composition, chaos,
// double-run byte identity (the fleet digest) and fleet digests pinned
// across versions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sim/event_queue.hpp"
#include "waas/fleet.hpp"
#include "workload/arrival.hpp"
#include "workload/generator.hpp"

namespace pga::waas {
namespace {

workload::ShapeSpec spec_of(workload::Shape shape, std::size_t size,
                            std::uint64_t seed) {
  workload::ShapeSpec spec;
  spec.shape = shape;
  spec.size = size;
  spec.seed = seed;
  return spec;
}

/// `count` requests, all arriving at t=0, striped over `tenants`.
std::vector<workload::WorkflowRequest> burst_requests(
    std::size_t count, std::size_t tenants, const workload::ShapeSpec& spec) {
  std::vector<workload::WorkflowRequest> requests;
  for (std::size_t i = 0; i < count; ++i) {
    workload::WorkflowRequest request;
    request.index = i;
    request.arrival_seconds = 0;
    request.tenant = i % tenants;
    request.spec = spec;
    request.spec.seed = spec.seed + i;  // distinct cost streams
    requests.push_back(request);
  }
  return requests;
}

FleetResult run_fleet(const FleetOptions& options,
                      const std::vector<workload::WorkflowRequest>& requests) {
  sim::EventQueue queue;
  FleetController controller(queue, options);
  return controller.run(requests);
}

TEST(FleetController, RunsAnArrivalStreamToCompletionOnBothPlatforms) {
  workload::ArrivalParams params;
  params.count = 12;
  params.tenants = 2;
  params.mean_interarrival_seconds = 120;
  params.shapes = {spec_of(workload::Shape::kBlast2cap3, 4, 5)};
  const auto requests = workload::generate_arrivals(params);

  FleetOptions options;
  options.tenants = 2;
  const FleetResult result = run_fleet(options, requests);

  EXPECT_EQ(result.workflows_completed, 12u);
  EXPECT_EQ(result.workflows_succeeded, 12u);
  EXPECT_EQ(result.outcomes.size(), 12u);
  // blast2cap3 closed form n+6 compute jobs plus the planner's stage pair.
  const std::size_t expected_jobs =
      workload::closed_form_counts(params.shapes[0]).jobs + 2;
  std::size_t on_campus = 0;
  std::size_t on_osg = 0;
  for (const auto& outcome : result.outcomes) {
    EXPECT_TRUE(outcome.success);
    EXPECT_EQ(outcome.jobs, expected_jobs);
    EXPECT_GE(outcome.makespan_seconds, 0.0);
    EXPECT_GE(outcome.admitted_seconds, outcome.arrival_seconds - 1e-9);
    (outcome.platform == "sandhills" ? on_campus : on_osg) += 1;
  }
  // Load balancing must actually use both platforms for a 12-wide burst.
  EXPECT_GT(on_campus, 0u);
  EXPECT_GT(on_osg, 0u);
  EXPECT_GT(result.peak_jobs_in_flight, 0u);
  EXPECT_GT(result.events_processed, 0u);
  const std::size_t tenant_total = result.tenants[0].workflows_completed +
                                   result.tenants[1].workflows_completed;
  EXPECT_EQ(tenant_total, 12u);
}

TEST(FleetController, DoubleRunIsByteIdentical) {
  workload::ArrivalParams params;
  params.count = 8;
  params.tenants = 2;
  params.process = workload::ArrivalProcess::kBursty;
  params.burst_size = 4;
  params.shapes = {spec_of(workload::Shape::kDiamond, 5, 9)};
  const auto requests = workload::generate_arrivals(params);

  FleetOptions options;
  options.tenants = 2;
  options.max_jobs_in_flight = 24;
  const FleetResult first = run_fleet(options, requests);
  const FleetResult second = run_fleet(options, requests);

  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.events_processed, second.events_processed);
  EXPECT_EQ(first.peak_jobs_in_flight, second.peak_jobs_in_flight);
  ASSERT_EQ(first.outcomes.size(), second.outcomes.size());
  for (std::size_t i = 0; i < first.outcomes.size(); ++i) {
    EXPECT_EQ(first.outcomes[i].index, second.outcomes[i].index);
    EXPECT_EQ(first.outcomes[i].platform, second.outcomes[i].platform);
    EXPECT_DOUBLE_EQ(first.outcomes[i].finished_seconds,
                     second.outcomes[i].finished_seconds);
    EXPECT_EQ(first.outcomes[i].digest, second.outcomes[i].digest);
  }
}

TEST(FleetController, DoubleRunIsByteIdenticalUnderChaosAndStaging) {
  const auto requests =
      burst_requests(6, 2, spec_of(workload::Shape::kFan, 6, 13));

  FleetOptions options;
  options.tenants = 2;
  options.model_staging = true;
  wms::ChaosConfig chaos;
  chaos.fail_probability = 0.1;
  chaos.delay_probability = 0.1;
  chaos.max_delay_seconds = 200;
  options.chaos = chaos;
  options.engine.retries = 20;

  const FleetResult first = run_fleet(options, requests);
  const FleetResult second = run_fleet(options, requests);
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.events_processed, second.events_processed);
  EXPECT_EQ(first.workflows_completed, 6u);
  EXPECT_EQ(first.workflows_succeeded, second.workflows_succeeded);
}

// --------------------------------------------- digests pinned across versions
//
// The double-run tests above only compare two runs of one build. These pin
// the fleet digest itself, so a change to admission, planning or reporting
// that shifts a single jobstate byte fails here.

std::string hex(std::uint64_t value) {
  std::ostringstream os;
  os << std::hex << value;
  return os.str();
}

TEST(FleetController, WaasBenchBurstDigestIsPinned) {
  // bench/waas_bench's W=100 point: 128-worker blast2cap3 at t=0, four
  // tenants weighted 4:2:1:1, elastic slots. BENCH_waas.json records the
  // same digest.
  constexpr std::size_t kWorkflows = 100;
  workload::ShapeSpec spec = spec_of(workload::Shape::kBlast2cap3, 128, 1000);
  const auto requests = burst_requests(kWorkflows, 4, spec);

  FleetOptions options;
  options.seed = 42;
  options.tenants = 4;
  options.tenant_weights = {4.0, 2.0, 1.0, 1.0};
  options.engine.retries = 10;
  options.campus.allocated_slots = kWorkflows * 48;
  options.osg.base_slots = kWorkflows * 24;
  options.pump_batch = 65'536;
  const FleetResult result = run_fleet(options, requests);
  EXPECT_EQ(result.workflows_succeeded, kWorkflows);
  EXPECT_EQ(result.events_processed, 13'600u);
  EXPECT_EQ(hex(result.digest), "ca560df27ba63d3a");
}

TEST(FleetController, MixedShapeStreamDigestIsPinned) {
  // Every shape, fan-heavy included, arriving as a Poisson stream through
  // staging, chaos, clustering (k = 8 over 10 workers leaves a 2-member
  // tail cluster) and a binding jobs-in-flight cap.
  workload::ArrivalParams params;
  params.process = workload::ArrivalProcess::kPoisson;
  params.count = 21;
  params.tenants = 3;
  params.mean_interarrival_seconds = 90;
  params.seed = 77;
  params.shapes.clear();
  for (const auto shape : workload::all_shapes()) {
    params.shapes.push_back(spec_of(shape, 10, 1));
  }
  auto heavy = spec_of(workload::Shape::kFan, 4, 1);
  heavy.fan_arity_step = 2;
  params.shapes.push_back(heavy);
  const auto requests = workload::generate_arrivals(params);

  FleetOptions options;
  options.seed = 5;
  options.tenants = 3;
  options.tenant_weights = {2.0, 1.0, 1.0};
  options.cluster_size = 8;
  options.model_staging = true;
  options.max_jobs_in_flight = 40;
  options.engine.retries = 10;
  wms::ChaosConfig chaos;
  chaos.fail_probability = 0.05;
  chaos.delay_probability = 0.05;
  chaos.max_delay_seconds = 120;
  options.chaos = chaos;
  const FleetResult result = run_fleet(options, requests);
  EXPECT_EQ(result.workflows_completed, 21u);
  EXPECT_EQ(result.workflows_succeeded, 21u);
  EXPECT_LE(result.peak_jobs_in_flight, 40u);
  std::size_t retries = 0;
  for (const auto& outcome : result.outcomes) retries += outcome.retries;
  EXPECT_EQ(retries, 28u);
  EXPECT_EQ(result.events_processed, 538u);
  EXPECT_EQ(hex(result.digest), "98864a36cbe784f2");
  // Engines whose step is provably a no-op are skipped; stepping every
  // live engine every round took 1939 steps for the same digest.
  EXPECT_EQ(result.engine_steps, 428u);
  EXPECT_LT(result.engine_steps, 1939u);
}

TEST(FleetController, TimeoutBackoffBlacklistStreamDigestIsPinned) {
  // The engine's recovery paths under a fleet: attempt timeouts reclaim
  // chaos hangs, retries cool off under jittered backoff, and nodes that
  // keep failing are blacklisted — all interleaved with staging transfers
  // and a binding jobs-in-flight cap on one clock.
  workload::ArrivalParams params;
  params.process = workload::ArrivalProcess::kPoisson;
  params.count = 40;
  params.tenants = 3;
  params.mean_interarrival_seconds = 60;
  params.seed = 91;
  params.shapes.clear();
  for (const auto shape : workload::all_shapes()) {
    params.shapes.push_back(spec_of(shape, 12, 1));
  }
  const auto requests = workload::generate_arrivals(params);

  FleetOptions options;
  options.seed = 7;
  options.tenants = 3;
  options.tenant_weights = {2.0, 1.0, 1.0};
  options.model_staging = true;
  options.max_jobs_in_flight = 48;
  options.engine.retries = 12;
  options.engine.attempt_timeout_seconds = 4000;
  options.engine.backoff_base_seconds = 30;
  options.engine.backoff_jitter = 0.3;
  options.engine.node_blacklist_threshold = 3;
  wms::ChaosConfig chaos;
  chaos.fail_probability = 0.05;
  chaos.hang_probability = 0.03;
  chaos.delay_probability = 0.08;
  chaos.corrupt_probability = 0.02;
  chaos.max_delay_seconds = 300;
  options.chaos = chaos;
  const FleetResult result = run_fleet(options, requests);
  EXPECT_EQ(result.workflows_completed, 40u);
  EXPECT_EQ(result.workflows_succeeded, 40u);
  EXPECT_LE(result.peak_jobs_in_flight, 48u);
  std::size_t retries = 0;
  for (const auto& outcome : result.outcomes) retries += outcome.retries;
  EXPECT_EQ(retries, 128u);
  EXPECT_EQ(result.events_processed, 2139u);
  EXPECT_EQ(result.engine_events, 5315u);
  EXPECT_EQ(hex(result.digest), "528953c03a42abf6");
  EXPECT_EQ(result.engine_steps, 1'590u);  // 21'323 without the idle skip
}

TEST(FleetController, LateCompletionsOfAReapedWorkflowAreDropped) {
  // Six campus slots against eight bursting workflows: attempts queue past
  // the 400 s timeout, the engines write them off and retry, and workflows
  // finish — and are reaped, services and all — while written-off
  // attempts still hold platform slots. Their results must be counted and
  // dropped, never delivered to a destroyed service.
  FleetOptions options;
  options.tenants = 1;
  options.dual_platform = true;
  options.engine.retries = 50;
  options.engine.attempt_timeout_seconds = 400;
  options.campus.allocated_slots = 6;
  const auto requests =
      burst_requests(8, 1, spec_of(workload::Shape::kBlast2cap3, 8, 11));
  const FleetResult first = run_fleet(options, requests);
  EXPECT_EQ(first.workflows_completed, 8u);
  EXPECT_GT(first.dropped_completions, 0u);
  const FleetResult second = run_fleet(options, requests);
  EXPECT_EQ(second.digest, first.digest);
  EXPECT_EQ(second.dropped_completions, first.dropped_completions);
}

TEST(FleetController, LateTransfersOfAReapedWorkflowAreDropped) {
  // A stage-in job that times out with no retry left fails its workflow,
  // which is reaped while the job's transfers are still running on the
  // shared TransferManager; the next arrival keeps the clock running until
  // they land. Their callbacks must not reach the destroyed staging
  // service.
  FleetOptions options;
  options.tenants = 1;
  options.model_staging = true;
  options.engine.retries = 0;
  options.engine.attempt_timeout_seconds = 1;
  auto requests = burst_requests(4, 1, spec_of(workload::Shape::kBlast2cap3, 4, 21));
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].arrival_seconds = 1.5 * static_cast<double>(i);
  }
  const FleetResult first = run_fleet(options, requests);
  EXPECT_EQ(first.workflows_completed, 4u);
  EXPECT_EQ(first.workflows_succeeded, 0u);
  const FleetResult second = run_fleet(options, requests);
  EXPECT_EQ(second.digest, first.digest);
}

TEST(FleetController, EqualWeightsFinishTogether) {
  // Two tenants, identical burst of work, equal weights: their last
  // completions must land close together (neither tenant starves).
  const auto requests =
      burst_requests(16, 2, spec_of(workload::Shape::kFan, 8, 17));

  FleetOptions options;
  options.tenants = 2;
  options.dual_platform = false;  // one platform: capacity perfectly shared
  options.max_jobs_in_flight = 12;
  const FleetResult result = run_fleet(options, requests);
  ASSERT_EQ(result.workflows_completed, 16u);

  double last[2] = {0, 0};
  for (const auto& outcome : result.outcomes) {
    last[outcome.tenant] = std::max(last[outcome.tenant], outcome.finished_seconds);
  }
  const double spread = std::abs(last[0] - last[1]);
  const double horizon = std::max(last[0], last[1]);
  EXPECT_LT(spread, 0.25 * horizon)
      << "tenant finish times " << last[0] << " vs " << last[1];
}

TEST(FleetController, WeightedTenantsGetProportionalThroughput) {
  // 3:1 weights on identical workloads and a binding jobs-in-flight cap:
  // the heavy tenant runs ~3x the job throughput, so it drains its half of
  // the burst well before the light tenant drains its own (whose tail only
  // accelerates once the heavy tenant's work is gone).
  const auto requests =
      burst_requests(24, 2, spec_of(workload::Shape::kFan, 8, 19));

  FleetOptions options;
  options.tenants = 2;
  options.tenant_weights = {3.0, 1.0};
  options.dual_platform = false;
  options.max_jobs_in_flight = 12;
  const FleetResult result = run_fleet(options, requests);
  ASSERT_EQ(result.workflows_completed, 24u);
  EXPECT_LE(result.peak_jobs_in_flight, 12u);  // the cap is a hard cap

  double last[2] = {0, 0};
  for (const auto& outcome : result.outcomes) {
    last[outcome.tenant] = std::max(last[outcome.tenant], outcome.finished_seconds);
  }
  EXPECT_LT(last[0], 0.8 * last[1])
      << "heavy tenant finished at " << last[0] << ", light at " << last[1];
  // While the heavy tenant was still running, the light tenant should have
  // completed well under half of its own workflows.
  std::size_t light_before_heavy_done = 0;
  for (const auto& outcome : result.outcomes) {
    if (outcome.tenant == 1 && outcome.finished_seconds <= last[0]) {
      ++light_before_heavy_done;
    }
  }
  EXPECT_LE(light_before_heavy_done, 8u);
}

TEST(FleetController, CapIsEnforcedAtPeak) {
  const auto requests =
      burst_requests(10, 1, spec_of(workload::Shape::kFan, 12, 23));
  FleetOptions options;
  options.tenants = 1;
  options.max_jobs_in_flight = 8;
  const FleetResult result = run_fleet(options, requests);
  EXPECT_EQ(result.workflows_completed, 10u);
  EXPECT_LE(result.peak_jobs_in_flight, 8u);
}

TEST(FleetController, ValidatesInputs) {
  sim::EventQueue queue;
  {
    FleetOptions options;
    options.tenants = 2;
    options.tenant_weights = {1.0};  // wrong arity
    EXPECT_THROW(FleetController(queue, options), common::InvalidArgument);
  }
  {
    FleetOptions options;
    options.tenants = 1;
    options.tenant_weights = {0.0};  // non-positive weight
    EXPECT_THROW(FleetController(queue, options), common::InvalidArgument);
  }
  {
    FleetOptions options;
    options.tenants = 1;
    FleetController controller(queue, options);
    auto requests = burst_requests(2, 1, spec_of(workload::Shape::kChain, 2, 3));
    requests[1].tenant = 5;  // out of range
    EXPECT_THROW(controller.run(requests), common::InvalidArgument);
  }
  {
    sim::EventQueue fresh;
    FleetOptions options;
    options.tenants = 1;
    FleetController controller(fresh, options);
    auto requests = burst_requests(2, 1, spec_of(workload::Shape::kChain, 2, 3));
    requests[0].arrival_seconds = 10;  // unsorted
    EXPECT_THROW(controller.run(requests), common::InvalidArgument);
  }
  {
    sim::EventQueue fresh;
    FleetOptions options;
    options.tenants = 1;
    FleetController controller(fresh, options);
    const auto requests =
        burst_requests(1, 1, spec_of(workload::Shape::kChain, 2, 3));
    EXPECT_EQ(controller.run(requests).workflows_completed, 1u);
    EXPECT_THROW(controller.run(requests), common::InvalidArgument);  // reuse
  }
}

TEST(FleetController, EmptyRequestStreamIsANoop) {
  sim::EventQueue queue;
  FleetOptions options;
  options.tenants = 1;
  FleetController controller(queue, options);
  const FleetResult result = controller.run({});
  EXPECT_EQ(result.workflows_completed, 0u);
  EXPECT_EQ(result.outcomes.size(), 0u);
  EXPECT_EQ(result.p50_makespan_seconds, 0.0);
  EXPECT_FALSE(result.render().empty());
}

TEST(FleetController, RendersASummary)
{
  const auto requests =
      burst_requests(3, 1, spec_of(workload::Shape::kChain, 3, 29));
  FleetOptions options;
  options.tenants = 1;
  const FleetResult result = run_fleet(options, requests);
  const std::string text = result.render();
  EXPECT_NE(text.find("3 workflows"), std::string::npos);
  EXPECT_NE(text.find("tenant 0"), std::string::npos);
}

}  // namespace
}  // namespace pga::waas
