// Long-horizon arrival soak (ROADMAP item 1 follow-up): the fleet runs
// for days of simulated time with tenants joining and leaving mid-run.
// Passing means no stall-guard/deadlock/event-budget SimulationError ever
// trips across the quiet stretches between arrivals, and the telemetry is
// seed-stable (double-run digest identity). Kept tier-1-fast: small
// chain/diamond workflows, sparse arrivals — wall time is dominated by
// ~400 tiny engine runs, not the 3-day simulated horizon.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"
#include "waas/fleet.hpp"
#include "workload/arrival.hpp"
#include "workload/generator.hpp"

namespace pga::waas {
namespace {

constexpr double kDay = 86'400.0;

/// One tenant's membership window: Poisson arrivals from `join` to
/// `leave` (the join/leave machinery is the arrival stream itself — a
/// tenant "leaves" when its arrivals stop and its last engine drains).
std::vector<workload::WorkflowRequest> tenant_stream(
    std::size_t tenant, double join, double leave, double mean_gap,
    std::uint64_t seed, workload::Shape shape, std::size_t& next_index) {
  workload::ArrivalParams params;
  params.count = 10'000;  // horizon-bounded, not count-bounded
  params.mean_interarrival_seconds = mean_gap;
  params.horizon_seconds = leave - join;
  params.seed = seed;
  params.shapes = {workload::ShapeSpec{.shape = shape, .size = 3, .seed = seed}};
  std::vector<workload::WorkflowRequest> stream =
      workload::generate_arrivals(params);
  for (auto& request : stream) {
    request.index = next_index++;
    request.arrival_seconds += join;
    request.tenant = tenant;
  }
  return stream;
}

/// Three tenants over three simulated days: tenant 0 runs the whole
/// horizon, tenant 1 joins at day 1, tenant 2 leaves at day 2.
std::vector<workload::WorkflowRequest> soak_requests() {
  std::size_t next_index = 0;
  auto requests = tenant_stream(0, 0, 3 * kDay, 1'800, 11,
                                workload::Shape::kChain, next_index);
  auto joiner = tenant_stream(1, kDay, 3 * kDay, 1'200, 22,
                              workload::Shape::kDiamond, next_index);
  auto leaver = tenant_stream(2, 0, 2 * kDay, 1'500, 33,
                              workload::Shape::kFan, next_index);
  requests.insert(requests.end(), joiner.begin(), joiner.end());
  requests.insert(requests.end(), leaver.begin(), leaver.end());
  std::stable_sort(requests.begin(), requests.end(),
                   [](const auto& a, const auto& b) {
                     return a.arrival_seconds < b.arrival_seconds;
                   });
  return requests;
}

FleetResult run_soak(const std::vector<workload::WorkflowRequest>& requests) {
  sim::EventQueue queue;
  FleetOptions options;
  options.tenants = 3;
  options.max_jobs_in_flight = 64;
  options.max_active_workflows = 32;
  FleetController controller(queue, options);
  return controller.run(requests);  // any stall guard throws -> test fails
}

TEST(FleetSoak, DaysOfSimulatedTimeWithTenantChurn) {
  const auto requests = soak_requests();
  // The streams must be big enough to mean something: ~100+ workflows.
  ASSERT_GT(requests.size(), 100u);

  const FleetResult result = run_soak(requests);
  EXPECT_EQ(result.workflows_completed, requests.size());
  EXPECT_EQ(result.workflows_succeeded, requests.size());
  // The run really spans the horizon: the joiner's work keeps the fleet
  // alive past day 2 (and nothing stalls across the quiet gaps).
  EXPECT_GE(result.finished_at_seconds, 2 * kDay);

  // Membership windows held: tenant 1 completed nothing before day 1,
  // tenant 2 nothing long after day 2 (its last engine drains quickly).
  std::size_t per_tenant[3] = {0, 0, 0};
  for (const auto& outcome : result.outcomes) {
    ++per_tenant[outcome.tenant];
    if (outcome.tenant == 1) {
      EXPECT_GE(outcome.finished_seconds, kDay);
    }
    if (outcome.tenant == 2) {
      EXPECT_LE(outcome.arrival_seconds, 2 * kDay);
    }
  }
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_GT(per_tenant[t], 0u) << "tenant " << t;
    EXPECT_EQ(result.tenants[t].workflows_completed, per_tenant[t]);
  }
}

TEST(FleetSoak, TelemetryIsSeedStable) {
  const auto requests = soak_requests();
  const FleetResult first = run_soak(requests);
  const FleetResult second = run_soak(requests);
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.events_processed, second.events_processed);
  EXPECT_EQ(first.peak_jobs_in_flight, second.peak_jobs_in_flight);
  EXPECT_DOUBLE_EQ(first.finished_at_seconds, second.finished_at_seconds);
  ASSERT_EQ(first.tenants.size(), second.tenants.size());
  for (std::size_t t = 0; t < first.tenants.size(); ++t) {
    EXPECT_EQ(first.tenants[t].workflows_completed,
              second.tenants[t].workflows_completed);
    EXPECT_EQ(first.tenants[t].jobs_succeeded, second.tenants[t].jobs_succeeded);
  }
}

}  // namespace
}  // namespace pga::waas
