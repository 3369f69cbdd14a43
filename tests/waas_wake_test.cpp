// Wake-summary contract (waas/wake.hpp): a fleet round may pass over an
// engine without touching it only when that engine's step is a no-op —
// whenever the summary rules an engine out under a grant g, idle(g) holds,
// for g in {0, 1, unlimited}. The property is checked where it is hardest:
// several engines on one clock, each over Faulty(Staging(Sim)) with chaos
// hangs (reclaimed by attempt timeouts), delayed completions held inside
// the decorator, jittered retry backoff, shared modeled transfers with
// reuse_resident bypasses, and rotating grants — while the queue runs one
// event at a time.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "data/staging_service.hpp"
#include "data/transfer_manager.hpp"
#include "sim/campus_cluster.hpp"
#include "sim/event_queue.hpp"
#include "waas/wake.hpp"
#include "wms/engine.hpp"
#include "wms/exec_service.hpp"
#include "wms/fault_injection.hpp"
#include "workload/generator.hpp"
#include "workload/plan_template.hpp"

namespace pga::waas {
namespace {

constexpr std::size_t kUnlimited = std::numeric_limits<std::size_t>::max();

/// One fleet-style engine: plan, service stack, engine and wake summary.
struct Stack {
  Stack(sim::EventQueue& queue, sim::ExecutionPlatform& platform,
        data::TransferManager& transfers, workload::PlanTemplate::Instance plan,
        std::uint64_t seed)
      : workflow(std::move(plan.workflow)),
        replicas(std::move(plan.replicas)),
        sim(queue, platform),
        staging(queue, sim, transfers, replicas,
                {.execution_site = "sandhills", .reuse_resident = true}),
        faulty(staging, wms::FaultPlan().chaos(chaos(seed))),
        engine(options(seed), workflow, faulty) {
    faulty.set_delivery_flag(&delivered);
    wake.refresh(engine, delivered);
  }

  static wms::ChaosConfig chaos(std::uint64_t seed) {
    wms::ChaosConfig config;
    config.fail_probability = 0.1;
    config.hang_probability = 0.1;
    config.delay_probability = 0.25;
    config.max_delay_seconds = 900;
    config.seed = seed;
    return config;
  }

  static wms::EngineOptions options(std::uint64_t seed) {
    wms::EngineOptions options{.retries = 30, .rescue_path = {}};
    options.attempt_timeout_seconds = 2500;
    options.backoff_base_seconds = 40;
    options.backoff_jitter = 0.3;
    options.backoff_seed = seed;
    options.lean_report = true;
    return options;
  }

  wms::ConcreteWorkflow workflow;
  wms::ReplicaCatalog replicas;
  wms::SimService sim;
  data::StagingService staging;
  wms::FaultyService faulty;
  wms::EngineInstance engine;
  std::uint8_t delivered = 0;
  WakeSummary wake;
};

TEST(WakeSummary, RuledOutEnginesAreIdleUnderTheirGrant) {
  constexpr std::size_t kEngines = 3;
  const std::size_t grants[] = {0, 1, kUnlimited};
  std::size_t ruled_out = 0;   // the summary passed over an engine
  std::size_t flagged = 0;     // an event set an engine's delivered byte
  std::size_t hangs = 0;
  std::size_t delays = 0;
  std::size_t bypassed = 0;
  std::size_t timed_out = 0;
  double backoff_seconds = 0;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL, 6ULL}) {
    sim::EventQueue queue;
    sim::CampusClusterConfig cfg;
    cfg.seed = seed;
    cfg.allocated_slots = 4;  // contention keeps completions spread out
    sim::CampusClusterPlatform platform(queue, cfg);
    data::TransferManager transfers(queue);  // endpoints auto-register

    // One topology, so the engines stage the same inputs (reuse_resident
    // bypasses once an earlier engine's inputs are resident) and all but
    // the first run a replayed, frozen plan. Engine e arrives at
    // e * kSpacing, overlapping its predecessors.
    constexpr double kSpacing = 1500;
    workload::ShapeSpec spec;
    spec.shape = workload::Shape::kFan;
    spec.size = 12;
    spec.seed = seed;
    std::optional<workload::PlanTemplate::Instance> first;
    const workload::PlanTemplate plan(spec, "sandhills", 1, &first);
    std::vector<workload::PlanTemplate::Instance> plans;
    plans.push_back(std::move(*first));
    for (std::size_t e = 1; e < kEngines; ++e) {
      spec.seed = common::mix64(seed * 31 + e);
      plans.push_back(plan.instantiate(spec));
    }
    std::vector<std::unique_ptr<Stack>> stacks;

    bool all_done = false;
    for (std::size_t round = 0; !all_done; ++round) {
      ASSERT_LT(round, 1'000'000u) << "seed " << seed << " did not converge";
      while (stacks.size() < kEngines &&
             static_cast<double>(stacks.size()) * kSpacing <= queue.now()) {
        const std::size_t e = stacks.size();
        stacks.push_back(std::make_unique<Stack>(queue, platform, transfers,
                                                 std::move(plans[e]),
                                                 common::mix64(seed ^ (0x77 + e))));
      }
      // One round, stepped as the fleet does: an engine is touched only
      // when an event is due now or its summary says it may act.
      bool progress = false;
      for (std::size_t e = 0; e < stacks.size(); ++e) {
        Stack& s = *stacks[e];
        if (s.engine.is_done()) continue;
        const std::size_t grant = grants[(round + e) % 3];
        const auto next = queue.next_time();
        const bool due = next.has_value() && *next <= queue.now();
        if (!due) {
          // Under every grant, not just this round's: ruled out => idle.
          for (const std::size_t g : grants) {
            if (s.wake.may_act(queue.now(), g, s.delivered)) continue;
            ++ruled_out;
            ASSERT_TRUE(s.engine.idle(g))
                << "seed " << seed << " engine " << e << " grant " << g;
          }
          if (!s.wake.may_act(queue.now(), grant, s.delivered)) continue;
        }
        progress |= s.engine.step_cooperative(grant);
        s.wake.refresh(s.engine, s.delivered);
      }
      // Ready jobs left after a quiet round were withheld by a zero grant
      // (back-pressure, not quiescence): the next round's grant differs.
      all_done = stacks.size() == kEngines;
      bool withheld = false;
      double fence = all_done ? std::numeric_limits<double>::infinity()
                              : static_cast<double>(stacks.size()) * kSpacing;
      for (const auto& s : stacks) {
        if (s->engine.is_done()) continue;
        all_done = false;
        withheld |= s->wake.has_ready;
        fence = std::min(fence, s->wake.wake_at);
      }
      if (all_done || progress || withheld) continue;

      // A quiet round: run one event, or burn time to the earliest fence.
      const auto next = queue.next_time();
      if (!next.has_value() || *next > fence) {
        ASSERT_FALSE(std::isinf(fence)) << "seed " << seed << " wedged";
        queue.advance_to(fence);
        continue;
      }
      std::vector<std::uint8_t> before;
      for (const auto& s : stacks) before.push_back(s->delivered);
      queue.step();
      // A delivery can only reach an engine through its byte; the fault
      // injector's held completions come due with time instead.
      for (std::size_t e = 0; e < stacks.size(); ++e) {
        Stack& s = *stacks[e];
        if (s.engine.is_done()) continue;
        if (!s.staging.quiet()) {
          ASSERT_TRUE(s.delivered) << "seed " << seed << " engine " << e;
        }
        if (!s.faulty.quiet()) {
          ASSERT_TRUE(s.delivered || s.wake.wake_at <= queue.now() + kWakeEps)
              << "seed " << seed << " engine " << e;
        }
        if (s.delivered && !before[e]) ++flagged;
      }
    }
    for (const auto& s : stacks) {
      const wms::RunReport report = s->engine.take_report();
      hangs += s->faulty.injected_hangs();
      delays += s->faulty.injected_delays();
      bypassed += s->staging.bypassed_files();
      timed_out += report.timed_out_attempts;
      backoff_seconds += report.total_backoff_seconds;
    }
  }
  // The contract was exercised, and on the paths it reasons about.
  EXPECT_GT(ruled_out, 100u);
  EXPECT_GT(flagged, 100u);
  EXPECT_GT(hangs, 0u);
  EXPECT_GT(delays, 0u);
  EXPECT_GT(bypassed, 0u);
  EXPECT_GT(timed_out, 0u);
  EXPECT_GT(backoff_seconds, 0.0);
}

}  // namespace
}  // namespace pga::waas
