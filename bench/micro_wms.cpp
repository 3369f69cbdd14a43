// Microbenchmarks for the workflow system (google-benchmark): DAX
// construction/serialization, planning, engine scheduling throughput, and
// the scheduler core's ready-set cost on a 5k-job wide DAG.
#include <benchmark/benchmark.h>

#include <deque>
#include <string>

#include "core/b2c3_workflow.hpp"
#include "sim/campus_cluster.hpp"
#include "wms/dax_xml.hpp"
#include "wms/engine.hpp"
#include "wms/exec_service.hpp"
#include "wms/fault_injection.hpp"
#include "wms/scheduler.hpp"

namespace {

using namespace pga;

void BM_BuildDax(benchmark::State& state) {
  const core::B2c3WorkflowSpec spec{.n = static_cast<std::size_t>(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_blast2cap3_dax(spec));
  }
}
BENCHMARK(BM_BuildDax)->Arg(10)->Arg(100)->Arg(500);

void BM_DaxXmlRoundTrip(benchmark::State& state) {
  const core::B2c3WorkflowSpec spec{.n = static_cast<std::size_t>(state.range(0))};
  const auto dax = core::build_blast2cap3_dax(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wms::from_dax_xml(wms::to_dax_xml(dax)));
  }
}
BENCHMARK(BM_DaxXmlRoundTrip)->Arg(10)->Arg(100)->Arg(500);

void BM_Plan(benchmark::State& state) {
  const core::B2c3WorkflowSpec spec{.n = static_cast<std::size_t>(state.range(0))};
  const auto dax = core::build_blast2cap3_dax(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::plan_for_site(dax, "osg", spec));
  }
}
BENCHMARK(BM_Plan)->Arg(10)->Arg(100)->Arg(500);

void BM_PlanWithClustering(benchmark::State& state) {
  const core::B2c3WorkflowSpec spec{.n = 500};
  const auto dax = core::build_blast2cap3_dax(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::plan_for_site(
        dax, "osg", spec, static_cast<std::size_t>(state.range(0))));
  }
}
BENCHMARK(BM_PlanWithClustering)->Arg(1)->Arg(5)->Arg(25);

void BM_EngineSimulatedRun(benchmark::State& state) {
  const core::WorkloadModel workload;
  const core::B2c3WorkflowSpec spec{.n = static_cast<std::size_t>(state.range(0))};
  const auto dax = core::build_blast2cap3_dax(spec, &workload);
  const auto concrete = core::plan_for_site(dax, "sandhills", spec);
  for (auto _ : state) {
    sim::EventQueue queue;
    sim::CampusClusterPlatform platform(queue, {});
    wms::SimService service(queue, platform);
    wms::DagmanEngine engine;
    benchmark::DoNotOptimize(engine.run(concrete, service));
  }
  state.counters["jobs"] = static_cast<double>(concrete.jobs().size());
}
BENCHMARK(BM_EngineSimulatedRun)->Arg(10)->Arg(100)->Arg(500);

void BM_EngineChaosRun(benchmark::State& state) {
  // Scheduling throughput with the hardening features exercised: chaos
  // fault injection plus attempt timeouts, retry backoff and node
  // blacklisting. Measures the engine's bookkeeping overhead, not the
  // simulated time.
  const core::WorkloadModel workload;
  const core::B2c3WorkflowSpec spec{.n = static_cast<std::size_t>(state.range(0))};
  const auto dax = core::build_blast2cap3_dax(spec, &workload);
  const auto concrete = core::plan_for_site(dax, "sandhills", spec);
  wms::ChaosConfig chaos;
  chaos.fail_probability = 0.1;
  chaos.hang_probability = 0.05;
  chaos.delay_probability = 0.1;
  chaos.seed = 99;
  wms::EngineOptions options;
  options.retries = 5;
  options.attempt_timeout_seconds = 50'000;
  options.backoff_base_seconds = 5;
  options.backoff_max_seconds = 60;
  options.node_blacklist_threshold = 3;
  for (auto _ : state) {
    sim::EventQueue queue;
    sim::CampusClusterPlatform platform(queue, {});
    wms::SimService service(queue, platform);
    wms::FaultyService faulty(service, wms::FaultPlan().chaos(chaos));
    wms::DagmanEngine engine(options);
    benchmark::DoNotOptimize(engine.run(concrete, faulty));
  }
  state.counters["jobs"] = static_cast<double>(concrete.jobs().size());
}
BENCHMARK(BM_EngineChaosRun)->Arg(10)->Arg(100);

// ------------------------------------------------ scheduler-core benches

/// split -> width workers -> merge: the shape that stresses the ready set,
/// since all workers become ready at once. Worker costs vary so the
/// scoring policies have real decisions to make.
wms::ConcreteWorkflow wide_dag(std::size_t width) {
  wms::ConcreteWorkflow workflow("wide", "bench");
  const auto add = [&](const std::string& id, double hint) {
    wms::ConcreteJob job;
    job.id = id;
    job.transformation = "work";
    job.cpu_seconds_hint = hint;
    workflow.add_job(std::move(job));
  };
  add("a_split", 100);
  add("z_merge", 100);
  for (std::size_t i = 0; i < width; ++i) {
    const std::string id = "w" + std::to_string(i);
    add(id, 50.0 + static_cast<double>((i * 37) % 400));
    workflow.add_dependency("a_split", id);
    workflow.add_dependency(id, "z_merge");
  }
  return workflow;
}

/// Completes every submitted attempt on the next wait(), one tick later —
/// the run measures pure engine/policy bookkeeping, no simulation.
class InstantService final : public wms::ExecutionService {
 public:
  void submit(const wms::ConcreteJob& job) override {
    pending_.emplace_back(job.index, now_);
  }
  std::vector<wms::TaskAttempt> wait() override {
    now_ += 1.0;
    std::vector<wms::TaskAttempt> out;
    out.reserve(pending_.size());
    for (const auto& [handle, submitted] : pending_) {
      wms::TaskAttempt attempt;
      attempt.job = handle;
      attempt.success = true;
      attempt.node = "bench";
      attempt.submit_time = submitted;
      attempt.end_time = now_;
      out.push_back(std::move(attempt));
    }
    pending_.clear();
    return out;
  }
  double now() override { return now_; }
  [[nodiscard]] std::string label() const override { return "instant"; }

 private:
  double now_ = 0;
  std::vector<std::pair<std::uint32_t, double>> pending_;  ///< handle, submit time
};

void BM_WideDagPolicy(benchmark::State& state, const std::string& policy) {
  // Full engine run over the 5k-wide DAG under a 64-job throttle, so the
  // policy picks from a ready set thousands of entries deep. FIFO pops in
  // O(1); the scoring policies pay a scan per pick.
  const auto workflow = wide_dag(5000);
  for (auto _ : state) {
    InstantService service;
    wms::EngineOptions options;
    options.max_jobs_in_flight = 64;
    options.policy = wms::make_policy(policy);
    wms::DagmanEngine engine(std::move(options));
    benchmark::DoNotOptimize(engine.run(workflow, service));
  }
  state.counters["jobs"] = static_cast<double>(workflow.jobs().size());
}
BENCHMARK_CAPTURE(BM_WideDagPolicy, fifo, "fifo");
BENCHMARK_CAPTURE(BM_WideDagPolicy, priority, "priority");
BENCHMARK_CAPTURE(BM_WideDagPolicy, critical_path, "critical-path");
BENCHMARK_CAPTURE(BM_WideDagPolicy, widest_branch, "widest-branch");

void BM_ReadySetLegacyScan(benchmark::State& state) {
  // The pre-refactor pop_ready: a priority scan over a deque of job-id
  // strings, with two catalog map lookups per comparison. Draining a
  // 5k-wide ready set this way is O(n^2) scans on O(log n) lookups.
  const auto workflow = wide_dag(5000);
  std::deque<std::string> seed;
  for (const auto& job : workflow.jobs()) {
    if (job.transformation == "work") seed.push_back(job.id);
  }
  for (auto _ : state) {
    auto ready = seed;
    double sink = 0;
    while (!ready.empty()) {
      auto best = ready.begin();
      for (auto it = std::next(ready.begin()); it != ready.end(); ++it) {
        if (workflow.job(*it).priority > workflow.job(*best).priority) best = it;
      }
      sink += workflow.job(*best).cpu_seconds_hint;
      ready.erase(best);
    }
    benchmark::DoNotOptimize(sink);
  }
  state.counters["jobs"] = static_cast<double>(seed.size());
}
BENCHMARK(BM_ReadySetLegacyScan)->Unit(benchmark::kMillisecond);

void BM_ReadySetStateMachine(benchmark::State& state) {
  // The same drain through JobStateMachine under FIFO: O(1) pops of dense
  // indices, children released by predecessor-count decrement. Includes
  // building the state machine each iteration (the legacy arm likewise
  // copies its seed deque).
  const auto workflow = wide_dag(5000);
  const auto& jobs = workflow.jobs();
  for (auto _ : state) {
    wms::JobStateMachine fsm(workflow);
    fsm.seed_root(fsm.index_of("a_split"));
    double sink = 0;
    while (fsm.has_ready()) {
      const std::uint32_t index = fsm.take_ready(0);
      sink += jobs[index].cpu_seconds_hint;
      fsm.mark_done(index);
      fsm.release_children(index);
    }
    benchmark::DoNotOptimize(sink);
  }
  state.counters["jobs"] = static_cast<double>(jobs.size());
}
BENCHMARK(BM_ReadySetStateMachine)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
