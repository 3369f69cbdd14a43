// Microbenchmarks for the discrete-event core and platform models.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.hpp"
#include "sim/campus_cluster.hpp"
#include "sim/event_queue.hpp"
#include "sim/osg.hpp"

namespace {

using namespace pga;

/// Counts successful results; with `resubmit` set it also retries each
/// failed attempt (the scheduler's role) until it succeeds.
class CountingSink final : public sim::CompletionSink {
 public:
  CountingSink(sim::ExecutionPlatform& platform, bool resubmit = false)
      : platform_(platform), id_(platform.add_sink(*this)), resubmit_(resubmit) {}
  ~CountingSink() { platform_.remove_sink(id_); }
  CountingSink(const CountingSink&) = delete;
  CountingSink& operator=(const CountingSink&) = delete;

  void submit(const sim::SimJob& job) { platform_.submit(id_, job); }
  void on_attempt(const sim::AttemptResult& result) override {
    if (result.success) {
      ++done;
    } else if (resubmit_) {
      submit({.job = result.job,
              .transformation = "t",
              .cpu_seconds = 1'500,
              .needs_software_setup = true});
    }
  }

  std::size_t done = 0;

 private:
  sim::ExecutionPlatform& platform_;
  sim::SinkId id_;
  bool resubmit_;
};

void BM_EventQueueThroughput(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue queue;
    std::size_t fired = 0;
    for (std::size_t i = 0; i < events; ++i) {
      queue.schedule(static_cast<double>((i * 7919) % events), [&fired] { ++fired; });
    }
    queue.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventQueueThroughput)->Range(1'000, 100'000);

// Classic hold model: with `pending` events in the queue, each iteration
// pops one and the popped action schedules one replacement an
// exponential increment later, so the queue stays at a fixed size.
struct Hold {
  sim::EventQueue* queue;
  common::Rng* rng;
  void operator()() const { queue->schedule_in(rng->exponential(1.0), *this); }
};

void BM_EventQueueHold(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  sim::EventQueue queue;
  common::Rng rng(42);
  for (std::size_t i = 0; i < pending; ++i) {
    queue.schedule(rng.exponential(1.0), Hold{&queue, &rng});
  }
  for (auto _ : state) benchmark::DoNotOptimize(queue.step());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueHold)->Arg(1'000)->Arg(50'000);

void BM_CampusClusterJobs(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue queue;
    sim::CampusClusterPlatform platform(queue, {});
    CountingSink sink(platform);
    for (std::size_t i = 0; i < jobs; ++i) {
      sink.submit({.job = static_cast<std::uint32_t>(i),
                   .transformation = "t",
                   .cpu_seconds = 1'000});
    }
    queue.run();
    benchmark::DoNotOptimize(sink.done);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs));
}
BENCHMARK(BM_CampusClusterJobs)->Range(64, 4'096);

// A fleet-sized burst: 48k jobs at t=0 onto a 48k-slot allocation (the
// perfbench fleet-burst campus size), so every job dispatches at once and
// the queue peaks at one completion event per job.
void BM_CampusClusterBurst(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  sim::CampusClusterConfig config;
  config.allocated_slots = jobs;
  for (auto _ : state) {
    sim::EventQueue queue;
    sim::CampusClusterPlatform platform(queue, config);
    CountingSink sink(platform);
    for (std::size_t i = 0; i < jobs; ++i) {
      sink.submit({.job = static_cast<std::uint32_t>(i),
                   .transformation = "run_cap3",
                   .cpu_seconds = 1'000});
    }
    queue.run();
    benchmark::DoNotOptimize(sink.done);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs));
}
BENCHMARK(BM_CampusClusterBurst)->Arg(48'000)->Unit(benchmark::kMillisecond);

void BM_OsgJobsWithPreemption(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue queue;
    sim::OsgConfig config;
    config.preempt_mean = 2'000;
    sim::OsgPlatform platform(queue, config);
    CountingSink sink(platform, /*resubmit=*/true);
    for (std::size_t i = 0; i < jobs; ++i) {
      sink.submit({.job = static_cast<std::uint32_t>(i),
                   .transformation = "t",
                   .cpu_seconds = 1'500,
                   .needs_software_setup = true});
    }
    queue.run();
    benchmark::DoNotOptimize(sink.done);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs));
}
BENCHMARK(BM_OsgJobsWithPreemption)->Range(64, 1'024);

}  // namespace

BENCHMARK_MAIN();
