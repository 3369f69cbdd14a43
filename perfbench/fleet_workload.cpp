// `fleet-burst` and `fleet-stream`: the simulated multi-tenant WaaS stack
// (workload generator, planner, DAGMan engine instances, both platform
// models and the data layer on one clock), loaded two opposite ways.
//
// burst:  W blast2cap3 requests at t=0, four tenants weighted 4:2:1:1,
//         both platforms with elastic slots, no clustering, staging or
//         chaos. Bound by admission and planning; few scheduling rounds.
// stream: an open-loop Poisson stream cycling over all six generator
//         shapes, with modelled staging, chaos (failures and delays),
//         clustering and a fleet-wide jobs-in-flight cap. Many small
//         scheduling rounds with retries and transfers; planning is cheap.
//
// One pass = a fresh controller (set-up, timed apart) running the whole
// request stream to completion. fleet-stream passes cycle over several
// request streams drawn from the run seed. Every pass is checked: all
// workflows succeed with the expected job count, per-tenant totals sum to
// the fleet totals, and the fleet digest equals that of the stream's
// warm-up pass.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "data/storage_events.hpp"
#include "sim/event_queue.hpp"
#include "waas/fleet.hpp"
#include "wms/planner.hpp"
#include "workload/arrival.hpp"
#include "workload/generator.hpp"
#include "workload/streamed.hpp"
#include "host.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace pga;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kTenants = 4;
// Set-up takes microseconds, so every pass is preceded by this many extra
// (discarded) set-ups: setup_s is then a median over many samples spread
// across the whole run.
constexpr std::size_t kExtraSetups = 8;
// fleet-stream passes cycle over this many request streams drawn from the
// run seed, so that no single stream's arrival pattern and peak backlog
// set a run's figures.
constexpr std::size_t kStreamSeeds = 4;
const std::vector<double> kWeights{4.0, 2.0, 1.0, 1.0};

struct FleetSizing {
  std::size_t workflows = 0;
  std::size_t size = 0;          ///< ShapeSpec::size of every request
  std::size_t cluster_size = 1;  ///< stream only
};

FleetSizing sizing(bool stream, bool smoke) {
  if (stream) return smoke ? FleetSizing{24, 8, 2} : FleetSizing{300, 64, 8};
  return smoke ? FleetSizing{40, 12, 1} : FleetSizing{1000, 128, 1};
}

std::vector<workload::WorkflowRequest> make_requests(bool stream,
                                                     const FleetSizing& size,
                                                     std::uint64_t seed) {
  if (stream) {
    workload::ArrivalParams params;
    params.process = workload::ArrivalProcess::kPoisson;
    params.count = size.workflows;
    params.mean_interarrival_seconds = 120;
    params.seed = seed;
    params.tenants = kTenants;
    params.shapes.clear();
    for (const auto shape : workload::all_shapes()) {
      workload::ShapeSpec spec;
      spec.shape = shape;
      spec.size = size.size;
      params.shapes.push_back(spec);
    }
    return workload::generate_arrivals(params);
  }
  workload::ShapeSpec spec;
  spec.shape = workload::Shape::kBlast2cap3;
  spec.size = size.size;
  std::vector<workload::WorkflowRequest> requests(size.workflows);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].index = i;
    requests[i].tenant = i % kTenants;
    requests[i].spec = spec;
    requests[i].spec.seed = common::mix64(seed + i);
  }
  return requests;
}

waas::FleetOptions make_options(bool stream, const FleetSizing& size,
                                std::uint64_t seed) {
  waas::FleetOptions options;
  options.seed = seed;
  options.tenants = kTenants;
  options.tenant_weights = kWeights;
  options.dual_platform = true;
  options.engine.retries = 10;  // OSG preemptions and chaos need headroom
  if (stream) {
    options.cluster_size = size.cluster_size;
    options.model_staging = true;
    options.max_jobs_in_flight = 512;
    wms::ChaosConfig chaos;
    chaos.fail_probability = 0.02;
    chaos.delay_probability = 0.05;
    chaos.max_delay_seconds = 120;
    options.chaos = chaos;
  } else {
    // Elastic provisioning, as in bench/waas_bench: capacity scales with
    // the burst, so the run measures bookkeeping, not queue starvation.
    options.campus.allocated_slots = std::max<std::size_t>(512, size.workflows * 48);
    options.osg.base_slots = std::max<std::size_t>(150, size.workflows * 24);
    options.pump_batch = 65'536;
  }
  return options;
}

/// Counts the controller's admission rounds: it polls its source once per
/// round. Supplies no requests, so the run is unchanged.
class RoundCounter final : public workload::RequestSource {
 public:
  std::vector<workload::WorkflowRequest> poll(double) override {
    ++rounds;
    return {};
  }
  [[nodiscard]] double next_arrival() const override {
    return std::numeric_limits<double>::infinity();
  }
  std::size_t rounds = 0;
};

class StorageCounter final : public data::StorageObserver {
 public:
  void on_storage_event(const data::StorageEvent&) override { ++events; }
  std::size_t events = 0;
};

/// The planning FleetController::admit does for one request, replayed
/// outside the fleet. Returns the planned job count.
std::size_t plan_jobs(const workload::ShapeSpec& spec, const std::string& site,
                      std::size_t cluster_size) {
  if (cluster_size > 1 && workload::streamed_build_supported(spec)) {
    workload::StreamedBuildOptions build;
    build.site = site;
    build.cluster_size = cluster_size;
    return workload::build_concrete_streamed(spec, build).jobs().size();
  }
  const wms::AbstractWorkflow abstract = workload::build_workflow(spec);
  wms::PlannerOptions planner;
  planner.target_site = site;
  planner.cluster_factor = cluster_size;
  planner.expected_output_bytes = workload::expected_output_bytes(spec);
  return wms::plan(abstract, workload::generator_site_catalog(),
                   workload::generator_transformation_catalog(abstract),
                   workload::generator_replica_catalog(abstract, spec), planner)
      .jobs()
      .size();
}

/// One request stream's reference, fixed by its warm-up pass: the seed it
/// is drawn from, every request's expected job count and the fleet digest.
struct Reference {
  std::uint64_t seed = 0;
  std::vector<std::size_t> expected_jobs;
  std::uint64_t digest = 0;
};

/// One pass's set-up: the request stream and a fresh controller on a
/// fresh clock (declared first, so it outlives the controller).
struct Fleet {
  std::vector<workload::WorkflowRequest> requests;
  std::unique_ptr<sim::EventQueue> queue;
  std::unique_ptr<waas::FleetController> controller;
};

Fleet set_up(bool stream, const FleetSizing& size, std::uint64_t seed,
             Tracer& tracer) {
  Fleet fleet;
  {
    Tracer::Span span(tracer, "workload.arrivals");
    fleet.requests = make_requests(stream, size, seed);
  }
  Tracer::Span span(tracer, "waas.construct");
  fleet.queue = std::make_unique<sim::EventQueue>();
  fleet.controller = std::make_unique<waas::FleetController>(
      *fleet.queue, make_options(stream, size, seed));
  return fleet;
}

}  // namespace

void run_fleet(const RunOptions& options, bool stream, Tracer& tracer,
               Report& report) {
  const FleetSizing size = sizing(stream, options.smoke);
  Tracer untraced(false);

  std::vector<double> setup_times;
  const auto timed_setup = [&](Tracer& t, const Reference& ref) {
    Tracer::Span span(t, "setup");
    Fleet fleet = set_up(stream, size, ref.seed, t);
    setup_times.push_back(span.elapsed());
    return fleet;
  };

  // Warm-up pass per request stream: fixes the expected job count of every
  // request (the closed form plus the planner's stage-in/stage-out pair
  // when unclustered; the replayed plan when clustered) and the digest
  // every later pass on that stream must reproduce.
  const std::size_t streams = stream && !options.smoke ? kStreamSeeds : 1;
  std::vector<Reference> refs(streams);
  std::string digests;
  for (std::size_t k = 0; k < streams; ++k) {
    Reference& ref = refs[k];
    ref.seed = streams == 1 ? options.seed : options.seed * streams + k;
    ref.expected_jobs.assign(size.workflows, 0);
    Fleet fleet = timed_setup(untraced, ref);
    const waas::FleetResult result = fleet.controller->run(fleet.requests);
    ref.digest = result.digest;
    for (const auto& outcome : result.outcomes) {
      const auto& spec = fleet.requests.at(outcome.index).spec;
      const std::size_t planned = plan_jobs(spec, outcome.platform, size.cluster_size);
      if (size.cluster_size == 1) {
        report.check(planned == workload::closed_form_counts(spec).jobs + 2,
                     "planned job count equals the closed form + stage pair");
      }
      ref.expected_jobs.at(outcome.index) = planned;
    }
    char hex[18];
    std::snprintf(hex, sizeof(hex), " %016llx",
                  static_cast<unsigned long long>(ref.digest));
    digests += hex;
  }

  std::vector<double> rates;  // simulated jobs per wall second, per pass
  const auto checked_run = [&](Fleet& fleet, const Reference& ref,
                               std::vector<double>& walls,
                               workload::RequestSource* source) {
    const auto start = Clock::now();
    waas::FleetResult result = fleet.controller->run(fleet.requests, source);
    walls.push_back(std::chrono::duration<double>(Clock::now() - start).count());

    const std::size_t count = fleet.requests.size();
    bool jobs_ok = result.outcomes.size() == count;
    std::size_t jobs = 0;
    for (const auto& outcome : result.outcomes) {
      jobs_ok = jobs_ok && outcome.jobs == ref.expected_jobs.at(outcome.index);
      jobs += outcome.jobs;
    }
    std::size_t admitted = 0, completed = 0, succeeded = 0, jobs_succeeded = 0;
    for (const auto& tenant : result.tenants) {
      admitted += tenant.workflows_admitted;
      completed += tenant.workflows_completed;
      succeeded += tenant.workflows_succeeded;
      jobs_succeeded += tenant.jobs_succeeded;
    }
    report.check(jobs_ok, "every workflow ran its expected job count");
    report.check(admitted == count && completed == result.workflows_completed &&
                     succeeded == result.workflows_succeeded &&
                     jobs_succeeded == jobs,
                 "per-tenant totals sum to the fleet totals");
    report.check(result.digest == ref.digest, "fleet digest equals the warm-up pass's");
    report.attempted += count;
    report.failed += count - result.workflows_succeeded;
    if (source == nullptr) rates.push_back(static_cast<double>(jobs) / walls.back());
    return result;
  };

  std::vector<double> walls;
  CoreRotation cores;
  std::size_t turn = 0;
  const auto next_ref = [&]() -> const Reference& { return refs[turn++ % streams]; };
  const auto untraced_pass = [&](const Reference& ref) {
    cores.next();
    for (std::size_t k = 0; k < kExtraSetups; ++k) (void)timed_setup(untraced, ref);
    Fleet fleet = timed_setup(untraced, ref);
    checked_run(fleet, ref, walls, nullptr);
  };

  report.note(std::string(stream ? "fleet-stream: " : "fleet-burst: ") +
              std::to_string(streams) + " x " + std::to_string(size.workflows) +
              " workflows, size " + std::to_string(size.size) + ", digests" + digests);

  if (!options.trace) {
    repeat_for(options.seconds, 3, [&] { untraced_pass(next_ref()); });
    report.note(describe("setup_s", setup_times));
    report.note(describe("wall_s", walls));
    report.metric("setup_s", median(setup_times), "s");
    // The fastest pass: outside load on a shared host slows these
    // single-threaded passes in phases of seconds to minutes, and the
    // fastest pass moves far less with those phases than the median does.
    report.metric("wall_s", min_of(walls), "s");
    report.metric("items_per_s", *std::max_element(rates.begin(), rates.end()), "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Untraced passes (the overhead baseline) alternate with traced ones.
  std::vector<double> traced_walls;
  Samples samples;
  repeat_for(options.seconds, 2, [&] {
    const Reference& ref = next_ref();
    untraced_pass(ref);
    cores.next();
    RoundCounter rounds;  // outlive the controller that holds them
    StorageCounter storage;
    Fleet fleet = timed_setup(tracer, ref);
    const double arrivals_s = tracer.last_seconds("workload.arrivals");
    if (auto* bus = fleet.controller->storage_bus()) bus->subscribe(&storage);
    waas::FleetResult result;
    {
      Tracer::Span span(tracer, "waas.run");
      result = checked_run(fleet, ref, traced_walls, &rounds);
    }
    const double run_s = traced_walls.back();

    std::size_t planned = 0, retries = 0, jobs = 0, on_osg = 0;
    {
      Tracer::Span span(tracer, "workload.plan");
      for (const auto& outcome : result.outcomes) {
        planned += plan_jobs(fleet.requests.at(outcome.index).spec, outcome.platform,
                             size.cluster_size);
      }
      samples.add("workload.plan_s", span.elapsed(), "s");
    }
    for (const auto& outcome : result.outcomes) {
      retries += outcome.retries;
      jobs += outcome.jobs;
      on_osg += outcome.platform == "osg" ? 1 : 0;
    }
    report.check(planned == jobs, "replayed plans match the fleet's job counts");
    tracer.count("waas.rounds", static_cast<double>(rounds.rounds));
    tracer.count("sim.events", static_cast<double>(result.events_processed));

    samples.add("workload.arrivals_s", arrivals_s, "s");
    samples.add("wms.planned_jobs", static_cast<double>(planned), "count");
    samples.add("waas.run_s", run_s, "s");
    samples.add("waas.rounds", static_cast<double>(rounds.rounds), "count");
    samples.add("sim.events", static_cast<double>(result.events_processed), "count");
    samples.add("sim.events_per_s",
                static_cast<double>(result.events_processed) / run_s, "1/s");
    samples.add("wms.engine_events", static_cast<double>(result.engine_events),
                "count");
    samples.add("waas.peak_jobs_in_flight",
                static_cast<double>(result.peak_jobs_in_flight), "count");
    samples.add("wms.retries", static_cast<double>(retries), "count");
    samples.add("wms.retry_ratio",
                static_cast<double>(retries) / static_cast<double>(jobs), "ratio");
    samples.add("data.storage_events", static_cast<double>(storage.events), "count");
    samples.add("waas.placed_sandhills",
                static_cast<double>(result.outcomes.size() - on_osg), "count");
    samples.add("waas.placed_osg", static_cast<double>(on_osg), "count");
    samples.add("waas.sim_p50_makespan_s", result.p50_makespan_seconds, "s");
    samples.add("waas.sim_p99_makespan_s", result.p99_makespan_seconds, "s");
  });
  samples.emit_medians(report);
  report.metric("trace.overhead_s", median(traced_walls) - median(walls), "s");
}

}  // namespace perfbench
