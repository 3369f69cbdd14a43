#include "core/experiment.hpp"

#include <algorithm>
#include <limits>
#include <memory>

#include "common/error.hpp"
#include "data/staging_service.hpp"
#include "wms/engine.hpp"
#include "wms/exec_service.hpp"

namespace pga::core {

double SweepPoint::mean_wall() const {
  if (walls.empty()) return stats.wall_seconds();
  double sum = 0;
  for (const double w : walls) sum += w;
  return sum / static_cast<double>(walls.size());
}

double SweepResults::wall(const std::string& platform, std::size_t n) const {
  return point(platform, n).mean_wall();
}

const SweepPoint& SweepResults::point(const std::string& platform,
                                      std::size_t n) const {
  for (const auto& p : points) {
    if (p.platform == platform && p.n == n) return p;
  }
  throw common::InvalidArgument("no sweep point for " + platform + " n=" +
                                std::to_string(n));
}

namespace {

/// One simulated run and what the platform counted during it.
struct SimulatedRun {
  wms::RunReport report;
  std::size_t preemptions = 0;  ///< OSG evictions; 0 on the other platforms
};

/// Runs `concrete` on a fresh simulated stack: the platform ("sandhills",
/// "osg" or "cloud") seeded with `run_seed`, the optional per-node software
/// cache, the optional modeled staging between `sites`' storage elements
/// reading `replicas`, then the engine under `policy` with `observers`.
/// The Fig. 4 sweep and the shape sweep share it, so both build the
/// stack, and draw its random streams, in one order.
SimulatedRun run_simulated(const ExperimentConfig& config,
                           const wms::ConcreteWorkflow& concrete,
                           const std::string& platform, std::uint64_t run_seed,
                           const wms::SiteCatalog& sites,
                           const wms::ReplicaCatalog& replicas,
                           const std::string& policy,
                           std::vector<wms::EngineObserver*> observers) {
  sim::EventQueue queue;
  // Simulated attempts schedule a handful of events each; pre-sizing the
  // heap keeps large-n sweeps from reallocating it mid-run.
  queue.reserve(concrete.jobs().size() * 4);
  std::unique_ptr<sim::ExecutionPlatform> sim_platform;
  const sim::OsgPlatform* osg_ptr = nullptr;
  if (platform == "sandhills") {
    auto cfg = config.sandhills;
    cfg.seed = run_seed;
    sim_platform = std::make_unique<sim::CampusClusterPlatform>(queue, cfg);
  } else if (platform == "osg") {
    auto cfg = config.osg;
    cfg.seed = run_seed;
    auto osg = std::make_unique<sim::OsgPlatform>(queue, cfg);
    osg_ptr = osg.get();
    sim_platform = std::move(osg);
  } else if (platform == "cloud") {
    auto cfg = config.cloud;
    cfg.seed = run_seed;
    sim_platform = std::make_unique<sim::CloudPlatform>(queue, cfg);
  } else {
    throw common::InvalidArgument("unknown platform: " + platform);
  }

  // Optional data layer: per-node software cache and/or modeled staging.
  std::unique_ptr<data::SoftwareCache> cache;
  if (config.data.cache_installs) {
    cache = std::make_unique<data::SoftwareCache>(config.data.cache);
    sim_platform->set_install_model(cache.get());
  }

  wms::SimService sim_service(queue, *sim_platform);
  std::unique_ptr<data::TransferManager> transfers;
  std::unique_ptr<data::StagingService> staging;
  wms::ExecutionService* service = &sim_service;
  if (config.data.model_staging) {
    data::TransferConfig transfer_config = config.data.transfers;
    // Each repetition draws its own failure stream, like the platforms.
    transfer_config.seed ^= run_seed;
    transfers = std::make_unique<data::TransferManager>(queue, transfer_config);
    data::add_site_elements(*transfers, sites, config.data.transfer_slots);
    data::StagingConfig staging_cfg;
    staging_cfg.execution_site = concrete.site();
    staging = std::make_unique<data::StagingService>(queue, sim_service, *transfers,
                                                     replicas, staging_cfg);
    service = staging.get();
  }

  wms::EngineOptions options{.retries = config.engine_retries, .rescue_path = {}};
  options.max_jobs_in_flight = config.max_jobs_in_flight;
  options.policy = wms::make_policy(policy);
  options.observers = std::move(observers);
  wms::DagmanEngine engine(std::move(options));
  SimulatedRun run;
  run.report = engine.run(concrete, *service);
  if (osg_ptr != nullptr) run.preemptions = osg_ptr->preemptions();
  return run;
}

/// One simulated run of the blast2cap3 workflow on one platform instance.
SimulatedRun run_once(const ExperimentConfig& config, const std::string& platform,
                      std::size_t n, std::uint64_t run_seed) {
  if (platform != "sandhills" && platform != "osg" && platform != "cloud") {
    throw common::InvalidArgument("unknown platform: " + platform);
  }
  const WorkloadModel workload(config.workload);
  const B2c3WorkflowSpec spec{.n = n};
  const auto dax = build_blast2cap3_dax(spec, &workload);
  const auto concrete =
      plan_for_site(dax, platform == "cloud" ? "osg" : platform, spec);

  SimulatedRun run = run_simulated(config, concrete, platform, run_seed,
                                   workload::generator_site_catalog(),
                                   paper_replica_catalog(spec),
                                   config.scheduling_policy, {});
  if (!run.report.success) {
    throw common::WorkflowError("simulated run failed on " + platform + " n=" +
                                std::to_string(n));
  }
  return run;
}

}  // namespace

SweepPoint run_sim_point(const ExperimentConfig& config, const std::string& platform,
                         std::size_t n) {
  if (config.repetitions == 0) {
    throw common::InvalidArgument("repetitions must be >= 1");
  }
  SweepPoint point;
  point.platform = platform;
  point.n = n;
  for (std::size_t rep = 0; rep < config.repetitions; ++rep) {
    const std::uint64_t run_seed =
        (config.seed + rep * 0x9e3779b9ULL) ^
        (std::hash<std::string>{}(platform) * 31 + n);
    const SimulatedRun run = run_once(config, platform, n, run_seed);
    auto stats = wms::WorkflowStatistics::from_run(run.report);
    point.walls.push_back(stats.wall_seconds());
    if (rep == 0) {
      point.stats = std::move(stats);
      point.preemptions = run.preemptions;
    }
  }
  return point;
}

SweepResults run_platform_sweep(const ExperimentConfig& config) {
  SweepResults results;
  const WorkloadModel workload(config.workload);
  results.serial_seconds = workload.serial_pipeline_seconds();

  std::vector<std::string> platforms{"sandhills", "osg"};
  if (config.include_cloud) platforms.push_back("cloud");
  for (const auto& platform : platforms) {
    for (const std::size_t n : config.n_values) {
      results.points.push_back(run_sim_point(config, platform, n));
    }
  }
  return results;
}

const ShapeRun& ShapeAblationResults::row(const std::string& shape,
                                          const std::string& platform,
                                          const std::string& policy) const {
  for (const auto& r : rows) {
    if (r.shape == shape && r.platform == platform && r.policy == policy) return r;
  }
  throw common::InvalidArgument("no shape run for " + shape + "/" + platform +
                                "/" + policy);
}

double ShapeAblationResults::wall(const std::string& shape,
                                  const std::string& platform,
                                  const std::string& policy) const {
  return row(shape, platform, policy).wall();
}

namespace {

/// Counts engine events — the machine-independent work measure the scale
/// bench's smoke envelope asserts on.
struct CountingObserver final : wms::EngineObserver {
  std::size_t events = 0;
  void on_event(const wms::EngineEvent&) override { ++events; }
};

}  // namespace

ShapeRun run_shape_point(const ExperimentConfig& config,
                         const workload::ShapeSpec& spec,
                         const std::string& platform, const std::string& policy) {
  if (platform != "sandhills" && platform != "osg") {
    throw common::InvalidArgument("unknown shape-sweep platform: " + platform);
  }

  const auto abstract = workload::build_workflow(spec);
  const auto sites = workload::generator_site_catalog();
  const auto transformations = workload::generator_transformation_catalog(abstract);
  const auto replicas = workload::generator_replica_catalog(abstract, spec);
  wms::PlannerOptions plan_options;
  plan_options.target_site = platform;
  plan_options.expected_output_bytes = workload::expected_output_bytes(spec);
  const auto concrete =
      wms::plan(abstract, sites, transformations, replicas, plan_options);

  // Policy deliberately absent from the fold: every policy at one
  // (shape, platform) faces the same platform randomness.
  const std::uint64_t run_seed =
      (config.seed + spec.seed * 0x9e3779b9ULL) ^
      (std::hash<std::string>{}(platform) * 31 + spec.size);

  CountingObserver counting;
  const wms::RunReport report =
      run_simulated(config, concrete, platform, run_seed, sites, replicas, policy,
                    {&counting})
          .report;
  if (!report.success) {
    throw common::WorkflowError("shape run failed: " + workload::spec_name(spec) +
                                " on " + platform + " under " + policy);
  }

  ShapeRun run;
  run.shape = workload::shape_name(spec.shape);
  run.size = spec.size;
  run.seed = spec.seed;
  run.platform = platform;
  run.policy = policy;
  run.jobs = concrete.jobs().size();
  run.events = counting.events;
  run.stats = wms::WorkflowStatistics::from_run(report);
  for (const auto& job_run : report.runs) {
    if (job_run.succeeded) run.succeeded_jobs.push_back(job_run.id);
  }
  std::sort(run.succeeded_jobs.begin(), run.succeeded_jobs.end());
  return run;
}

ShapeAblationResults run_shape_ablation(const ExperimentConfig& base,
                                        const ShapeSweepConfig& sweep) {
  ShapeAblationResults results;
  for (const auto& spec : sweep.shapes) {
    for (const auto& platform : sweep.platforms) {
      for (const auto& policy : sweep.policies) {
        results.rows.push_back(run_shape_point(base, spec, platform, policy));
      }
    }
  }
  return results;
}

PaperClaims evaluate_claims(const SweepResults& results) {
  PaperClaims claims;

  double best_parallel = std::numeric_limits<double>::max();
  for (const auto& p : results.points) {
    best_parallel = std::min(best_parallel, p.mean_wall());
  }
  claims.reduction_vs_serial_percent =
      100.0 * (1.0 - best_parallel / results.serial_seconds);

  claims.sandhills_beats_osg_low_n = true;
  for (const std::size_t n : {std::size_t{10}, std::size_t{100}, std::size_t{300}}) {
    bool have_both = true;
    double sandhills = 0, osg = 0;
    try {
      sandhills = results.wall("sandhills", n);
      osg = results.wall("osg", n);
    } catch (const common::InvalidArgument&) {
      have_both = false;
    }
    if (have_both && osg < sandhills) claims.sandhills_beats_osg_low_n = false;
  }

  double best_wall = std::numeric_limits<double>::max();
  for (const auto& p : results.points) {
    if (p.platform == "sandhills" && p.mean_wall() < best_wall) {
      best_wall = p.mean_wall();
      claims.best_sandhills_n = p.n;
    }
  }

  try {
    claims.sandhills_n10_over_n300 =
        results.wall("sandhills", 10) / results.wall("sandhills", 300);
  } catch (const common::InvalidArgument&) {
    claims.sandhills_n10_over_n300 = 0;
  }

  // §VI.B: compare mean run_cap3 kickstart across platforms at equal n.
  claims.osg_kickstart_beats_sandhills = true;
  for (const auto& p : results.points) {
    if (p.platform != "osg") continue;
    try {
      const auto& sandhills = results.point("sandhills", p.n);
      const auto osg_it = p.stats.per_transformation().find("run_cap3");
      const auto sh_it = sandhills.stats.per_transformation().find("run_cap3");
      if (osg_it != p.stats.per_transformation().end() &&
          sh_it != sandhills.stats.per_transformation().end() &&
          !osg_it->second.kickstart.empty() && !sh_it->second.kickstart.empty() &&
          osg_it->second.kickstart.mean() >= sh_it->second.kickstart.mean()) {
        claims.osg_kickstart_beats_sandhills = false;
      }
    } catch (const common::InvalidArgument&) {
    }
  }
  return claims;
}

}  // namespace pga::core
