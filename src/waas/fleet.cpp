#include "waas/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <sstream>

#include "common/digest.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "data/locality.hpp"
#include "data/staging_service.hpp"
#include "data/storage_events.hpp"
#include "data/transfer_manager.hpp"
#include "wms/exec_service.hpp"
#include "workload/generator.hpp"

namespace pga::waas {

namespace {

constexpr double kEps = 1e-9;
constexpr std::size_t kUnlimited = std::numeric_limits<std::size_t>::max();

// Salts for folding independent sub-streams out of the one fleet seed.
constexpr std::uint64_t kCampusSalt = 0x43414d5055530001ULL;
constexpr std::uint64_t kOsgSalt = 0x4f53470000000002ULL;
constexpr std::uint64_t kTransferSalt = 0x5452414e53460003ULL;
constexpr std::uint64_t kChaosSalt = 0x4348414f53000004ULL;
constexpr std::uint64_t kBackoffSalt = 0x4241434b4f460005ULL;

}  // namespace

/// One admitted workflow. Members are declaration-ordered so destruction
/// tears the engine down before the services it references, and the
/// services before the catalogs/plan they reference.
struct FleetController::Active {
  /// Set by the service stack on every delivery; see WakeSummary.
  std::uint8_t delivered = 0;
  std::size_t index = 0;
  std::size_t tenant = 0;
  std::size_t platform = 0;  ///< 0 = campus, 1 = osg
  std::string platform_name;
  double arrival = 0;
  double admitted = 0;
  wms::ReplicaCatalog replicas;
  std::unique_ptr<wms::ConcreteWorkflow> workflow;
  std::unique_ptr<wms::SimService> sim_service;
  std::unique_ptr<data::StagingService> staging;
  std::unique_ptr<wms::FaultyService> faulty;
  std::unique_ptr<wms::EngineInstance> engine;
};

FleetController::FleetController(sim::EventQueue& queue, FleetOptions options)
    : queue_(queue),
      options_(std::move(options)),
      telemetry_(options_.tenants) {
  weights_ = options_.tenant_weights;
  if (weights_.empty()) weights_.assign(options_.tenants, 1.0);
  if (weights_.size() != options_.tenants) {
    throw common::InvalidArgument(
        "fleet: tenant_weights must be empty or one per tenant");
  }
  for (const double weight : weights_) {
    if (!std::isfinite(weight) || weight <= 0) {
      throw common::InvalidArgument(
          "fleet: tenant weights must be positive and finite");
    }
  }
  if (options_.pump_batch == 0) {
    throw common::InvalidArgument("fleet: pump_batch must be >= 1");
  }
  if (options_.cluster_size == 0) {
    throw common::InvalidArgument("fleet: cluster_size must be >= 1");
  }

  auto campus_cfg = options_.campus;
  campus_cfg.seed = common::mix64(options_.seed ^ kCampusSalt);
  campus_ = std::make_unique<sim::CampusClusterPlatform>(queue_, campus_cfg);
  if (options_.dual_platform) {
    auto osg_cfg = options_.osg;
    osg_cfg.seed = common::mix64(options_.seed ^ kOsgSalt);
    osg_ = std::make_unique<sim::OsgPlatform>(queue_, osg_cfg);
  }
  if (options_.model_staging) {
    data::TransferConfig transfer_cfg;
    transfer_cfg.seed = common::mix64(options_.seed ^ kTransferSalt);
    transfers_ = std::make_unique<data::TransferManager>(queue_, transfer_cfg);
    data::add_site_elements(*transfers_, workload::generator_site_catalog(),
                            options_.transfer_slots);
    storage_bus_ = std::make_unique<data::StorageEventBus>(&queue_);
    transfers_->set_event_bus(storage_bus_.get());
  }
  if (options_.policy == data::kLocalityPolicyName && !options_.model_staging) {
    throw common::InvalidArgument(
        "fleet: the data-locality policy requires model_staging");
  }
  if (options_.reuse_resident && !options_.model_staging) {
    throw common::InvalidArgument("fleet: reuse_resident requires model_staging");
  }

  tenant_in_flight_.assign(options_.tenants, 0);
  tenant_active_.assign(options_.tenants, 0);
  platform_in_flight_.assign(2, 0);
}

FleetController::~FleetController() = default;

double FleetController::tenant_deficit(std::size_t tenant) const {
  // Weighted share pressure: live jobs plus one unit per live engine, so
  // simultaneous bursts admit round-robin even before any job submits.
  return static_cast<double>(tenant_in_flight_[tenant] + tenant_active_[tenant]) /
         weights_[tenant];
}

void FleetController::admit(const workload::WorkflowRequest& request) {
  // Placement: whichever platform carries fewer of the fleet's in-flight
  // jobs takes the workflow; ties go to the campus cluster (its queue is
  // the better-behaved of the two).
  std::size_t platform_index = 0;
  if (options_.dual_platform && platform_in_flight_[1] < platform_in_flight_[0]) {
    platform_index = 1;
  }

  auto active = std::make_unique<Active>();
  active->index = request.index;
  active->tenant = request.tenant;
  active->platform = platform_index;
  active->platform_name = platform_index == 0 ? "sandhills" : "osg";
  active->arrival = request.arrival_seconds;
  active->admitted = queue_.now();

  // Plan for the chosen site: each topology is planned once per platform,
  // by its first request, and every later request replays that plan with
  // its own costs.
  workload::PlanKey key = workload::PlanKey::of(
      request.spec, active->platform_name, options_.cluster_size);
  std::optional<workload::PlanTemplate::Instance> planned;
  if (const auto found = templates_.find(key); found != templates_.end()) {
    planned.emplace(found->second.instantiate(request.spec));
  } else {
    templates_.try_emplace(std::move(key), request.spec, active->platform_name,
                           options_.cluster_size, &planned);
  }
  active->replicas = std::move(planned->replicas);
  active->workflow =
      std::make_unique<wms::ConcreteWorkflow>(std::move(planned->workflow));

  // Service stack, innermost out: SimService on the placed platform, then
  // optional shared-bandwidth staging, then optional per-request chaos.
  sim::ExecutionPlatform& platform =
      platform_index == 0 ? static_cast<sim::ExecutionPlatform&>(*campus_)
                          : static_cast<sim::ExecutionPlatform&>(*osg_);
  active->sim_service = std::make_unique<wms::SimService>(queue_, platform);
  wms::ExecutionService* service = active->sim_service.get();
  if (options_.model_staging) {
    data::StagingConfig staging_cfg;
    staging_cfg.execution_site = active->platform_name;
    staging_cfg.reuse_resident = options_.reuse_resident;
    active->staging = std::make_unique<data::StagingService>(
        queue_, *service, *transfers_, active->replicas, staging_cfg);
    service = active->staging.get();
  }
  if (options_.chaos.has_value()) {
    wms::ChaosConfig chaos = *options_.chaos;
    chaos.seed = common::mix64(options_.seed ^ (kChaosSalt + request.index));
    active->faulty = std::make_unique<wms::FaultyService>(
        *service, wms::FaultPlan().chaos(chaos));
    service = active->faulty.get();
  }
  service->set_delivery_flag(&active->delivered);

  wms::EngineOptions engine_options = options_.engine;
  engine_options.status = nullptr;
  engine_options.rescue_path.reset();
  // Throttling is fleet-level (per-round budgets), not per-engine.
  engine_options.max_jobs_in_flight = 0;
  engine_options.policy = options_.policy == data::kLocalityPolicyName
                              ? data::make_locality_policy(*transfers_)
                              : wms::make_policy(options_.policy);
  engine_options.observers = {&telemetry_};
  // Reaping reads only counters and the streamed jobstate digest, so no
  // engine keeps a per-job roster or a stored log.
  engine_options.lean_report = true;
  engine_options.backoff_seed =
      common::mix64(options_.seed ^ (kBackoffSalt + request.index));

  // record_admission also points the telemetry context at this tenant, so
  // the kRunStarted the constructor emits lands on the right counters.
  telemetry_.record_admission(active->tenant);
  active->engine = std::make_unique<wms::EngineInstance>(
      engine_options, *active->workflow, *service);
  ++tenant_active_[active->tenant];
  active_.push_back(std::move(active));
  wake_.emplace_back();
  refresh_wake(active_.size() - 1);
}

void FleetController::refresh_wake(std::size_t slot) {
  Active& active = *active_[slot];
  wake_[slot].refresh(*active.engine, active.delivered);
}

void FleetController::reap(std::unique_ptr<Active> active,
                           std::vector<WorkflowOutcome>& outcomes) {
  telemetry_.set_tenant(active->tenant);
  const wms::RunReport report = active->engine->take_report();

  WorkflowOutcome outcome;
  outcome.index = active->index;
  outcome.tenant = active->tenant;
  outcome.platform = active->platform_name;
  outcome.arrival_seconds = active->arrival;
  outcome.admitted_seconds = active->admitted;
  outcome.finished_seconds = report.end_time;
  outcome.makespan_seconds = report.end_time - active->arrival;
  outcome.success = report.success;
  outcome.jobs = report.jobs_total;
  outcome.retries = report.total_retries;
  outcome.digest = report.jobstate_digest;
  telemetry_.record_workflow(active->tenant, outcome.makespan_seconds,
                             outcome.success);
  outcomes.push_back(std::move(outcome));

  --tenant_active_[active->tenant];
}  // `active` tears down here: engine, then services, then plan

FleetResult FleetController::run(
    const std::vector<workload::WorkflowRequest>& requests,
    workload::RequestSource* source) {
  if (ran_) {
    throw common::InvalidArgument("FleetController::run called twice");
  }
  ran_ = true;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].tenant >= options_.tenants) {
      throw common::InvalidArgument("fleet: request tenant out of range");
    }
    if (i > 0 && requests[i].arrival_seconds < requests[i - 1].arrival_seconds) {
      throw common::InvalidArgument(
          "fleet: requests must be sorted by arrival time");
    }
  }

  const std::uint64_t start_events = queue_.processed();
  const bool capped = options_.max_jobs_in_flight > 0;
  std::size_t next_arrival = 0;
  // Arrived but not yet admitted: one FIFO per tenant, each entry tagged
  // with its global arrival sequence. Holds request values (not stream
  // indices) so statically-generated and source-synthesized requests
  // queue identically.
  struct Due {
    std::uint64_t sequence = 0;
    workload::WorkflowRequest request;
  };
  std::vector<std::deque<Due>> due(options_.tenants);
  std::size_t due_count = 0;
  std::uint64_t arrivals = 0;
  std::vector<std::size_t> heads;  // tenants with due requests, scratch
  std::vector<WorkflowOutcome> outcomes;
  outcomes.reserve(requests.size());
  std::vector<std::size_t> tenant_budget(options_.tenants, 0);
  std::size_t engine_steps = 0;

  const auto enqueue = [&](workload::WorkflowRequest request) {
    if (request.tenant >= options_.tenants) {
      throw common::InvalidArgument("fleet: request tenant out of range");
    }
    const std::size_t tenant = request.tenant;
    due[tenant].push_back({arrivals++, std::move(request)});
    ++due_count;
  };

  const auto admit_due = [&] {
    while (next_arrival < requests.size() &&
           requests[next_arrival].arrival_seconds <= queue_.now() + kEps) {
      enqueue(requests[next_arrival++]);
    }
    if (source != nullptr) {
      for (auto& request : source->poll(queue_.now() + kEps)) {
        enqueue(std::move(request));
      }
    }
    while (due_count > 0 && (options_.max_active_workflows == 0 ||
                             active_.size() < options_.max_active_workflows)) {
      // Weighted fair-share admission: the due request whose tenant has
      // the smallest deficit wins, scanned in arrival order so FIFO breaks
      // ties. A tenant's requests all share its deficit, so only its
      // oldest can win: scanning the tenants' heads in arrival order picks
      // exactly what a scan over every due request would.
      heads.clear();
      for (std::size_t t = 0; t < options_.tenants; ++t) {
        if (!due[t].empty()) heads.push_back(t);
      }
      std::sort(heads.begin(), heads.end(), [&](std::size_t a, std::size_t b) {
        return due[a].front().sequence < due[b].front().sequence;
      });
      std::size_t best = heads.front();
      for (const std::size_t tenant : heads) {
        if (tenant_deficit(tenant) + kEps < tenant_deficit(best)) best = tenant;
      }
      const workload::WorkflowRequest pick = std::move(due[best].front().request);
      due[best].pop_front();
      --due_count;
      admit(pick);
    }
  };

  // Set when a step finished an engine; reaping waits for the round's end.
  bool finished = false;
  // Steps the engine in `slot` under `grant`, settles the in-flight
  // ledgers and refreshes its wake summary.
  const auto step_engine = [&](std::size_t slot, std::size_t grant,
                               std::size_t& headroom) {
    Active& active = *active_[slot];
    telemetry_.set_tenant(active.tenant);
    const std::size_t before = active.engine->jobs_in_flight();
    const bool progress = active.engine->step_cooperative(grant);
    ++engine_steps;
    refresh_wake(slot);
    finished |= wake_[slot].done;
    const std::size_t after = active.engine->jobs_in_flight();
    if (after >= before) {
      const std::size_t delta = after - before;
      tenant_in_flight_[active.tenant] += delta;
      platform_in_flight_[active.platform] += delta;
      if (capped) {
        tenant_budget[active.tenant] -=
            std::min(delta, tenant_budget[active.tenant]);
        headroom -= std::min(delta, headroom);
      }
    } else {
      const std::size_t delta = before - after;
      tenant_in_flight_[active.tenant] -= delta;
      platform_in_flight_[active.platform] -= delta;
      if (capped) headroom += delta;  // capacity freed this round
    }
    return progress;
  };

  while (true) {
    admit_due();
    if (active_.empty() && due_count == 0 && next_arrival == requests.size()) {
      // Static stream drained and nothing running — but the source may
      // still owe future requests (e.g. a trigger firing with a delay).
      // Jump the clock to its earliest pending arrival and re-poll.
      const double pending =
          source != nullptr ? source->next_arrival()
                            : std::numeric_limits<double>::infinity();
      if (std::isinf(pending)) break;
      queue_.advance_to(std::max(queue_.now(), pending));
      continue;
    }

    // Per-round fair-share budgets: split the fleet cap across tenants
    // with live engines in proportion to weight; a tenant above its
    // target gets 0 and drains toward it (weighted deficit discipline).
    std::size_t headroom = kUnlimited;
    if (capped) {
      double total_weight = 0;
      std::size_t total_in_flight = 0;
      for (std::size_t t = 0; t < options_.tenants; ++t) {
        if (tenant_active_[t] > 0) total_weight += weights_[t];
        total_in_flight += tenant_in_flight_[t];
      }
      headroom = options_.max_jobs_in_flight > total_in_flight
                     ? options_.max_jobs_in_flight - total_in_flight
                     : 0;
      for (std::size_t t = 0; t < options_.tenants; ++t) {
        if (tenant_active_[t] == 0 || total_weight <= 0) {
          tenant_budget[t] = 0;
          continue;
        }
        const auto target = static_cast<std::size_t>(std::max(
            1.0, std::floor(static_cast<double>(options_.max_jobs_in_flight) *
                            weights_[t] / total_weight)));
        tenant_budget[t] =
            target > tenant_in_flight_[t] ? target - tenant_in_flight_[t] : 0;
      }
    }

    bool progress = false;
    // Skip an engine whose step under its grant is provably a no-op: it
    // would add no progress and no in-flight delta, so budgets, headroom
    // and every later step are unchanged. The queue half of the test is
    // re-read after every step, because an earlier engine's step can
    // schedule an event due now (a zero-delay completion), which a quiet
    // poll() runs. The engine half starts from its wake summary and ends
    // with the exact idle() test.
    double now = queue_.now();
    const auto due_now = [&] {
      const auto next = queue_.next_time();
      return next.has_value() && *next <= now;
    };
    bool event_due = due_now();
    for (std::size_t slot = 0; slot < active_.size(); ++slot) {
      Active& active = *active_[slot];
      const std::size_t grant =
          capped ? std::min(tenant_budget[active.tenant], headroom) : kUnlimited;
      if (!event_due) {
        if (!wake_[slot].may_act(now, grant, active.delivered)) continue;
        if (active.engine->idle(grant)) {
          active.delivered = 0;  // idle(grant) implies idle(0)
          continue;
        }
      }
      progress |= step_engine(slot, grant, headroom);
      now = queue_.now();
      event_due = due_now();
    }
    // Work-conserving second pass: leftover headroom goes to whoever has
    // ready jobs, weights notwithstanding — idle capacity helps no tenant.
    // A finished engine has no ready jobs.
    if (capped && headroom > 0) {
      for (std::size_t slot = 0; slot < active_.size(); ++slot) {
        if (headroom == 0) break;
        if (!wake_[slot].has_ready) continue;
        progress |= step_engine(slot, headroom, headroom);
      }
    }
    // Reap in one stable pass: the survivors keep their order, which is
    // the next round's step order and so fixes FIFO tie-breaks on the
    // shared clock (a swap-remove would reorder them). Only a step can
    // finish an engine, so a round without one has nothing to reap.
    if (finished) {
      std::size_t kept = 0;
      for (std::size_t slot = 0; slot < active_.size(); ++slot) {
        if (wake_[slot].done) {
          reap(std::move(active_[slot]), outcomes);
        } else {
          if (kept != slot) {
            active_[kept] = std::move(active_[slot]);
            wake_[kept] = wake_[slot];
          }
          ++kept;
        }
      }
      active_.resize(kept);
      wake_.resize(kept);
      finished = false;
    }
    if (progress) continue;

    // Quiet round: nobody could submit or consume. Advance the shared
    // timeline — but never past the earliest engine deadline (backoff
    // release / attempt timeout) or the next arrival. Deadlines change
    // only in steps, so each engine's is the one its summary recorded.
    double fence = std::numeric_limits<double>::infinity();
    for (const WakeSummary& wake : wake_) fence = std::min(fence, wake.wake_at);
    if (next_arrival < requests.size()) {
      fence = std::min(fence, requests[next_arrival].arrival_seconds);
    }
    if (source != nullptr) {
      fence = std::min(fence, source->next_arrival());
    }

    std::size_t pumped = 0;
    while (pumped < options_.pump_batch) {
      const auto next = queue_.next_time();
      if (!next.has_value() || *next > fence) break;
      queue_.step();
      ++pumped;
      if (queue_.processed() - start_events > options_.max_events) {
        throw common::SimulationError(
            "fleet event budget exhausted after " +
            std::to_string(queue_.processed() - start_events) + " events at t=" +
            std::to_string(queue_.now()));
      }
    }
    if (pumped > 0) continue;

    if (std::isinf(fence)) {
      // No events, no deadlines, no arrivals — yet engines are alive.
      throw common::SimulationError(
          "fleet deadlock: " + std::to_string(active_.size()) +
          " engines waiting with no pending events at t=" +
          std::to_string(queue_.now()));
    }
    if (fence <= queue_.now() + kEps) {
      throw common::SimulationError("fleet stalled at t=" +
                                    std::to_string(queue_.now()));
    }
    queue_.advance_to(fence);
  }

  FleetResult result;
  result.outcomes = std::move(outcomes);
  result.workflows_completed = telemetry_.workflows_completed();
  result.workflows_succeeded = telemetry_.workflows_succeeded();
  result.peak_jobs_in_flight = telemetry_.peak_jobs_in_flight();
  result.events_processed = queue_.processed() - start_events;
  result.dropped_completions =
      campus_->dropped_completions() + (osg_ ? osg_->dropped_completions() : 0);
  result.engine_events = telemetry_.engine_events();
  result.engine_steps = engine_steps;
  result.finished_at_seconds = queue_.now();
  result.p50_makespan_seconds = telemetry_.makespan_percentile(50);
  result.p99_makespan_seconds = telemetry_.makespan_percentile(99);
  result.tenants = telemetry_.tenants();
  std::uint64_t digest = common::kFnv1aOffset;
  for (const auto& outcome : result.outcomes) {
    digest = common::mix64(digest ^ outcome.digest);
  }
  result.digest = digest;
  return result;
}

std::string FleetResult::render() const {
  std::ostringstream os;
  os << "fleet: " << workflows_completed << " workflows ("
     << workflows_succeeded << " ok), peak " << peak_jobs_in_flight
     << " jobs in flight, " << events_processed << " events, finished t="
     << common::format_fixed(finished_at_seconds, 1) << " s\n";
  os << "makespan p50=" << common::format_fixed(p50_makespan_seconds, 1)
     << " s  p99=" << common::format_fixed(p99_makespan_seconds, 1) << " s\n";
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const TenantTotals& totals = tenants[t];
    os << "tenant " << t << ": " << totals.workflows_completed << "/"
       << totals.workflows_admitted << " workflows, " << totals.jobs_succeeded
       << " jobs ok, " << totals.jobs_failed << " failed\n";
  }
  return os.str();
}

}  // namespace pga::waas
