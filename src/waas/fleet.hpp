// Workflow-as-a-Service fleet controller (Hilman et al., PAPERS.md).
//
// Everything below PR 7 ran ONE workflow per engine per clock. This module
// inverts that: a FleetController owns one sim::EventQueue (the shared
// timeline), stands up BOTH paper platforms on it — the Sandhills campus
// cluster and the OSG pool, simultaneously, the choice the paper could
// only make per-run — and drives an arrival stream of WorkflowRequests
// (workload::generate_arrivals) through many concurrently-executing
// wms::EngineInstance cores:
//
//   * admission: requests wait in an arrival queue; when a slot opens the
//     controller admits the request whose tenant has the smallest
//     weighted deficit (jobs-in-flight / weight), i.e. weighted fair
//     share across tenants, FIFO within a tenant;
//   * placement: each admitted workflow is planned for whichever platform
//     currently carries fewer of the fleet's in-flight jobs (ties go to
//     the campus cluster). Planning runs once per topology and platform:
//     a workload::PlanTemplate records it on the first request and
//     replays it, re-priced, for every later one;
//   * execution: engines are stepped cooperatively — step_cooperative()
//     never blocks, the controller owns the clock and only advances it to
//     the earliest engine deadline / arrival / platform event, so 10k
//     interleaved workflows stay exactly as deterministic as one. A flat
//     WakeSummary per engine (waas/wake.hpp), refreshed after each step
//     and flagged by the engine's own service deliveries, lets a round
//     pass over engines that cannot act without touching them;
//   * fair-share submission: a fleet-wide jobs-in-flight cap is split
//     into per-tenant budgets proportional to weight each scheduling
//     round, with a second work-conserving pass granting leftover
//     headroom to whoever has ready jobs;
//   * telemetry: one FleetTelemetry observer sees every engine event;
//     finished workflows fold into p50/p99 makespan and per-tenant
//     throughput.
//
// Optional layers compose exactly as they do for single runs: one shared
// data::TransferManager gives every workflow's staging jobs genuine
// bandwidth contention, and a ChaosConfig wraps each engine's service in
// a wms::FaultyService with a per-request folded seed (common::mix64).
// Two runs with the same options and requests are byte-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/campus_cluster.hpp"
#include "sim/event_queue.hpp"
#include "sim/osg.hpp"
#include "waas/telemetry.hpp"
#include "waas/wake.hpp"
#include "wms/engine.hpp"
#include "wms/fault_injection.hpp"
#include "workload/arrival.hpp"
#include "workload/plan_template.hpp"

namespace pga::data {
class TransferManager;
class StagingService;
class StorageEventBus;
}  // namespace pga::data

namespace pga::waas {

/// Fleet knobs.
struct FleetOptions {
  /// Master seed: platform streams, chaos streams and backoff streams are
  /// folded from it (common::mix64) so the whole fleet replays from one
  /// number.
  std::uint64_t seed = 42;
  /// Tenants sharing the fleet. Requests must carry tenant < tenants.
  std::size_t tenants = 1;
  /// Fair-share weights, one per tenant; empty = equal weights. Must be
  /// positive and finite when given.
  std::vector<double> tenant_weights = {};
  /// Concurrently-admitted workflows (engines alive at once). 0 = no cap.
  std::size_t max_active_workflows = 0;
  /// Fleet-wide jobs-in-flight cap split across tenants by weight.
  /// 0 = no cap (every engine submits everything ready).
  std::size_t max_jobs_in_flight = 0;
  /// Scheduling policy per engine (wms::make_policy name, or
  /// "data-locality" — which requires model_staging and ranks ready jobs
  /// by bytes already resident on their site's storage element). Each
  /// engine gets its own instance — one policy object must not serve two
  /// concurrently-stepping engines.
  std::string policy = "fifo";
  /// Per-engine options template: retries, backoff, attempt timeout,
  /// blacklist. `policy`, `observers`, `status`, `rescue_path` and
  /// `lean_report` (always on) fields are controller-owned and ignored
  /// here.
  wms::EngineOptions engine = {};
  /// Platform sizing. Seeds are overridden from `seed`; slots are the
  /// elastic-provisioning knob (the paper's fixed 512/150 split is tiny
  /// against a 10k-workflow fleet — raise them to model elastic pools).
  sim::CampusClusterConfig campus = {};
  sim::OsgConfig osg = {};
  /// false = campus only (single-platform fleet, mostly for tests).
  bool dual_platform = true;
  /// >1: horizontally cluster compute jobs at admission, cluster_size per
  /// scheduled unit (planner cluster_factor semantics), so a request's
  /// job table shrinks about cluster_size-fold. Every shape takes the same
  /// admission path either way: the clustered plan is part of the
  /// workload::PlanTemplate key.
  std::size_t cluster_size = 1;
  /// Model stage-in/out through one shared TransferManager (bandwidth
  /// contention across the whole fleet) instead of flat-cost jobs.
  bool model_staging = false;
  std::size_t transfer_slots = 4;  ///< per storage element when staging
  /// Stage-in files already resident on the destination element are
  /// reused (no transfer) instead of re-copied. Needs model_staging.
  bool reuse_resident = false;
  /// When set, every engine's service is wrapped in a FaultyService in
  /// chaos mode with a per-request folded seed.
  std::optional<wms::ChaosConfig> chaos = {};
  /// Runaway guard across the whole fleet run (queue events).
  std::uint64_t max_events = 1'000'000'000;
  /// Events pumped per quiet round before re-scanning engines; bounds how
  /// stale budgets can get, not correctness.
  std::size_t pump_batch = 1024;
};

/// One finished workflow, in completion order.
struct WorkflowOutcome {
  std::size_t index = 0;   ///< WorkflowRequest::index
  std::size_t tenant = 0;
  std::string platform;    ///< "sandhills" or "osg"
  double arrival_seconds = 0;
  double admitted_seconds = 0;   ///< left the arrival queue
  double finished_seconds = 0;
  /// finished - arrival: queueing + execution, the WaaS-facing latency.
  double makespan_seconds = 0;
  bool success = false;
  std::size_t jobs = 0;
  std::size_t retries = 0;
  /// FNV-1a over the jobstate log — the determinism fingerprint double-run
  /// tests compare.
  std::uint64_t digest = 0;
};

/// Everything a fleet run produced.
struct FleetResult {
  std::vector<WorkflowOutcome> outcomes;  ///< completion order
  std::size_t workflows_completed = 0;
  std::size_t workflows_succeeded = 0;
  std::size_t peak_jobs_in_flight = 0;
  std::uint64_t events_processed = 0;  ///< queue events this run consumed
  /// Platform results that landed after their workflow was reaped (an
  /// attempt the engine had already written off by timeout) and were
  /// dropped.
  std::size_t dropped_completions = 0;
  std::size_t engine_events = 0;       ///< EngineEvents across all engines
  /// step_cooperative calls across all engines and rounds; engines whose
  /// step is provably a no-op are skipped and not counted.
  std::size_t engine_steps = 0;
  double finished_at_seconds = 0;      ///< clock when the last engine drained
  double p50_makespan_seconds = 0;
  double p99_makespan_seconds = 0;
  std::vector<TenantTotals> tenants;
  /// Order-sensitive fold of the per-workflow digests: one number that
  /// pins the entire fleet execution.
  std::uint64_t digest = 0;

  /// Human-readable summary table.
  [[nodiscard]] std::string render() const;
};

/// Drives a request stream to completion on one shared clock.
class FleetController {
 public:
  /// `queue` is the fleet's timeline; it must outlive the controller and
  /// start empty. Throws InvalidArgument on bad options (weights, tenant
  /// table).
  FleetController(sim::EventQueue& queue, FleetOptions options);
  ~FleetController();

  FleetController(const FleetController&) = delete;
  FleetController& operator=(const FleetController&) = delete;

  /// Runs every request to completion and returns the aggregate result.
  /// Requests must be sorted by arrival_seconds (generate_arrivals output
  /// is) and carry tenant < options.tenants. Call once per controller.
  ///
  /// `source`, when given, is polled every admission round for
  /// dynamically-synthesized requests (the trigger subsystem's feed);
  /// the run only ends once the static stream, the source and every
  /// engine have drained. Source requests join the same weighted
  /// fair-share admission queue as static ones.
  FleetResult run(const std::vector<workload::WorkflowRequest>& requests,
                  workload::RequestSource* source = nullptr);

  /// The storage-event stream of the fleet's shared TransferManager
  /// (nullptr unless model_staging). Subscribe observers — e.g. a
  /// trigger::TriggerEngine — before run().
  [[nodiscard]] data::StorageEventBus* storage_bus() const {
    return storage_bus_.get();
  }

 private:
  struct Active;  // one admitted workflow: plan + services + engine

  void admit(const workload::WorkflowRequest& request);
  /// Re-reads the engine in `slot` into wake_[slot].
  void refresh_wake(std::size_t slot);
  [[nodiscard]] double tenant_deficit(std::size_t tenant) const;
  /// Records a finished workflow's outcome, then destroys it.
  void reap(std::unique_ptr<Active> active, std::vector<WorkflowOutcome>& outcomes);

  sim::EventQueue& queue_;
  FleetOptions options_;
  std::vector<double> weights_;
  FleetTelemetry telemetry_;

  std::unique_ptr<sim::CampusClusterPlatform> campus_;
  std::unique_ptr<sim::OsgPlatform> osg_;
  std::unique_ptr<data::TransferManager> transfers_;
  std::unique_ptr<data::StorageEventBus> storage_bus_;

  /// One plan per (topology, platform, cluster size), recorded on the
  /// first request that needs it and replayed for every later one.
  std::map<workload::PlanKey, workload::PlanTemplate> templates_;
  std::vector<std::unique_ptr<Active>> active_;   ///< admission order
  std::vector<WakeSummary> wake_;                 ///< parallel to active_
  std::vector<std::size_t> tenant_in_flight_;     ///< live jobs per tenant
  std::vector<std::size_t> tenant_active_;        ///< live engines per tenant
  std::vector<std::size_t> platform_in_flight_;   ///< [0]=campus, [1]=osg
  bool ran_ = false;
};

}  // namespace pga::waas
