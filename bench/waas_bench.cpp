// Multi-tenant WaaS fleet throughput harness (ISSUE PR 7).
//
// Sweeps the FleetController over bursts of W in {100, 1e3, 1e4}
// concurrent blast2cap3-shaped workflows (n = 128 run_cap3 workers each,
// so the 1e4 point carries ~1.3M jobs and peaks above a million jobs in
// flight), placed across BOTH platform models on one shared EventQueue.
// Slots scale with W — the paper's fixed Sandhills allocation and OSG
// glidein pool stand in for an elastically-provisioned fleet — so the
// numbers measure controller + engine + platform bookkeeping, not queue
// starvation. Four tenants with 4:2:1:1 weights exercise the fair-share
// admission path at every point.
//
// Usage: waas_bench [--smoke] [--out PATH]
//   --smoke   W=200 small workflows, dual run: asserts every workflow
//             completes with the closed-form job count, the two runs are
//             byte-identical (fleet digest, event count and engine steps),
//             and the event count sits inside a deterministic envelope;
//             then a W=100 burst of fleet-sized workflows (128 workers)
//             must make at most kAllocationsPerJobCeiling heap allocations
//             per simulated job. CI perf leg; exits non-zero on violation.
//             No walltime assertions.
//   --out     where to write the JSON report (default BENCH_waas.json)
//
// This binary replaces the global operator new with a counting one, so
// every report carries the fleet run's heap allocations per simulated job.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "common/strings.hpp"
#include "sim/event_queue.hpp"
#include "waas/fleet.hpp"
#include "workload/generator.hpp"
#include "peak_rss.hpp"

namespace {

/// operator new calls so far, in this process.
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }

namespace {

using namespace pga;

/// The smoke's allocation probe: a burst of fleet-sized workflows (the
/// sweep's W=100 point), so the per-workflow set-up is spread over enough
/// jobs that the count reads the per-attempt path.
constexpr std::size_t kProbeW = 100;
constexpr std::size_t kProbeWorkers = 128;
/// Ceiling on the probe's heap allocations per simulated job: the 1.33
/// measured once simulated attempts stopped carrying strings, plus 25%.
/// Attempts that carried their job's strings made 2.38; a per-attempt
/// allocation brought back onto the platform-to-engine path adds about
/// one per job and trips it.
constexpr double kAllocationsPerJobCeiling = 1.67;

constexpr std::size_t kTenants = 4;
const std::vector<double> kWeights{4.0, 2.0, 1.0, 1.0};

/// A burst of W blast2cap3 workflows arriving at t=0, striped over the
/// four tenants, each with its own cost stream.
std::vector<workload::WorkflowRequest> make_burst(std::size_t count,
                                                  std::size_t workers) {
  workload::ShapeSpec spec;
  spec.shape = workload::Shape::kBlast2cap3;
  spec.size = workers;
  std::vector<workload::WorkflowRequest> requests;
  requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workload::WorkflowRequest request;
    request.index = i;
    request.arrival_seconds = 0;
    request.tenant = i % kTenants;
    request.spec = spec;
    request.spec.seed = 1000 + i;
    requests.push_back(request);
  }
  return requests;
}

waas::FleetOptions make_options(std::size_t count) {
  waas::FleetOptions options;
  options.seed = 42;
  options.tenants = kTenants;
  options.tenant_weights = kWeights;
  options.dual_platform = true;
  options.engine.retries = 10;  // OSG preemptions need headroom
  // Elastic provisioning: the fleet buys capacity in proportion to the
  // burst, so peak concurrency is workload-limited, not slot-limited.
  options.campus.allocated_slots = std::max<std::size_t>(512, count * 48);
  options.osg.base_slots = std::max<std::size_t>(150, count * 24);
  // Coarse clock batches: more events per quiet round means fewer full
  // engine scans, and the coarser delivery keeps the burst's fan phases
  // overlapped (peak concurrency is the point of the sweep).
  options.pump_batch = 65'536;
  return options;
}

struct Point {
  std::size_t workflows = 0;
  std::size_t workers = 0;
  std::size_t jobs_total = 0;
  std::size_t events = 0;
  std::size_t engine_steps = 0;  ///< engine steps the fleet did not skip
  std::size_t peak_in_flight = 0;
  std::size_t succeeded = 0;
  double sim_finished_seconds = 0;
  double p50_makespan = 0;
  double p99_makespan = 0;
  double wall_seconds = 0;
  double workflows_per_sec = 0;
  double jobs_per_sec = 0;
  std::size_t peak_rss_bytes = 0;
  double allocations_per_job = 0;  ///< operator new calls in run() per job
  std::uint64_t digest = 0;
  std::vector<waas::TenantTotals> tenants;
};

Point run_point(std::size_t count, std::size_t workers) {
  const auto requests = make_burst(count, workers);
  sim::EventQueue queue;
  waas::FleetController controller(queue, make_options(count));

  const std::uint64_t allocations_before = g_allocations.load();
  const common::Stopwatch watch;
  const waas::FleetResult result = controller.run(requests);
  const double wall = watch.seconds();
  const std::uint64_t allocations = g_allocations.load() - allocations_before;

  if (result.workflows_completed != count) {
    throw common::Error("waas_bench: lost workflows at W=" + std::to_string(count));
  }
  Point point;
  point.workflows = count;
  point.workers = workers;
  for (const auto& outcome : result.outcomes) point.jobs_total += outcome.jobs;
  point.events = result.events_processed;
  point.engine_steps = result.engine_steps;
  point.peak_in_flight = result.peak_jobs_in_flight;
  point.succeeded = result.workflows_succeeded;
  point.sim_finished_seconds = result.finished_at_seconds;
  point.p50_makespan = result.p50_makespan_seconds;
  point.p99_makespan = result.p99_makespan_seconds;
  point.wall_seconds = wall;
  point.workflows_per_sec = static_cast<double>(count) / wall;
  point.jobs_per_sec = static_cast<double>(point.jobs_total) / wall;
  point.peak_rss_bytes = bench::peak_rss_bytes();
  point.allocations_per_job =
      static_cast<double>(allocations) / static_cast<double>(point.jobs_total);
  point.digest = result.digest;
  point.tenants = result.tenants;
  return point;
}

void write_json(const std::string& path, const std::vector<Point>& points,
                bool smoke) {
  std::ofstream out(path);
  out << "{\n";
  out << "  \"benchmark\": \"waas_bench\",\n";
  out << "  \"mode\": \"" << (smoke ? "smoke" : "sweep") << "\",\n";
  out << "  \"fleet\": \"burst of W blast2cap3 workflows, 4 tenants weighted "
         "4:2:1:1, dual platform (sandhills+osg) on one clock, elastic "
         "slots\",\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    out << "    {\n";
    out << "      \"workflows\": " << p.workflows << ",\n";
    out << "      \"workers_per_workflow\": " << p.workers << ",\n";
    out << "      \"jobs_total\": " << p.jobs_total << ",\n";
    out << "      \"workflows_succeeded\": " << p.succeeded << ",\n";
    out << "      \"events\": " << p.events << ",\n";
    out << "      \"engine_steps\": " << p.engine_steps << ",\n";
    out << "      \"peak_jobs_in_flight\": " << p.peak_in_flight << ",\n";
    out << "      \"sim_finished_seconds\": "
        << common::format_fixed(p.sim_finished_seconds, 1) << ",\n";
    out << "      \"p50_makespan_seconds\": "
        << common::format_fixed(p.p50_makespan, 1) << ",\n";
    out << "      \"p99_makespan_seconds\": "
        << common::format_fixed(p.p99_makespan, 1) << ",\n";
    out << "      \"wall_seconds\": " << common::format_fixed(p.wall_seconds, 3)
        << ",\n";
    out << "      \"workflows_per_sec\": "
        << common::format_fixed(p.workflows_per_sec, 1) << ",\n";
    out << "      \"jobs_per_sec\": " << common::format_fixed(p.jobs_per_sec, 1)
        << ",\n";
    out << "      \"peak_rss_mb\": "
        << common::format_fixed(
               static_cast<double>(p.peak_rss_bytes) / (1024.0 * 1024.0), 1)
        << ",\n";
    out << "      \"allocations_per_job\": "
        << common::format_fixed(p.allocations_per_job, 3) << ",\n";
    out << "      \"digest\": \"" << std::hex << p.digest << std::dec << "\",\n";
    out << "      \"tenants\": [\n";
    for (std::size_t t = 0; t < p.tenants.size(); ++t) {
      const waas::TenantTotals& totals = p.tenants[t];
      out << "        {\"tenant\": " << t << ", \"weight\": " << kWeights[t]
          << ", \"workflows\": " << totals.workflows_completed
          << ", \"jobs_ok\": " << totals.jobs_succeeded
          << ", \"jobs_failed\": " << totals.jobs_failed << "}"
          << (t + 1 < p.tenants.size() ? "," : "") << "\n";
    }
    out << "      ]\n";
    out << "    }" << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_waas.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: waas_bench [--smoke] [--out PATH]\n";
      return 2;
    }
  }

  std::vector<Point> points;
  try {
    if (smoke) {
      // Small, fast, fully deterministic: the guard is correctness and
      // byte identity, never walltime.
      constexpr std::size_t kSmokeW = 200;
      constexpr std::size_t kSmokeWorkers = 12;
      const Point first = run_point(kSmokeW, kSmokeWorkers);
      const Point second = run_point(kSmokeW, kSmokeWorkers);

      workload::ShapeSpec spec;
      spec.shape = workload::Shape::kBlast2cap3;
      spec.size = kSmokeWorkers;
      const std::size_t per_workflow =
          workload::closed_form_counts(spec).jobs + 2;  // + planner stage pair
      const std::size_t expected_jobs = kSmokeW * per_workflow;
      if (first.jobs_total != expected_jobs) {
        std::cerr << "waas_bench --smoke: job count " << first.jobs_total
                  << " != closed form " << expected_jobs << "\n";
        return 1;
      }
      if (first.succeeded != kSmokeW) {
        std::cerr << "waas_bench --smoke: " << first.succeeded << "/" << kSmokeW
                  << " workflows succeeded\n";
        return 1;
      }
      if (first.digest != second.digest || first.events != second.events ||
          first.engine_steps != second.engine_steps) {
        std::cerr << "waas_bench --smoke: double run diverged (digest "
                  << std::hex << first.digest << " vs " << second.digest
                  << std::dec << ", events " << first.events << " vs "
                  << second.events << ", engine steps " << first.engine_steps
                  << " vs " << second.engine_steps << ")\n";
        return 1;
      }
      // Deterministic complexity envelope on events: at least one platform
      // completion per job; generously bounded above so an event storm
      // (per-edge re-emission, runaway capacity churn) fails anywhere.
      const std::size_t floor = expected_jobs;
      const std::size_t ceiling = 40 * expected_jobs + 100'000;
      if (first.events < floor || first.events > ceiling) {
        std::cerr << "waas_bench --smoke: event count " << first.events
                  << " outside envelope [" << floor << ", " << ceiling << "]\n";
        return 1;
      }
      const Point probe = run_point(kProbeW, kProbeWorkers);
      if (probe.allocations_per_job > kAllocationsPerJobCeiling) {
        std::cerr << "waas_bench --smoke: "
                  << common::format_fixed(probe.allocations_per_job, 3)
                  << " heap allocations per job at W=" << kProbeW
                  << ", above the ceiling of "
                  << common::format_fixed(kAllocationsPerJobCeiling, 2) << "\n";
        return 1;
      }
      std::cout << "smoke OK: " << first.jobs_total << " jobs, "
                << first.events << " events within [" << floor << ", "
                << ceiling << "], double run byte-identical; "
                << common::format_fixed(probe.allocations_per_job, 3)
                << " allocations per job at W=" << kProbeW << " (ceiling "
                << common::format_fixed(kAllocationsPerJobCeiling, 2) << ")\n";
      points.push_back(first);
      points.push_back(probe);
    } else {
      for (const std::size_t count : {100, 1'000, 10'000}) {
        const Point point = run_point(count, 128);
        std::cout << "W=" << point.workflows << " jobs=" << point.jobs_total
                  << " events=" << point.events
                  << " engine_steps=" << point.engine_steps
                  << " peak_in_flight=" << point.peak_in_flight
                  << " allocs/job=" << common::format_fixed(point.allocations_per_job, 2)
                  << " sim_t=" << common::format_fixed(point.sim_finished_seconds, 0)
                  << "s wall=" << common::format_fixed(point.wall_seconds, 1)
                  << "s jobs/s=" << static_cast<std::size_t>(point.jobs_per_sec)
                  << " rss=" << point.peak_rss_bytes / (1024 * 1024) << "MB\n";
        points.push_back(point);
      }
    }
  } catch (const std::exception& err) {
    std::cerr << "waas_bench: " << err.what() << "\n";
    return 1;
  }

  write_json(out_path, points, smoke);
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
