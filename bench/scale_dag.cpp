// Ten-million-job DAG throughput harness, on streamed materialization.
//
// Sweeps the generator's blast2cap3 shape through the full DagmanEngine at
// n in {1e4, 1e5, 1e6, 1e7} and reports scheduling throughput: jobs/sec
// released, engine events/sec, per-point peak RSS, and the build-phase
// breakdown of workload::build_concrete_streamed (cost model / parallel
// struct fill / sequential id intern / edge wiring + stage pricing). The
// 4n regular edges are stored as 4 EdgePatterns and the engine runs in
// lean-report mode (streamed jobstate digest, no per-job roster), which is
// what keeps the n=1e7 point under 4 GB with build time below engine time.
// An InstantService completes submitted attempts on the next wait() — in
// bounded batches so its completion buffer never scales with the widest
// wave — so the numbers measure pure engine + observer bookkeeping.
//
// Usage: scale_dag [--smoke] [--out PATH]
//   --smoke   n=1e4 only; deterministic guards (closed-form
//             job/edge counts, event-count envelope, peak-RSS bound, and
//             digest identity with a second run on an explicit-edge copy
//             of the workflow) — the CI perf-smoke leg, exits non-zero on
//             violation
//   --out     where to write the JSON report (default BENCH_scale.json)
#include <malloc.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "wms/engine.hpp"
#include "wms/exec_service.hpp"
#include "wms/planner.hpp"
#include "workload/generator.hpp"
#include "workload/streamed.hpp"
#include "peak_rss.hpp"

namespace {

using namespace pga;

/// Makes the next point's VmHWM reading its own: returns freed arenas to
/// the OS and resets the kernel's high-water mark. Both are best-effort —
/// when /proc/self/clear_refs is unavailable the sweep still ascends, so a
/// monotone HWM only over-reports the smaller points.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  if (clear.is_open()) clear << "5\n";
}

/// The scale spec: the generator's blast2cap3 shape with constant task
/// costs (the cost model is not what this harness measures).
workload::ShapeSpec scale_spec(std::size_t n) {
  workload::ShapeSpec spec;
  spec.shape = workload::Shape::kBlast2cap3;
  spec.size = n;
  spec.cost.cpu = workload::CostDistribution::kConstant;
  return spec;
}

/// `workflow` with every edge stored explicitly: its adjacency, patterns
/// included, copied edge by edge through add_dependency.
wms::ConcreteWorkflow with_explicit_edges(const wms::ConcreteWorkflow& workflow) {
  wms::ConcreteWorkflow copy(workflow.name(), workflow.site());
  for (const wms::ConcreteJob& job : workflow.jobs()) copy.add_job(job);
  for (std::uint32_t i = 0; i < workflow.jobs().size(); ++i) {
    workflow.for_each_child(i,
                            [&](std::uint32_t child) { copy.add_dependency(i, child); });
  }
  return copy;
}

/// Completes submitted attempts on the next wait(), one tick later, at
/// most kBatch per round. Pending entries are {handle, submit time} — 16
/// bytes — and completions echo the handle, so neither the service nor
/// its attempts carry job-id strings.
class InstantService final : public wms::ExecutionService {
 public:
  static constexpr std::size_t kBatch = 65'536;

  void submit(const wms::ConcreteJob& job) override {
    pending_.push_back({job.index, now_});
  }
  std::vector<wms::TaskAttempt> wait() override {
    now_ += 1.0;
    const std::size_t take = std::min(pending_.size(), kBatch);
    std::vector<wms::TaskAttempt> out;
    out.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      const Pending p = pending_.front();
      pending_.pop_front();
      wms::TaskAttempt attempt;
      attempt.job = p.index;
      attempt.success = true;
      attempt.node = "bench";
      attempt.submit_time = p.submitted;
      attempt.end_time = now_;
      out.push_back(std::move(attempt));
    }
    return out;
  }
  double now() override { return now_; }
  [[nodiscard]] std::string label() const override { return "instant"; }

 private:
  struct Pending {
    std::uint32_t index;
    double submitted;
  };
  double now_ = 0;
  std::deque<Pending> pending_;
};

struct CountingObserver final : wms::EngineObserver {
  std::size_t events = 0;
  void on_event(const wms::EngineEvent&) override { ++events; }
};

// -------------------------------------------------------------------- main

struct Point {
  std::size_t n = 0;
  std::size_t jobs = 0;
  std::size_t edges = 0;
  workload::StreamedBuildStats build;
  double build_seconds = 0;
  double engine_seconds = 0;
  std::size_t events = 0;
  std::uint64_t digest = 0;        ///< lean jobstate digest (determinism pin)
  std::size_t jobstate_lines = 0;
  double jobs_per_sec = 0;
  double events_per_sec = 0;
  std::size_t peak_rss_bytes = 0;
};

/// One sweep point on the streamed build; `explicit_edges` runs the engine
/// on with_explicit_edges of it instead (the copy is not build time).
Point run_point(std::size_t n, bool explicit_edges, common::ThreadPool& pool) {
  Point point;
  point.n = n;

  common::Stopwatch watch;
  workload::StreamedBuildOptions build_options;
  build_options.site = "sandhills";
  build_options.pool = &pool;
  wms::ConcreteWorkflow built =
      workload::build_concrete_streamed(scale_spec(n), build_options, &point.build);
  point.build_seconds = watch.seconds();
  const wms::ConcreteWorkflow workflow =
      explicit_edges ? with_explicit_edges(built) : std::move(built);
  point.jobs = workflow.jobs().size();
  point.edges = workflow.edge_count();
  // Closed forms: n workers + 6 pipeline jobs + 2 stage jobs; 4n regular
  // edges + 4 irregular + 3 stage edges.
  if (point.jobs != n + 8 || point.edges != 4 * n + 7) {
    throw common::Error("scale_dag: closed-form mismatch at n=" + std::to_string(n));
  }

  InstantService service;
  CountingObserver counter;
  wms::EngineOptions options;
  options.lean_report = true;  // O(1) report state: digest, not a roster
  options.observers.push_back(&counter);
  wms::DagmanEngine engine(std::move(options));
  watch.reset();
  const wms::RunReport report = engine.run(workflow, service);
  point.engine_seconds = watch.seconds();
  point.events = counter.events;
  point.digest = report.jobstate_digest;
  point.jobstate_lines = report.jobstate_lines;
  if (!report.success || report.jobs_succeeded != point.jobs) {
    throw common::Error("scale_dag: engine run failed at n=" + std::to_string(n));
  }
  point.jobs_per_sec = static_cast<double>(point.jobs) / point.engine_seconds;
  point.events_per_sec = static_cast<double>(point.events) / point.engine_seconds;
  point.peak_rss_bytes = bench::peak_rss_bytes();

  return point;
}

void write_json(const std::string& path, const std::vector<Point>& points,
                bool smoke) {
  std::ofstream out(path);
  out << "{\n";
  out << "  \"benchmark\": \"scale_dag\",\n";
  out << "  \"mode\": \"" << (smoke ? "smoke" : "sweep") << "\",\n";
  out << "  \"dag\": \"generator blast2cap3: stage_in -> 2 roots -> split -> "
         "n run_cap3 -> merge_joined/find_unjoined -> final_merge -> "
         "stage_out; 4n edges pattern-compressed\",\n";
  out << "  \"build\": \"workload::build_concrete_streamed (parallel fill, "
         "bulk intern, EdgePatterns)\",\n";
  out << "  \"service\": \"instant, batched (pure engine+observer "
         "bookkeeping); lean-report engine\",\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::vector<std::string> fields;
    const auto field = [&](const std::string& name, const std::string& value) {
      fields.push_back("      \"" + name + "\": " + value);
    };
    field("n", std::to_string(p.n));
    field("jobs", std::to_string(p.jobs));
    field("edges", std::to_string(p.edges));
    field("pattern_edges", std::to_string(p.build.pattern_edges));
    field("explicit_edges", std::to_string(p.build.explicit_edges));
    field("build_seconds", common::format_fixed(p.build_seconds, 4));
    field("build_model_seconds", common::format_fixed(p.build.model_seconds, 4));
    field("build_fill_seconds", common::format_fixed(p.build.fill_seconds, 4));
    field("build_intern_seconds", common::format_fixed(p.build.intern_seconds, 4));
    field("build_wire_seconds", common::format_fixed(p.build.wire_seconds, 4));
    field("engine_seconds", common::format_fixed(p.engine_seconds, 4));
    field("events", std::to_string(p.events));
    field("jobstate_digest", "\"" + std::to_string(p.digest) + "\"");
    field("jobs_per_sec", common::format_fixed(p.jobs_per_sec, 1));
    field("events_per_sec", common::format_fixed(p.events_per_sec, 1));
    field("peak_rss_mb",
          common::format_fixed(
              static_cast<double>(p.peak_rss_bytes) / (1024.0 * 1024.0), 1));
    out << "    {\n" << common::join(fields, ",\n") << "\n";
    out << "    }" << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_scale.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: scale_dag [--smoke] [--out PATH]\n";
      return 2;
    }
  }

  std::vector<std::size_t> sweep{10'000, 100'000, 1'000'000, 10'000'000};
  if (smoke) sweep = {10'000};

  common::ThreadPool pool(0);  // hardware concurrency
  std::vector<Point> points;
  try {
    for (const std::size_t n : sweep) {
      reset_peak_rss();
      const Point point = run_point(n, /*explicit_edges=*/false, pool);
      std::cout << "n=" << point.n << " jobs=" << point.jobs
                << " edges=" << point.edges << " build=" << point.build_seconds
                << "s (model=" << point.build.model_seconds
                << " fill=" << point.build.fill_seconds
                << " intern=" << point.build.intern_seconds
                << " wire=" << point.build.wire_seconds
                << ") engine=" << point.engine_seconds
                << "s events=" << point.events
                << " jobs/s=" << static_cast<std::size_t>(point.jobs_per_sec)
                << " rss=" << point.peak_rss_bytes / (1024 * 1024) << "MB\n";
      points.push_back(point);
    }

    if (smoke) {
      const Point& p = points.front();
      // Deterministic complexity guard: a clean run emits a fixed small
      // number of events per job plus the run bracket. Assert an envelope
      // on the *event count*, never on walltime, so an algorithmic
      // regression fails deterministically on any machine.
      const std::size_t floor = 4 * p.jobs;
      const std::size_t ceiling = 6 * p.jobs + 16;
      if (p.events < floor || p.events > ceiling) {
        std::cerr << "scale_dag --smoke: event count " << p.events
                  << " outside envelope [" << floor << ", " << ceiling << "]\n";
        return 1;
      }
      // Memory envelope: the n=1e4 point (pattern-compressed edges, lean
      // report) fits comfortably in tens of MB; 512 MB catches any
      // reintroduced O(n) blowup (materialized edges, per-job rosters)
      // while staying machine-independent.
      const std::size_t rss_cap = 512ull * 1024 * 1024;
      if (p.peak_rss_bytes == 0 || p.peak_rss_bytes > rss_cap) {
        std::cerr << "scale_dag --smoke: peak RSS "
                  << p.peak_rss_bytes / (1024 * 1024)
                  << "MB outside (0, 512]MB envelope\n";
        return 1;
      }
      // Pattern-compressed and materialized edge storage must drive the
      // engine through byte-identical schedules.
      const Point explicit_point = run_point(p.n, /*explicit_edges=*/true, pool);
      if (explicit_point.digest != p.digest ||
          explicit_point.jobstate_lines != p.jobstate_lines) {
        std::cerr << "scale_dag --smoke: patterns-vs-explicit digest mismatch ("
                  << p.digest << " vs " << explicit_point.digest << ")\n";
        return 1;
      }
      std::cout << "smoke OK: " << p.events << " events within [" << floor
                << ", " << ceiling << "], rss "
                << p.peak_rss_bytes / (1024 * 1024)
                << "MB, patterns==explicit digest " << p.digest << "\n";
    }
  } catch (const std::exception& err) {
    std::cerr << "scale_dag: " << err.what() << "\n";
    return 1;
  }

  write_json(out_path, points, smoke);
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
