// The benchmark's workloads. Each one generates its inputs from the run
// seed, measures for RunOptions::seconds, checks every pass's outputs and
// fills the report: end-to-end metrics from untraced passes, or per-layer
// metrics from traced ones when RunOptions::trace is set.
#pragma once

#include <chrono>
#include <cstddef>

#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

/// Calls pass() until `seconds` have elapsed and it ran at least
/// `min_passes` times. Returns the number of passes.
template <typename F>
std::size_t repeat_for(double seconds, std::size_t min_passes, F&& pass) {
  const auto start = std::chrono::steady_clock::now();
  std::size_t passes = 0;
  while (passes < min_passes ||
         std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                 .count() < seconds) {
    pass();
    ++passes;
  }
  return passes;
}

/// Real protein-guided assembly compute: whole-set CAP3, BLASTX on a
/// thread pool, and the Fig. 2 DAG executed by the DAGMan engine.
void run_assembly(const RunOptions& options, Tracer& tracer, Report& report);

/// Simulated WaaS fleet. `stream` = false: a t=0 burst of blast2cap3
/// requests (admission/planning bound). `stream` = true: an open-loop
/// Poisson stream over all six shapes with staging, chaos, clustering and
/// an in-flight cap (scheduling-round bound).
void run_fleet(const RunOptions& options, bool stream, Tracer& tracer,
               Report& report);

}  // namespace perfbench
