// pegasus-analyzer / pegasus-plots equivalents (§III: "The whole workflow
// and the failed jobs can be debugged using the pegasus-analyzer tool ...
// the resulting data can be summarized using pegasus-statistics and
// pegasus-plots").
//
// Works over the engine's RunReport: failure triage, an ASCII Gantt
// timeline of job execution, slot-utilization series, and CSV trace export
// for external plotting.
#pragma once

#include <string>
#include <vector>

#include "wms/engine.hpp"

namespace pga::wms {

/// One failed job's triage entry.
struct FailureDiagnosis {
  std::string job_id;
  std::string transformation;
  std::size_t attempts = 0;
  std::string last_error;
  double wasted_seconds = 0;  ///< badput across failed attempts
  /// Jobs that could not run because this one died (direct children).
  std::vector<std::string> blocked_children;
};

/// Analysis of a (possibly failed) run.
struct Analysis {
  bool success = false;
  std::size_t jobs_total = 0;
  std::size_t jobs_succeeded = 0;
  std::size_t jobs_failed = 0;
  std::size_t jobs_never_ran = 0;  ///< blocked behind failures
  std::vector<FailureDiagnosis> failures;
};

/// Triage a run against its workflow (for blocked-children resolution).
Analysis analyze_run(const RunReport& report, const ConcreteWorkflow& workflow);

/// pegasus-analyzer-style text report.
std::string render_analysis(const Analysis& analysis);

/// Options for the ASCII Gantt timeline.
struct TimelineOptions {
  std::size_t width = 80;        ///< columns for the time axis
  std::size_t max_rows = 60;     ///< truncate very wide workflows
  bool include_waiting = true;   ///< draw the waiting segment ('.') before
                                 ///< execution ('#'); failed attempts are 'x'
};

/// Renders one row per job: id, then a time-scaled bar. Jobs are ordered
/// by first submit time. Example:
///   split        |..##                |
///   run_cap3_0   |    .....###########|
std::string render_timeline(const RunReport& report, const TimelineOptions& options = {});

/// One step of the slot-utilization curve.
struct UtilizationSample {
  double time = 0;          ///< sample start
  std::size_t running = 0;  ///< attempts executing at this time
};

/// Piecewise-constant count of concurrently executing attempts, sampled at
/// every attempt start/end (successful and failed alike).
std::vector<UtilizationSample> utilization(const RunReport& report);

/// Peak concurrently-running attempts.
std::size_t peak_utilization(const RunReport& report);

/// Exports one CSV row per recorded attempt, jobs in report.runs order (id
/// order for an engine report):
///   job,transformation,attempt,success,node,submit,start,end,wait,install,exec
std::string attempts_csv(const RunReport& report);

}  // namespace pga::wms
