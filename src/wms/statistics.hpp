// pegasus-statistics equivalents.
//
// Turns a RunReport into the quantities the paper's evaluation uses:
//  * "Workflow Wall Time"           (Fig. 4)
//  * per-task "Kickstart Time"      (Fig. 5) — execution on the remote node
//  * per-task "Waiting Time"        (Fig. 5) — submit-host + remote queueing
//  * per-task "Download/Install Time" (Fig. 5) — OSG software setup
// aggregated overall and per transformation.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/summary.hpp"
#include "wms/engine.hpp"

namespace pga::wms {

/// Aggregates for one transformation (task type).
struct TransformationStats {
  std::size_t jobs = 0;
  std::size_t attempts = 0;
  common::Summary kickstart;  ///< successful-attempt execution seconds
  common::Summary waiting;    ///< per-job total waiting seconds (all attempts)
  common::Summary install;    ///< per-job total download/install seconds
};

/// Workflow-level statistics.
class WorkflowStatistics {
 public:
  /// Builds statistics from an engine run.
  static WorkflowStatistics from_run(const RunReport& report);

  /// Total running time of the workflow from start to end.
  [[nodiscard]] double wall_seconds() const { return wall_seconds_; }
  /// Sum of successful-attempt execution time across jobs ("goodput").
  [[nodiscard]] double cumulative_kickstart() const { return cumulative_kickstart_; }
  /// Execution time burnt by failed attempts ("badput").
  [[nodiscard]] double cumulative_badput() const { return cumulative_badput_; }
  [[nodiscard]] double cumulative_waiting() const { return cumulative_waiting_; }
  [[nodiscard]] double cumulative_install() const { return cumulative_install_; }
  [[nodiscard]] std::size_t jobs() const { return jobs_; }
  [[nodiscard]] std::size_t attempts() const { return attempts_; }
  [[nodiscard]] std::size_t retries() const { return retries_; }
  [[nodiscard]] std::size_t failed_jobs() const { return failed_jobs_; }
  /// Attempts the engine declared dead via its per-attempt timeout.
  [[nodiscard]] std::size_t timed_out_attempts() const { return timed_out_attempts_; }
  /// Retry cool-off the engine inserted across all jobs.
  [[nodiscard]] double total_backoff_seconds() const { return total_backoff_seconds_; }
  /// Nodes the engine blacklisted during the run.
  [[nodiscard]] std::size_t blacklisted_nodes() const { return blacklisted_nodes_; }
  /// Software setups served warm from a per-node cache (data layer).
  [[nodiscard]] std::size_t warm_installs() const { return warm_installs_; }
  /// Software setups that paid the cold download/install price.
  [[nodiscard]] std::size_t cold_installs() const { return cold_installs_; }
  /// Warm fraction of all priced setups (0 when none ran).
  [[nodiscard]] double cache_hit_rate() const {
    const std::size_t total = warm_installs_ + cold_installs_;
    return total == 0 ? 0.0
                      : static_cast<double>(warm_installs_) /
                            static_cast<double>(total);
  }
  /// Payload moved by modeled staging attempts (0 without the data layer).
  [[nodiscard]] std::uint64_t bytes_staged() const { return bytes_staged_; }
  /// Transfer tries consumed by staging attempts, retries included.
  [[nodiscard]] std::size_t transfer_attempts() const { return transfer_attempts_; }
  [[nodiscard]] bool success() const { return success_; }

  [[nodiscard]] const std::map<std::string, TransformationStats>&
  per_transformation() const {
    return per_transformation_;
  }

  /// pegasus-statistics-style text summary.
  [[nodiscard]] std::string render(const std::string& title = "") const;

 private:
  bool success_ = false;
  double wall_seconds_ = 0;
  double cumulative_kickstart_ = 0;
  double cumulative_badput_ = 0;
  double cumulative_waiting_ = 0;
  double cumulative_install_ = 0;
  std::size_t jobs_ = 0;
  std::size_t attempts_ = 0;
  std::size_t retries_ = 0;
  std::size_t failed_jobs_ = 0;
  std::size_t timed_out_attempts_ = 0;
  double total_backoff_seconds_ = 0;
  std::size_t blacklisted_nodes_ = 0;
  std::size_t warm_installs_ = 0;
  std::size_t cold_installs_ = 0;
  std::uint64_t bytes_staged_ = 0;
  std::size_t transfer_attempts_ = 0;
  std::map<std::string, TransformationStats> per_transformation_;
};

}  // namespace pga::wms
