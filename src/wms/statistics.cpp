#include "wms/statistics.hpp"

#include <sstream>

#include "common/strings.hpp"
#include "common/table.hpp"

namespace pga::wms {

WorkflowStatistics WorkflowStatistics::from_run(const RunReport& report) {
  WorkflowStatistics stats;
  stats.success_ = report.success;
  stats.wall_seconds_ = report.wall_seconds();
  stats.retries_ = report.total_retries;
  stats.failed_jobs_ = report.jobs_failed;
  stats.timed_out_attempts_ = report.timed_out_attempts;
  stats.total_backoff_seconds_ = report.total_backoff_seconds;
  stats.blacklisted_nodes_ = report.blacklisted_nodes.size();

  for (const JobRun& run : report.runs) {
    if (run.skipped_by_rescue) continue;
    if (run.attempts.empty()) continue;  // never launched (blocked branch)
    ++stats.jobs_;
    auto& tf = stats.per_transformation_[run.transformation];
    ++tf.jobs;
    double job_wait = 0;
    double job_install = 0;
    for (const TaskAttempt& attempt : run.attempts) {
      ++stats.attempts_;
      ++tf.attempts;
      job_wait += attempt.wait_seconds;
      job_install += attempt.install_seconds;
      if (attempt.install_cache_hit) {
        ++stats.warm_installs_;
      } else if (attempt.install_seconds > 0) {
        ++stats.cold_installs_;
      }
      stats.bytes_staged_ += attempt.transferred_bytes;
      stats.transfer_attempts_ += attempt.transfer_attempts;
      if (attempt.success) {
        stats.cumulative_kickstart_ += attempt.exec_seconds;
        tf.kickstart.add(attempt.exec_seconds);
      } else {
        stats.cumulative_badput_ += attempt.exec_seconds;
      }
    }
    stats.cumulative_waiting_ += job_wait;
    stats.cumulative_install_ += job_install;
    tf.waiting.add(job_wait);
    tf.install.add(job_install);
  }
  return stats;
}

std::string WorkflowStatistics::render(const std::string& title) const {
  std::ostringstream os;
  if (!title.empty()) os << "# " << title << "\n";
  os << "Workflow Wall Time         : " << common::format_duration(wall_seconds_)
     << " (" << common::format_fixed(wall_seconds_, 0) << " s)\n";
  os << "Cumulative Kickstart Time  : "
     << common::format_duration(cumulative_kickstart_) << "\n";
  os << "Cumulative Waiting Time    : "
     << common::format_duration(cumulative_waiting_) << "\n";
  os << "Cumulative Install Time    : "
     << common::format_duration(cumulative_install_) << "\n";
  os << "Cumulative Badput          : " << common::format_duration(cumulative_badput_)
     << "\n";
  os << "Jobs / Attempts / Retries  : " << jobs_ << " / " << attempts_ << " / "
     << retries_ << "\n";
  if (timed_out_attempts_ > 0 || total_backoff_seconds_ > 0 ||
      blacklisted_nodes_ > 0) {
    os << "Timed-out Attempts         : " << timed_out_attempts_ << "\n";
    os << "Cumulative Backoff         : "
       << common::format_duration(total_backoff_seconds_) << "\n";
    os << "Blacklisted Nodes          : " << blacklisted_nodes_ << "\n";
  }
  // Data-layer lines only appear when the cache/staging models ran, so
  // stock (per-attempt install, hint-priced staging) renders are unchanged.
  if (warm_installs_ > 0) {
    os << "Warm / Cold Installs       : " << warm_installs_ << " / "
       << cold_installs_ << " (hit rate "
       << common::format_fixed(cache_hit_rate() * 100.0, 1) << " %)\n";
  }
  if (bytes_staged_ > 0 || transfer_attempts_ > 0) {
    os << "Bytes Staged               : " << bytes_staged_ << " ("
       << transfer_attempts_ << " transfer attempts)\n";
  }
  os << "Status                     : " << (success_ ? "success" : "FAILED (")
     << (success_ ? "" : std::to_string(failed_jobs_) + " dead jobs)") << "\n";

  common::Table table({"transformation", "jobs", "attempts", "kickstart mean (s)",
                       "waiting mean (s)", "install mean (s)"});
  for (const auto& [name, tf] : per_transformation_) {
    table.add_row({name, std::to_string(tf.jobs), std::to_string(tf.attempts),
                   common::format_fixed(tf.kickstart.empty() ? 0 : tf.kickstart.mean(), 1),
                   common::format_fixed(tf.waiting.empty() ? 0 : tf.waiting.mean(), 1),
                   common::format_fixed(tf.install.empty() ? 0 : tf.install.mean(), 1)});
  }
  os << table.render();
  return os.str();
}

}  // namespace pga::wms
