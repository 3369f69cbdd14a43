#include "wms/analyzer.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/strings.hpp"

namespace pga::wms {

Analysis analyze_run(const RunReport& report, const ConcreteWorkflow& workflow) {
  Analysis analysis;
  analysis.success = report.success;
  analysis.jobs_total = report.jobs_total;
  analysis.jobs_succeeded = report.jobs_succeeded + report.jobs_skipped;

  for (const JobRun& run : report.runs) {
    if (run.succeeded) continue;
    if (run.attempts.empty()) {
      ++analysis.jobs_never_ran;
      continue;
    }
    ++analysis.jobs_failed;
    FailureDiagnosis diagnosis;
    diagnosis.job_id = run.id;
    diagnosis.transformation = run.transformation;
    diagnosis.attempts = run.attempts.size();
    diagnosis.last_error = run.attempts.back().error;
    for (const RecordedAttempt& attempt : run.attempts) {
      if (!attempt.success) diagnosis.wasted_seconds += attempt.exec_seconds;
    }
    if (workflow.has_job(run.id)) {
      diagnosis.blocked_children = workflow.children(run.id);
    }
    analysis.failures.push_back(std::move(diagnosis));
  }
  std::sort(analysis.failures.begin(), analysis.failures.end(),
            [](const FailureDiagnosis& a, const FailureDiagnosis& b) {
              return a.job_id < b.job_id;
            });
  return analysis;
}

std::string render_analysis(const Analysis& analysis) {
  std::ostringstream os;
  os << "************** workflow analysis **************\n";
  os << "status          : " << (analysis.success ? "success" : "FAILED") << "\n";
  os << "total jobs      : " << analysis.jobs_total << "\n";
  os << "succeeded       : " << analysis.jobs_succeeded << "\n";
  os << "failed          : " << analysis.jobs_failed << "\n";
  os << "never ran       : " << analysis.jobs_never_ran
     << " (blocked behind failures)\n";
  for (const auto& f : analysis.failures) {
    os << "\n--- failed job: " << f.job_id << " (" << f.transformation << ")\n";
    os << "    attempts    : " << f.attempts << "\n";
    os << "    last error  : " << (f.last_error.empty() ? "-" : f.last_error) << "\n";
    os << "    wasted time : " << common::format_duration(f.wasted_seconds) << "\n";
    if (!f.blocked_children.empty()) {
      os << "    blocks      : " << common::join(f.blocked_children, ", ") << "\n";
    }
  }
  return os.str();
}

std::string render_timeline(const RunReport& report, const TimelineOptions& options) {
  // Collect jobs that ran, ordered by first submit.
  std::vector<const JobRun*> runs;
  for (const JobRun& run : report.runs) {
    if (!run.attempts.empty()) runs.push_back(&run);
  }
  std::sort(runs.begin(), runs.end(), [](const JobRun* a, const JobRun* b) {
    if (a->attempts.front().submit_time != b->attempts.front().submit_time) {
      return a->attempts.front().submit_time < b->attempts.front().submit_time;
    }
    return a->id < b->id;
  });

  double t0 = report.start_time;
  double t1 = report.end_time;
  if (t1 <= t0) t1 = t0 + 1;
  const double span = t1 - t0;
  const double per_col = span / static_cast<double>(options.width);

  std::size_t label_width = 4;
  for (const JobRun* run : runs) label_width = std::max(label_width, run->id.size());
  label_width = std::min<std::size_t>(label_width, 24);

  std::ostringstream os;
  os << "timeline: " << common::format_duration(span) << " across "
     << options.width << " columns (" << common::format_fixed(per_col, 1)
     << " s/col); '.'=waiting '#'=executing 'x'=failed attempt\n";
  std::size_t rows = 0;
  for (const JobRun* run : runs) {
    if (rows++ >= options.max_rows) {
      os << "... (" << runs.size() - options.max_rows << " more jobs)\n";
      break;
    }
    std::string label = run->id.substr(0, label_width);
    label.resize(label_width, ' ');
    std::string bar(options.width, ' ');
    const auto col = [&](double t) {
      const double frac = (t - t0) / span;
      const auto c = static_cast<long>(frac * static_cast<double>(options.width));
      return static_cast<std::size_t>(
          std::clamp<long>(c, 0, static_cast<long>(options.width) - 1));
    };
    for (const RecordedAttempt& attempt : run->attempts) {
      const double exec_start = attempt.end_time - attempt.exec_seconds -
                                attempt.install_seconds;
      if (options.include_waiting) {
        for (std::size_t c = col(attempt.submit_time); c <= col(exec_start); ++c) {
          if (bar[c] == ' ') bar[c] = '.';
        }
      }
      const char mark = attempt.success ? '#' : 'x';
      for (std::size_t c = col(exec_start); c <= col(attempt.end_time); ++c) {
        bar[c] = mark;
      }
    }
    os << label << " |" << bar << "|\n";
  }
  return os.str();
}

std::vector<UtilizationSample> utilization(const RunReport& report) {
  // Event sweep over execution intervals (install+exec time on a node).
  std::map<double, long> delta;
  for (const JobRun& run : report.runs) {
    for (const RecordedAttempt& attempt : run.attempts) {
      const double start =
          attempt.end_time - attempt.exec_seconds - attempt.install_seconds;
      if (attempt.end_time <= start) continue;
      ++delta[start];
      --delta[attempt.end_time];
    }
  }
  std::vector<UtilizationSample> samples;
  long running = 0;
  for (const auto& [time, d] : delta) {
    running += d;
    samples.push_back({time, static_cast<std::size_t>(std::max(0L, running))});
  }
  return samples;
}

std::size_t peak_utilization(const RunReport& report) {
  std::size_t peak = 0;
  for (const auto& sample : utilization(report)) {
    peak = std::max(peak, sample.running);
  }
  return peak;
}

std::string attempts_csv(const RunReport& report) {
  std::ostringstream os;
  os << "job,transformation,attempt,success,node,submit,start,end,wait,install,exec\n";
  for (const JobRun& run : report.runs) {
    std::size_t attempt_number = 1;
    for (const RecordedAttempt& attempt : run.attempts) {
      const double start =
          attempt.end_time - attempt.exec_seconds - attempt.install_seconds;
      os << run.id << ',' << run.transformation << ',' << attempt_number++
         << ',' << (attempt.success ? 1 : 0) << ',' << attempt.node << ','
         << common::format_fixed(attempt.submit_time, 3) << ','
         << common::format_fixed(start, 3) << ','
         << common::format_fixed(attempt.end_time, 3) << ','
         << common::format_fixed(attempt.wait_seconds, 3) << ','
         << common::format_fixed(attempt.install_seconds, 3) << ','
         << common::format_fixed(attempt.exec_seconds, 3) << '\n';
    }
  }
  return os.str();
}

}  // namespace pga::wms
