#include "wms/kickstart.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/fsutil.hpp"
#include "common/strings.hpp"
#include "wms/xml_util.hpp"

namespace pga::wms {

using common::ParseError;

std::string to_invocation_xml(std::string_view job_id, std::string_view transformation,
                              std::size_t attempt_number, const RecordedAttempt& attempt) {
  std::ostringstream os;
  os << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  os << "<invocation job=\"" << xml::escape(job_id) << "\" transformation=\""
     << xml::escape(transformation) << "\" attempt=\"" << attempt_number
     << "\" host=\"" << xml::escape(attempt.node) << "\" status=\""
     << (attempt.success ? "success" : xml::escape(attempt.error.empty()
                                                       ? "failed"
                                                       : attempt.error))
     << "\">\n";
  os << "  <timing submit=\"" << common::format_fixed(attempt.submit_time, 3)
     << "\" end=\"" << common::format_fixed(attempt.end_time, 3) << "\" wait=\""
     << common::format_fixed(attempt.wait_seconds, 3) << "\" install=\""
     << common::format_fixed(attempt.install_seconds, 3) << "\" exec=\""
     << common::format_fixed(attempt.exec_seconds, 3) << "\"/>\n";
  os << "</invocation>\n";
  return os.str();
}

InvocationRecord from_invocation_xml(const std::string& xml_text) {
  const xml::Element root = xml::parse_document(xml_text);
  if (root.name != "invocation") {
    throw ParseError("kickstart record root must be <invocation>");
  }
  InvocationRecord record;
  const long attempt = common::parse_long(root.attr("attempt"));
  if (attempt < 0) {
    throw ParseError("kickstart attempt must be >= 0: " + root.attr("attempt"));
  }
  record.attempt_number = static_cast<std::size_t>(attempt);
  record.job_id = root.attr("job");
  record.transformation = root.attr("transformation");
  record.attempt.node = root.attr("host");
  const std::string& status = root.attr("status");
  record.attempt.success = status == "success";
  if (!record.attempt.success) record.attempt.error = status;

  const xml::Element* timing = root.child("timing");
  if (timing == nullptr) throw ParseError("invocation record missing <timing>");
  // Times and durations feed pegasus-statistics sums and means, where one
  // NaN or infinity poisons every figure; none of them can be negative.
  const auto seconds = [&](const char* name) {
    const double value = common::parse_double(timing->attr(name));
    if (!std::isfinite(value) || value < 0) {
      throw ParseError(std::string("kickstart timing ") + name +
                       " must be finite and >= 0: " + timing->attr(name));
    }
    return value;
  };
  record.attempt.submit_time = seconds("submit");
  record.attempt.end_time = seconds("end");
  record.attempt.wait_seconds = seconds("wait");
  record.attempt.install_seconds = seconds("install");
  record.attempt.exec_seconds = seconds("exec");
  return record;
}

std::vector<std::filesystem::path> write_invocation_records(
    const RunReport& report, const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> paths;
  for (const JobRun& run : report.runs) {
    std::size_t attempt_number = 1;
    for (const RecordedAttempt& attempt : run.attempts) {
      auto path =
          dir / (run.id + "." + std::to_string(attempt_number) + ".out.xml");
      common::write_file(
          path, to_invocation_xml(run.id, run.transformation, attempt_number, attempt));
      paths.push_back(std::move(path));
      ++attempt_number;
    }
  }
  return paths;
}

std::vector<InvocationRecord> read_invocation_records(
    const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() &&
        entry.path().filename().string().ends_with(".out.xml")) {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<InvocationRecord> records;
  records.reserve(paths.size());
  for (const auto& path : paths) {
    records.push_back(from_invocation_xml(common::read_file(path)));
  }
  return records;
}

RunReport report_from_records(const std::vector<InvocationRecord>& records,
                              const std::string& workflow_name) {
  RunReport report;
  report.workflow = workflow_name;
  report.service = "records";

  // Group by job id, order attempts by number.
  std::map<std::string, std::vector<const InvocationRecord*>> by_job;
  for (const auto& record : records) {
    by_job[record.job_id].push_back(&record);
  }
  report.jobs_total = by_job.size();
  double start = std::numeric_limits<double>::max();
  double end = 0;
  for (auto& [job_id, job_records] : by_job) {
    std::sort(job_records.begin(), job_records.end(),
              [](const InvocationRecord* a, const InvocationRecord* b) {
                return a->attempt_number < b->attempt_number;
              });
    JobRun run;
    run.id = job_id;
    run.transformation = job_records.front()->transformation;
    for (const InvocationRecord* record : job_records) {
      run.attempts.push_back(record->attempt);
      start = std::min(start, record->attempt.submit_time);
      end = std::max(end, record->attempt.end_time);
    }
    run.succeeded = run.attempts.back().success;
    report.total_attempts += run.attempts.size();
    report.total_retries += run.attempts.size() - 1;
    if (run.succeeded) ++report.jobs_succeeded;
    else ++report.jobs_failed;
    report.runs.push_back(std::move(run));
  }
  if (!records.empty()) {
    report.start_time = start;
    report.end_time = end;
  }
  report.success = report.jobs_failed == 0 && report.jobs_total > 0;
  return report;
}

}  // namespace pga::wms
