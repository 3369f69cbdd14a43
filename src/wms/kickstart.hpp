// pegasus-kickstart invocation records.
//
// Real Pegasus wraps every remote job in pegasus-kickstart, which emits an
// XML "invocation record" of the execution (host, timings, exit status);
// pegasus-statistics is computed from these records. This module provides
// the same provenance layer: one XML record per attempt, serializable to a
// records directory and parseable back into RecordedAttempt form.
#pragma once

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "wms/engine.hpp"

namespace pga::wms {

/// Renders one attempt as an invocation record, e.g.
///   <invocation job="run_cap3_7" transformation="run_cap3" attempt="2"
///               host="osg-site-3" status="preempted">
///     <timing submit="1200.000" start="1260.500" end="2400.000"
///             wait="60.500" install="300.000" exec="839.500"/>
///   </invocation>
std::string to_invocation_xml(std::string_view job_id, std::string_view transformation,
                              std::size_t attempt_number, const RecordedAttempt& attempt);

/// Parsed record: the job, the attempt and its ordinal.
struct InvocationRecord {
  std::string job_id;
  std::string transformation;
  std::size_t attempt_number = 1;
  RecordedAttempt attempt;
};

/// Parses a record produced by to_invocation_xml. Throws ParseError on
/// malformed input.
InvocationRecord from_invocation_xml(const std::string& xml_text);

/// Writes one record file per attempt ("<job>.<attempt>.out.xml", the
/// pegasus-kickstart naming scheme) into `dir`. Returns the paths written.
std::vector<std::filesystem::path> write_invocation_records(
    const RunReport& report, const std::filesystem::path& dir);

/// Loads every "*.out.xml" record in `dir`, sorted by path.
std::vector<InvocationRecord> read_invocation_records(
    const std::filesystem::path& dir);

/// Reconstructs a RunReport from invocation records alone — the provenance
/// path pegasus-statistics actually takes. Attempts are grouped by job and
/// ordered by attempt number; a job succeeded if its last attempt did;
/// start/end times span the records. jobstate_log is not recoverable and
/// stays empty.
RunReport report_from_records(const std::vector<InvocationRecord>& records,
                              const std::string& workflow_name = "from-records");

}  // namespace pga::wms
