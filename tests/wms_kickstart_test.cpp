#include "wms/kickstart.hpp"

#include "wms/statistics.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/fsutil.hpp"

namespace pga::wms {
namespace {

RecordedAttempt sample_attempt(bool success) {
  RecordedAttempt a;
  a.success = success;
  a.error = success ? "" : "preempted";
  a.node = "osg-site-3";
  a.submit_time = 1200.0;
  a.end_time = 2400.0;
  a.wait_seconds = 60.5;
  a.install_seconds = 300.0;
  a.exec_seconds = 839.5;
  return a;
}

TEST(Kickstart, XmlRoundTripSuccess) {
  const auto original = sample_attempt(true);
  const auto record =
      from_invocation_xml(to_invocation_xml("run_cap3_7", "run_cap3", 2, original));
  EXPECT_EQ(record.attempt_number, 2u);
  EXPECT_EQ(record.job_id, "run_cap3_7");
  EXPECT_EQ(record.transformation, "run_cap3");
  EXPECT_EQ(record.attempt.node, original.node);
  EXPECT_TRUE(record.attempt.success);
  EXPECT_TRUE(record.attempt.error.empty());
  EXPECT_NEAR(record.attempt.submit_time, original.submit_time, 1e-3);
  EXPECT_NEAR(record.attempt.end_time, original.end_time, 1e-3);
  EXPECT_NEAR(record.attempt.wait_seconds, original.wait_seconds, 1e-3);
  EXPECT_NEAR(record.attempt.install_seconds, original.install_seconds, 1e-3);
  EXPECT_NEAR(record.attempt.exec_seconds, original.exec_seconds, 1e-3);
}

TEST(Kickstart, XmlRoundTripFailureKeepsError) {
  const auto record =
      from_invocation_xml(to_invocation_xml("j", "run_cap3", 1, sample_attempt(false)));
  EXPECT_FALSE(record.attempt.success);
  EXPECT_EQ(record.attempt.error, "preempted");
}

TEST(Kickstart, RejectsForeignXml) {
  EXPECT_THROW(from_invocation_xml("<adag name=\"x\"></adag>"), common::ParseError);
  EXPECT_THROW(from_invocation_xml("<invocation job=\"a\" transformation=\"t\" "
                                   "attempt=\"1\" host=\"h\" status=\"success\">"
                                   "</invocation>"),
               common::ParseError);  // missing <timing>
  EXPECT_THROW(from_invocation_xml("not xml"), common::ParseError);
}

/// A successful record whose <timing> `field` reads `value` and whose
/// attempt number reads `attempt`.
std::string invocation_with(const std::string& field, const std::string& value,
                            const std::string& attempt = "1") {
  std::string timing;
  for (const char* name : {"submit", "end", "wait", "install", "exec"}) {
    timing += std::string(" ") + name + "=\"" + (field == name ? value : "1.000") + "\"";
  }
  return "<invocation job=\"a\" transformation=\"t\" attempt=\"" + attempt +
         "\" host=\"h\" status=\"success\"><timing" + timing +
         "/></invocation>";
}

TEST(Kickstart, RejectsNonFiniteOrNegativeTimes) {
  for (const char* field : {"submit", "end", "wait", "install", "exec"}) {
    for (const char* bad : {"nan", "inf", "-inf", "-0.5"}) {
      EXPECT_THROW(from_invocation_xml(invocation_with(field, bad)), common::ParseError)
          << field << "=" << bad;
    }
    // Zero is a legal time and a legal duration.
    EXPECT_NO_THROW(from_invocation_xml(invocation_with(field, "0"))) << field;
  }
}

TEST(Kickstart, RejectsNegativeAttempt) {
  EXPECT_THROW(from_invocation_xml(invocation_with("", "", "-1")), common::ParseError);
  EXPECT_EQ(from_invocation_xml(invocation_with("", "", "0")).attempt_number, 0u);
  EXPECT_EQ(from_invocation_xml(invocation_with("", "", "3")).attempt_number, 3u);
}

TEST(Kickstart, DirectoryRoundTrip) {
  RunReport report;
  JobRun run_a;
  run_a.id = "a";
  run_a.transformation = "tf";
  run_a.succeeded = true;
  run_a.attempts = {sample_attempt(false), sample_attempt(true)};
  report.runs.push_back(run_a);
  JobRun run_b;
  run_b.id = "b";
  run_b.transformation = "tf";
  run_b.succeeded = true;
  run_b.attempts = {sample_attempt(true)};
  report.runs.push_back(run_b);

  common::ScratchDir dir("kickstart-test");
  const auto paths = write_invocation_records(report, dir.path());
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(paths[0].filename(), "a.1.out.xml");
  EXPECT_EQ(paths[1].filename(), "a.2.out.xml");
  EXPECT_EQ(paths[2].filename(), "b.1.out.xml");

  const auto records = read_invocation_records(dir.path());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].job_id, "a");
  EXPECT_EQ(records[0].transformation, "tf");
  EXPECT_FALSE(records[0].attempt.success);
  EXPECT_EQ(records[1].attempt_number, 2u);
  EXPECT_TRUE(records[1].attempt.success);
  EXPECT_EQ(records[2].job_id, "b");
}

TEST(Kickstart, ReportFromRecordsReconstructsStatistics) {
  // Write records from a synthetic report, read them back, rebuild the
  // report, and check pegasus-statistics agrees — the provenance path.
  RunReport original;
  original.success = true;
  original.start_time = 1200.0;
  original.end_time = 2400.0;
  JobRun run;
  run.id = "run_cap3_7";
  run.transformation = "run_cap3";
  run.succeeded = true;
  run.attempts.push_back(sample_attempt(false));
  run.attempts.push_back(sample_attempt(true));
  original.runs.push_back(run);
  original.jobs_total = 1;
  original.jobs_succeeded = 1;
  original.total_attempts = 2;
  original.total_retries = 1;

  common::ScratchDir dir("kickstart-rebuild");
  write_invocation_records(original, dir.path());
  const auto rebuilt =
      report_from_records(read_invocation_records(dir.path()), "rebuilt");

  EXPECT_TRUE(rebuilt.success);
  EXPECT_EQ(rebuilt.jobs_total, 1u);
  EXPECT_EQ(rebuilt.total_attempts, 2u);
  EXPECT_EQ(rebuilt.total_retries, 1u);
  EXPECT_NEAR(rebuilt.start_time, 1200.0, 1e-3);
  EXPECT_NEAR(rebuilt.end_time, 2400.0, 1e-3);

  const auto stats_original = WorkflowStatistics::from_run(original);
  const auto stats_rebuilt = WorkflowStatistics::from_run(rebuilt);
  EXPECT_NEAR(stats_rebuilt.cumulative_kickstart(),
              stats_original.cumulative_kickstart(), 1e-3);
  EXPECT_NEAR(stats_rebuilt.cumulative_badput(), stats_original.cumulative_badput(),
              1e-3);
  EXPECT_NEAR(stats_rebuilt.cumulative_install(),
              stats_original.cumulative_install(), 1e-3);
  EXPECT_EQ(stats_rebuilt.retries(), stats_original.retries());
}

TEST(Kickstart, ReportFromRecordsDetectsFailedJobs) {
  std::vector<InvocationRecord> records;
  records.push_back({"run_cap3_7", "run_cap3", 1, sample_attempt(false)});
  const auto report = report_from_records(records);
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.jobs_failed, 1u);
}

TEST(Kickstart, ReportFromEmptyRecords) {
  const auto report = report_from_records({});
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.jobs_total, 0u);
  EXPECT_DOUBLE_EQ(report.wall_seconds(), 0.0);
}

TEST(Kickstart, SpecialCharactersEscaped) {
  auto attempt = sample_attempt(false);
  attempt.error = "node <lost> & \"held\"";
  const auto record = from_invocation_xml(to_invocation_xml("j", "tf", 1, attempt));
  EXPECT_EQ(record.attempt.error, "node <lost> & \"held\"");
}

}  // namespace
}  // namespace pga::wms
