#include "wms/analyzer.hpp"

#include <gtest/gtest.h>

namespace pga::wms {
namespace {

RecordedAttempt attempt(bool success, double submit, double start, double end,
                        double install = 0) {
  RecordedAttempt a;
  a.success = success;
  a.error = success ? "" : "preempted";
  a.node = "node";
  a.submit_time = submit;
  a.end_time = end;
  a.wait_seconds = start - submit;
  a.install_seconds = install;
  a.exec_seconds = end - start - install;
  return a;
}

/// a -> b -> c, where b fails and c never runs.
struct FailedRunFixture {
  ConcreteWorkflow workflow{"chain", "fake"};
  RunReport report;

  FailedRunFixture() {
    for (const auto* id : {"a", "b", "c"}) {
      ConcreteJob job;
      job.id = id;
      job.transformation = "tf";
      workflow.add_job(std::move(job));
    }
    workflow.add_dependency("a", "b");
    workflow.add_dependency("b", "c");

    report.success = false;
    report.workflow = "chain";
    report.jobs_total = 3;
    report.jobs_succeeded = 1;
    report.jobs_failed = 1;
    report.start_time = 0;
    report.end_time = 100;

    JobRun a;
    a.id = "a";
    a.transformation = "tf";
    a.succeeded = true;
    a.attempts.push_back(attempt(true, 0, 5, 30));
    report.runs.push_back(a);

    JobRun b;
    b.id = "b";
    b.transformation = "tf";
    b.succeeded = false;
    b.attempts.push_back(attempt(false, 30, 35, 60));
    b.attempts.push_back(attempt(false, 60, 65, 100));
    report.runs.push_back(b);

    JobRun c;
    c.id = "c";
    c.transformation = "tf";
    report.runs.push_back(c);  // never attempted
  }
};

TEST(Analyzer, TriagesFailuresAndBlockedJobs) {
  const FailedRunFixture fx;
  const auto analysis = analyze_run(fx.report, fx.workflow);
  EXPECT_FALSE(analysis.success);
  EXPECT_EQ(analysis.jobs_total, 3u);
  EXPECT_EQ(analysis.jobs_succeeded, 1u);
  EXPECT_EQ(analysis.jobs_failed, 1u);
  EXPECT_EQ(analysis.jobs_never_ran, 1u);
  ASSERT_EQ(analysis.failures.size(), 1u);
  const auto& f = analysis.failures[0];
  EXPECT_EQ(f.job_id, "b");
  EXPECT_EQ(f.attempts, 2u);
  EXPECT_EQ(f.last_error, "preempted");
  EXPECT_DOUBLE_EQ(f.wasted_seconds, 25 + 35);
  EXPECT_EQ(f.blocked_children, (std::vector<std::string>{"c"}));
}

TEST(Analyzer, RenderMentionsFailureDetails) {
  const FailedRunFixture fx;
  const std::string text = render_analysis(analyze_run(fx.report, fx.workflow));
  EXPECT_NE(text.find("FAILED"), std::string::npos);
  EXPECT_NE(text.find("failed job: b"), std::string::npos);
  EXPECT_NE(text.find("preempted"), std::string::npos);
  EXPECT_NE(text.find("blocks      : c"), std::string::npos);
}

TEST(Analyzer, CleanRunHasNoFailures) {
  FailedRunFixture fx;
  fx.report.success = true;
  fx.report.runs[1].succeeded = true;
  fx.report.runs[2].succeeded = true;
  fx.report.runs[2].attempts.push_back(attempt(true, 60, 65, 90));
  const auto analysis = analyze_run(fx.report, fx.workflow);
  EXPECT_TRUE(analysis.failures.empty());
  EXPECT_EQ(analysis.jobs_never_ran, 0u);
}

TEST(Timeline, DrawsBarsInTimeOrder) {
  const FailedRunFixture fx;
  const std::string text = render_timeline(fx.report, {.width = 50});
  // 'a' appears before 'b'; 'c' has no attempts -> no row.
  const auto pos_a = text.find("\na ");
  const auto pos_b = text.find("\nb ");
  EXPECT_NE(pos_a, std::string::npos);
  EXPECT_NE(pos_b, std::string::npos);
  EXPECT_LT(pos_a, pos_b);
  EXPECT_EQ(text.find("\nc "), std::string::npos);
  // Successful bars use '#', failed attempts 'x', waiting '.'.
  EXPECT_NE(text.find('#'), std::string::npos);
  EXPECT_NE(text.find('x'), std::string::npos);
  EXPECT_NE(text.find('.'), std::string::npos);
}

TEST(Timeline, RowCapRespected) {
  RunReport report;
  report.start_time = 0;
  report.end_time = 10;
  for (int i = 0; i < 20; ++i) {
    JobRun run;
    run.id = "job" + std::to_string(i);
    run.transformation = "tf";
    run.succeeded = true;
    run.attempts.push_back(attempt(true, 0, 1, 9));
    report.runs.push_back(run);
  }
  const std::string text = render_timeline(report, {.width = 40, .max_rows = 5});
  EXPECT_NE(text.find("15 more jobs"), std::string::npos);
}

TEST(Utilization, CountsOverlappingExecutions) {
  RunReport report;
  report.start_time = 0;
  report.end_time = 100;
  // Two overlapping executions: [10,50] and [30,70]; one later: [80,90].
  for (const auto& [id, s, e] :
       std::vector<std::tuple<std::string, double, double>>{
           {"x", 10, 50}, {"y", 30, 70}, {"z", 80, 90}}) {
    JobRun run;
    run.id = id;
    run.transformation = "tf";
    run.succeeded = true;
    run.attempts.push_back(attempt(true, 0, s, e));
    report.runs.push_back(run);
  }
  EXPECT_EQ(peak_utilization(report), 2u);
  const auto samples = utilization(report);
  ASSERT_FALSE(samples.empty());
  // Monotone time, non-negative counts, ends at zero.
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GT(samples[i].time, samples[i - 1].time);
  }
  EXPECT_EQ(samples.back().running, 0u);
}

TEST(AttemptsCsv, OneRowPerAttemptWithHeader) {
  const FailedRunFixture fx;
  const std::string csv = attempts_csv(fx.report);
  std::size_t lines = 0;
  for (const char c : csv) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 1u + 3u);  // header + a(1) + b(2)
  EXPECT_NE(csv.find("job,transformation,attempt"), std::string::npos);
  EXPECT_NE(csv.find("b,tf,2,0,"), std::string::npos);
}

}  // namespace
}  // namespace pga::wms
