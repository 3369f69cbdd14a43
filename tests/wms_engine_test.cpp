#include "wms/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <map>

#include "common/error.hpp"
#include "common/fsutil.hpp"
#include "common/rng.hpp"
#include "sim/campus_cluster.hpp"
#include "wms/statistics.hpp"

namespace pga::wms {
namespace {

/// Deterministic in-memory service: each submit completes on the next
/// wait() call; per-job failure budgets make jobs fail their first N
/// attempts.
class FakeService final : public ExecutionService {
 public:
  std::map<std::string, int> failures_before_success;

  void submit(const ConcreteJob& job) override {
    pending_.emplace_back(job.id, job.index);
    order.push_back(job.id);
  }

  std::vector<TaskAttempt> wait() override {
    std::vector<TaskAttempt> out;
    for (const auto& [id, handle] : pending_) {
      TaskAttempt attempt;
      attempt.job = handle;
      attempt.submit_time = time_;
      attempt.wait_seconds = 1;
      attempt.exec_seconds = 10;
      attempt.end_time = time_ + 11;
      auto it = failures_before_success.find(id);
      if (it != failures_before_success.end() && it->second > 0) {
        --it->second;
        attempt.success = false;
        attempt.error = "injected failure";
      } else {
        attempt.success = true;
      }
      out.push_back(std::move(attempt));
    }
    pending_.clear();
    time_ += 11;
    return out;
  }

  double now() override { return time_; }
  [[nodiscard]] std::string label() const override { return "fake"; }

  std::vector<std::string> order;  ///< submission order observed

 private:
  std::vector<std::pair<std::string, std::uint32_t>> pending_;  ///< id, handle
  double time_ = 0;
};

/// Diamond: a -> {b, c} -> d.
ConcreteWorkflow diamond() {
  ConcreteWorkflow wf("diamond", "fake");
  for (const auto* id : {"a", "b", "c", "d"}) {
    ConcreteJob job;
    job.id = id;
    job.transformation = "tf";
    wf.add_job(std::move(job));
  }
  wf.add_dependency("a", "b");
  wf.add_dependency("a", "c");
  wf.add_dependency("b", "d");
  wf.add_dependency("c", "d");
  return wf;
}

TEST(Engine, RunsDagInOrder) {
  FakeService service;
  DagmanEngine engine;
  const auto report = engine.run(diamond(), service);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.jobs_total, 4u);
  EXPECT_EQ(report.jobs_succeeded, 4u);
  EXPECT_EQ(report.total_attempts, 4u);
  ASSERT_EQ(service.order.size(), 4u);
  EXPECT_EQ(service.order[0], "a");
  EXPECT_EQ(service.order[3], "d");
}

TEST(Engine, RetriesFailedJobs) {
  FakeService service;
  service.failures_before_success["b"] = 2;
  DagmanEngine engine(EngineOptions{.retries = 3, .rescue_path = {}});
  const auto report = engine.run(diamond(), service);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.total_retries, 2u);
  EXPECT_EQ(report.total_attempts, 6u);
}

TEST(Engine, ExhaustedRetriesFailTheWorkflowButSiblingsFinish) {
  FakeService service;
  service.failures_before_success["b"] = 100;
  DagmanEngine engine(EngineOptions{.retries = 2, .rescue_path = {}});
  const auto report = engine.run(diamond(), service);
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.jobs_failed, 1u);
  // c still ran; d never could.
  bool c_done = false, d_attempted = false;
  for (const auto& run : report.runs) {
    if (run.id == "c") c_done = run.succeeded;
    if (run.id == "d") d_attempted = !run.attempts.empty();
  }
  EXPECT_TRUE(c_done);
  EXPECT_FALSE(d_attempted);
}

TEST(Engine, WritesAndConsumesRescueFile) {
  common::ScratchDir dir("engine-rescue");
  const auto rescue = dir.file("rescue.dag");
  {
    FakeService service;
    service.failures_before_success["d"] = 100;
    DagmanEngine engine(EngineOptions{.retries = 1, .rescue_path = rescue});
    const auto report = engine.run(diamond(), service);
    EXPECT_FALSE(report.success);
    ASSERT_TRUE(std::filesystem::exists(rescue));
  }
  const auto done = DagmanEngine::read_rescue_file(rescue);
  EXPECT_EQ(done, (std::set<std::string>{"a", "b", "c"}));
  {
    // Resume: only d runs this time.
    FakeService service;
    DagmanEngine engine;
    const auto report = engine.run_rescue(diamond(), service, rescue);
    EXPECT_TRUE(report.success);
    EXPECT_EQ(report.jobs_skipped, 3u);
    EXPECT_EQ(report.total_attempts, 1u);
    EXPECT_EQ(service.order, (std::vector<std::string>{"d"}));
  }
}

TEST(Engine, JobstateLogRecordsLifecycle) {
  FakeService service;
  service.failures_before_success["a"] = 1;
  DagmanEngine engine(EngineOptions{.retries = 1, .rescue_path = {}});
  const auto report = engine.run(diamond(), service);
  ASSERT_TRUE(report.success);
  std::size_t submits = 0, retries = 0, successes = 0;
  for (const auto& line : report.jobstate_log) {
    if (line.find("SUBMIT") != std::string::npos) ++submits;
    if (line.find("RETRY") != std::string::npos) ++retries;
    if (line.find("SUCCESS") != std::string::npos) ++successes;
  }
  EXPECT_EQ(submits, 4u);
  EXPECT_EQ(retries, 1u);
  EXPECT_EQ(successes, 4u);
}

TEST(Engine, NegativeRetriesRejected) {
  EXPECT_THROW(DagmanEngine(EngineOptions{.retries = -1, .rescue_path = {}}),
               common::InvalidArgument);
}

TEST(Engine, WideFanOutCompletes) {
  // split -> 100 x cap3 -> merge, the Fig. 2 shape at n=100.
  ConcreteWorkflow wf("fan", "fake");
  ConcreteJob split;
  split.id = "split";
  split.transformation = "split";
  wf.add_job(split);
  ConcreteJob merge;
  merge.id = "merge";
  merge.transformation = "merge";
  wf.add_job(merge);
  for (int i = 0; i < 100; ++i) {
    ConcreteJob cap3;
    cap3.id = "cap3_" + std::to_string(i);
    cap3.transformation = "run_cap3";
    wf.add_job(cap3);
    wf.add_dependency("split", cap3.id);
    wf.add_dependency(cap3.id, "merge");
  }
  FakeService service;
  DagmanEngine engine;
  const auto report = engine.run(wf, service);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.jobs_succeeded, 102u);
  EXPECT_EQ(service.order.front(), "split");
  EXPECT_EQ(service.order.back(), "merge");
}

TEST(Engine, RandomDagsRespectTopologicalOrder) {
  common::Rng rng(333);
  for (int trial = 0; trial < 10; ++trial) {
    ConcreteWorkflow wf("random", "fake");
    const int n = 30;
    for (int i = 0; i < n; ++i) {
      ConcreteJob job;
      job.id = "j" + std::to_string(i);
      job.transformation = "tf";
      wf.add_job(std::move(job));
    }
    // Edges only forward: guarantees acyclicity.
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if (rng.chance(0.1)) {
          wf.add_dependency("j" + std::to_string(i), "j" + std::to_string(j));
        }
      }
    }
    FakeService service;
    DagmanEngine engine;
    const auto report = engine.run(wf, service);
    ASSERT_TRUE(report.success);
    // Submission order must respect every edge.
    std::map<std::string, std::size_t> pos;
    for (std::size_t i = 0; i < service.order.size(); ++i) {
      pos[service.order[i]] = i;
    }
    for (const auto& job : wf.jobs()) {
      for (const auto& parent : wf.parents(job.id)) {
        EXPECT_LT(pos[parent], pos[job.id]);
      }
    }
  }
}

TEST(Engine, ThrottleLimitsInFlightJobs) {
  // A service that records the maximum number of concurrently outstanding
  // submissions.
  class CountingService final : public ExecutionService {
   public:
    void submit(const ConcreteJob& job) override {
      pending_.push_back(job.index);
      peak_ = std::max(peak_, pending_.size());
    }
    std::vector<TaskAttempt> wait() override {
      std::vector<TaskAttempt> out;
      if (pending_.empty()) return out;
      // Complete ONE job per wait() so the engine refills under throttle.
      TaskAttempt attempt;
      attempt.job = pending_.front();
      attempt.success = true;
      pending_.erase(pending_.begin());
      out.push_back(std::move(attempt));
      return out;
    }
    double now() override { return 0; }
    [[nodiscard]] std::string label() const override { return "counting"; }
    std::size_t peak_ = 0;

   private:
    std::vector<std::uint32_t> pending_;  ///< job handles
  };

  ConcreteWorkflow wf("wide", "x");
  for (int i = 0; i < 40; ++i) {
    ConcreteJob job;
    job.id = "j" + std::to_string(i);
    job.transformation = "tf";
    wf.add_job(std::move(job));
  }

  CountingService service;
  DagmanEngine engine(EngineOptions{
      .retries = 0, .rescue_path = {}, .status = nullptr, .max_jobs_in_flight = 5});
  const auto report = engine.run(wf, service);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(service.peak_, 5u);

  CountingService unthrottled;
  DagmanEngine free_engine;
  EXPECT_TRUE(free_engine.run(wf, unthrottled).success);
  EXPECT_EQ(unthrottled.peak_, 40u);
}

/// Stub with a controllable clock for the hardening features: honours
/// wait_for by advancing time, can swallow attempts (hang), fail jobs a
/// set number of times, pin attempts to a node, and records avoid_node
/// hints.
class TimedStubService final : public ExecutionService {
 public:
  std::map<std::string, int> failures_before_success;
  std::set<std::string> hang;            ///< jobs whose attempts never finish
  std::string node = "node-1";           ///< node every attempt reports
  std::vector<std::string> avoided;      ///< avoid_node calls, in order

  void submit(const ConcreteJob& job) override {
    if (hang.count(job.id)) {
      ++swallowed_;
      return;  // the attempt vanishes; only a timeout can clear it
    }
    pending_.push_back({job.id, job.index, time_});
  }

  std::vector<TaskAttempt> wait() override { return drain(); }

  std::vector<TaskAttempt> wait_for(double timeout_seconds) override {
    if (pending_.empty()) {
      // Nothing will ever complete: consume the engine's horizon so cooled
      // retries release and hung attempts expire.
      time_ += timeout_seconds;
      return {};
    }
    return drain();
  }

  void avoid_node(const std::string& n) override { avoided.push_back(n); }
  double now() override { return time_; }
  [[nodiscard]] std::string label() const override { return "timed-stub"; }

 private:
  struct Pending {
    std::string id;
    std::uint32_t handle;
    double submitted_at;
  };

  std::vector<TaskAttempt> drain() {
    time_ += 10;
    std::vector<TaskAttempt> out;
    for (const auto& p : pending_) {
      TaskAttempt attempt;
      attempt.job = p.handle;
      attempt.node = node;
      attempt.submit_time = p.submitted_at;
      attempt.wait_seconds = 2;
      attempt.exec_seconds = 8;
      attempt.end_time = time_;
      auto it = failures_before_success.find(p.id);
      if (it != failures_before_success.end() && it->second > 0) {
        --it->second;
        attempt.success = false;
        attempt.error = "injected failure";
      } else {
        attempt.success = true;
      }
      out.push_back(std::move(attempt));
    }
    pending_.clear();
    return out;
  }

  std::vector<Pending> pending_;
  std::size_t swallowed_ = 0;
  double time_ = 0;
};

TEST(Engine, TimeoutConvertsHungAttemptIntoFailedAttempt) {
  TimedStubService service;
  service.hang = {"b"};
  DagmanEngine engine(EngineOptions{.retries = 0,
                                    .rescue_path = {},
                                    .attempt_timeout_seconds = 30});
  // Without the timeout this would wedge forever; with it, the run
  // completes with b's attempt recorded as timed out.
  const auto report = engine.run(diamond(), service);
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.timed_out_attempts, 1u);
  EXPECT_EQ(report.jobs_failed, 1u);
  for (const auto& run : report.runs) {
    if (run.id != "b") continue;
    ASSERT_EQ(run.attempts.size(), 1u);
    EXPECT_FALSE(run.attempts[0].success);
    EXPECT_NE(run.attempts[0].error.find("timed out"), std::string::npos);
    EXPECT_GE(run.attempts[0].end_time,
              run.attempts[0].submit_time + 30 - 1e-6);
  }
  bool logged = false;
  for (const auto& line : report.jobstate_log) {
    if (line.find("b TIMEOUT") != std::string::npos) logged = true;
  }
  EXPECT_TRUE(logged);
}

TEST(Engine, HungAttemptIsRetriedAfterTimeoutUntilBudgetExhausted) {
  TimedStubService service;
  service.hang = {"b"};
  DagmanEngine engine(EngineOptions{.retries = 2,
                                    .rescue_path = {},
                                    .attempt_timeout_seconds = 30});
  // Every attempt of b hangs; each one is written off by the timeout and
  // retried until the budget is spent. The run terminates regardless.
  const auto report = engine.run(diamond(), service);
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.timed_out_attempts, 3u);  // initial + 2 retries
  for (const auto& run : report.runs) {
    if (run.id == "b") {
      EXPECT_EQ(run.attempts.size(), 3u);
    }
  }
}

TEST(Engine, BackoffIsExponentialAndCapped) {
  TimedStubService service;
  service.failures_before_success["a"] = 3;
  DagmanEngine engine(EngineOptions{.retries = 3,
                                    .rescue_path = {},
                                    .backoff_base_seconds = 10,
                                    .backoff_max_seconds = 15,
                                    .backoff_jitter = 0});
  const auto report = engine.run(diamond(), service);
  EXPECT_TRUE(report.success);
  // Retries 1..3 cool off min(10 * 2^(k-1), 15): 10 + 15 + 15.
  EXPECT_DOUBLE_EQ(report.total_backoff_seconds, 40.0);
  for (const auto& run : report.runs) {
    if (run.id == "a") {
      EXPECT_DOUBLE_EQ(run.backoff_seconds, 40.0);
    }
    if (run.id == "b") {
      EXPECT_DOUBLE_EQ(run.backoff_seconds, 0.0);
    }
  }
  std::size_t backoff_lines = 0;
  for (const auto& line : report.jobstate_log) {
    if (line.find("BACKOFF") != std::string::npos) ++backoff_lines;
  }
  EXPECT_EQ(backoff_lines, 3u);
  // The service clock actually waited the cool-offs out.
  EXPECT_GE(report.wall_seconds(), 40.0);
}

TEST(Engine, BackoffJitterOnlyShavesAndStaysDeterministic) {
  const auto run_once = [] {
    TimedStubService service;
    service.failures_before_success["a"] = 2;
    DagmanEngine engine(EngineOptions{.retries = 2,
                                      .rescue_path = {},
                                      .backoff_base_seconds = 100,
                                      .backoff_max_seconds = 1'000,
                                      .backoff_jitter = 0.5,
                                      .backoff_seed = 7});
    return engine.run(diamond(), service).total_backoff_seconds;
  };
  const double total = run_once();
  // Nominal 100 + 200; jitter shaves each by up to 50%.
  EXPECT_GT(total, 150.0);
  EXPECT_LE(total, 300.0);
  EXPECT_DOUBLE_EQ(total, run_once());  // same seed, same jitter
}

TEST(Engine, BlacklistsNodeAfterConsecutiveFailuresAndHintsService) {
  TimedStubService service;
  service.node = "bad-node";
  service.failures_before_success["a"] = 2;
  DagmanEngine engine(EngineOptions{.retries = 3,
                                    .rescue_path = {},
                                    .node_blacklist_threshold = 2});
  const auto report = engine.run(diamond(), service);
  EXPECT_TRUE(report.success);
  ASSERT_EQ(report.blacklisted_nodes.size(), 1u);
  EXPECT_EQ(report.blacklisted_nodes[0], "bad-node");
  EXPECT_EQ(service.avoided, std::vector<std::string>{"bad-node"});
  bool logged = false;
  for (const auto& line : report.jobstate_log) {
    if (line.find("BLACKLIST bad-node") != std::string::npos) logged = true;
  }
  EXPECT_TRUE(logged);
}

TEST(Engine, SuccessResetsTheNodeFailureStreak) {
  // a fails once, then succeeds on the same node; b fails once more. The
  // streak was reset by the success, so threshold 2 is never reached.
  TimedStubService service;
  service.failures_before_success["a"] = 1;
  service.failures_before_success["b"] = 1;
  DagmanEngine engine(EngineOptions{.retries = 3,
                                    .rescue_path = {},
                                    .node_blacklist_threshold = 2});
  const auto report = engine.run(diamond(), service);
  EXPECT_TRUE(report.success);
  EXPECT_TRUE(report.blacklisted_nodes.empty());
  EXPECT_TRUE(service.avoided.empty());
}

TEST(Engine, FailedAttemptTimingStaysPartialButConsistent) {
  // Regression: failed (and timed-out) attempts keep coherent bookkeeping —
  // the recorded phases never exceed the attempt's wall span, and times
  // never run backwards.
  TimedStubService service;
  service.failures_before_success["a"] = 2;
  service.hang = {"c"};
  DagmanEngine engine(EngineOptions{.retries = 2,
                                    .rescue_path = {},
                                    .attempt_timeout_seconds = 25,
                                    .backoff_base_seconds = 5});
  const auto report = engine.run(diamond(), service);
  for (const auto& run : report.runs) {
    for (const auto& attempt : run.attempts) {
      EXPECT_GE(attempt.end_time + 1e-9, attempt.submit_time) << run.id;
      EXPECT_GE(attempt.wait_seconds, 0.0) << run.id;
      EXPECT_GE(attempt.exec_seconds, 0.0) << run.id;
      EXPECT_GE(attempt.install_seconds, 0.0) << run.id;
      EXPECT_LE(attempt.wait_seconds + attempt.exec_seconds +
                    attempt.install_seconds,
                attempt.end_time - attempt.submit_time + 1e-6)
          << run.id;
    }
  }
  // The statistics layer digests the mixed outcome without imbalance.
  const auto stats = WorkflowStatistics::from_run(report);
  EXPECT_EQ(stats.timed_out_attempts(), report.timed_out_attempts);
  EXPECT_GT(stats.cumulative_badput(), 0.0);
}

TEST(Engine, HardeningOptionsAreValidated) {
  EXPECT_THROW(DagmanEngine(EngineOptions{.retries = 0,
                                          .rescue_path = {},
                                          .attempt_timeout_seconds = -1}),
               common::InvalidArgument);
  EXPECT_THROW(DagmanEngine(EngineOptions{.retries = 0,
                                          .rescue_path = {},
                                          .backoff_base_seconds = -5}),
               common::InvalidArgument);
  EXPECT_THROW(DagmanEngine(EngineOptions{.retries = 0,
                                          .rescue_path = {},
                                          .backoff_base_seconds = 1,
                                          .backoff_max_seconds = 0.5}),
               common::InvalidArgument);
  EXPECT_THROW(DagmanEngine(EngineOptions{.retries = 0,
                                          .rescue_path = {},
                                          .backoff_jitter = 1.5}),
               common::InvalidArgument);
  EXPECT_THROW(DagmanEngine(EngineOptions{.retries = 0,
                                          .rescue_path = {},
                                          .node_blacklist_threshold = -2}),
               common::InvalidArgument);
  // NaN slips past every ordered comparison, so each field must be finite.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    EXPECT_THROW(DagmanEngine(EngineOptions{.retries = 0,
                                            .rescue_path = {},
                                            .attempt_timeout_seconds = bad}),
                 common::InvalidArgument);
    EXPECT_THROW(DagmanEngine(EngineOptions{.retries = 0,
                                            .rescue_path = {},
                                            .backoff_base_seconds = bad}),
                 common::InvalidArgument);
    EXPECT_THROW(DagmanEngine(EngineOptions{.retries = 0,
                                            .rescue_path = {},
                                            .backoff_max_seconds = bad}),
                 common::InvalidArgument);
    EXPECT_THROW(DagmanEngine(EngineOptions{.retries = 0,
                                            .rescue_path = {},
                                            .backoff_jitter = bad}),
                 common::InvalidArgument);
  }
}

TEST(Engine, ReadRescueFileSkipsCommentsBlanksAndMalformedLines) {
  common::ScratchDir dir("engine-rescue-parse");
  const auto rescue = dir.file("rescue.dag");
  common::write_file(rescue,
                     "# rescue DAG for diamond\n"
                     "\n"
                     "DONE a\n"
                     "   \n"
                     "# DONE commented_out\n"
                     "DONE b extra_field\n"
                     "PENDING c\n"
                     "DONE\n"
                     "DONE b\n");
  EXPECT_EQ(DagmanEngine::read_rescue_file(rescue),
            (std::set<std::string>{"a", "b"}));
}

TEST(Engine, ReadRescueFileHandlesCrlfAndDuplicates) {
  common::ScratchDir dir("engine-rescue-crlf");
  const auto rescue = dir.file("rescue.dag");
  // A rescue file edited on Windows: CRLF endings, repeated entries.
  common::write_file(rescue, "DONE a\r\nDONE b\r\nDONE a\r\nDONE b\r\n");
  EXPECT_EQ(DagmanEngine::read_rescue_file(rescue),
            (std::set<std::string>{"a", "b"}));
}

TEST(Engine, ReadRescueFileDropsACutFinalRecord) {
  common::ScratchDir dir("engine-rescue-cut");
  const auto rescue = dir.file("rescue.dag");
  // The write stopped inside the last record, "DONE run_cap3_10": without
  // its newline the line names another job and must not count as done.
  common::write_file(rescue, "# rescue DAG for blast2cap3\nDONE split\nDONE run_cap3_1");
  EXPECT_EQ(DagmanEngine::read_rescue_file(rescue), (std::set<std::string>{"split"}));
  // A cut at a line boundary only loses records.
  common::write_file(rescue, "DONE split\n");
  EXPECT_EQ(DagmanEngine::read_rescue_file(rescue), (std::set<std::string>{"split"}));
}

TEST(Engine, RescueRunIgnoresUnknownDoneIds) {
  // Ids from a stale rescue file (e.g. a replanned workflow) parse fine and
  // are ignored by the engine rather than crashing the run.
  common::ScratchDir dir("engine-rescue-unknown");
  const auto rescue = dir.file("rescue.dag");
  common::write_file(rescue, "DONE a\nDONE ghost_job\n");
  EXPECT_EQ(DagmanEngine::read_rescue_file(rescue),
            (std::set<std::string>{"a", "ghost_job"}));
  FakeService service;
  DagmanEngine engine;
  const auto report = engine.run_rescue(diamond(), service, rescue);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.jobs_skipped, 1u);  // only a exists
  EXPECT_EQ(report.total_attempts, 3u);
}

TEST(Engine, EmptyRescueFileMeansNothingIsSkipped) {
  common::ScratchDir dir("engine-rescue-empty");
  const auto rescue = dir.file("rescue.dag");
  common::write_file(rescue, "# header only\n\n");
  EXPECT_TRUE(DagmanEngine::read_rescue_file(rescue).empty());
  FakeService service;
  DagmanEngine engine;
  const auto report = engine.run_rescue(diamond(), service, rescue);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.jobs_skipped, 0u);
  EXPECT_EQ(report.total_attempts, 4u);
}

/// Records the typed event stream for the observer-contract test.
class RecordingObserver final : public EngineObserver {
 public:
  void on_event(const EngineEvent& event) override {
    types.push_back(event.type);
    if (event.type == EngineEventType::kAttemptFinished) {
      // The attempt pointer is only valid during the callback.
      ASSERT_NE(event.result, nullptr);
      EXPECT_EQ(event.result->job, event.job);
      attempt_jobs.emplace_back(event.job_id);
    }
  }
  std::vector<EngineEventType> types;
  std::vector<std::string> attempt_jobs;
};

TEST(Engine, CustomObserversSeeTheFullTypedEventStream) {
  FakeService service;
  service.failures_before_success["b"] = 1;
  RecordingObserver recorder;
  EngineOptions options;
  options.retries = 1;
  options.observers.push_back(&recorder);
  DagmanEngine engine(std::move(options));
  const auto report = engine.run(diamond(), service);
  ASSERT_TRUE(report.success);

  ASSERT_FALSE(recorder.types.empty());
  EXPECT_EQ(recorder.types.front(), EngineEventType::kRunStarted);
  EXPECT_EQ(recorder.types.back(), EngineEventType::kRunFinished);
  const auto count = [&](EngineEventType type) {
    return std::count(recorder.types.begin(), recorder.types.end(), type);
  };
  EXPECT_EQ(count(EngineEventType::kJobSubmitted), 5);  // 4 jobs + 1 retry
  EXPECT_EQ(count(EngineEventType::kAttemptFinished), 5);
  EXPECT_EQ(count(EngineEventType::kJobSucceeded), 4);
  EXPECT_EQ(count(EngineEventType::kJobRetry), 1);
  EXPECT_EQ(count(EngineEventType::kJobFailed), 0);
  EXPECT_EQ(recorder.attempt_jobs.size(), 5u);
}

TEST(Engine, RunsOnSimulatedCampusCluster) {
  sim::EventQueue queue;
  sim::CampusClusterConfig config;
  config.allocated_slots = 4;
  sim::CampusClusterPlatform platform(queue, config);
  SimService service(queue, platform);

  ConcreteWorkflow wf = diamond();
  for (const auto& job : wf.jobs()) {
    wf.mutable_job(job.id).cpu_seconds_hint = 500;
  }
  DagmanEngine engine;
  const auto report = engine.run(wf, service);
  EXPECT_TRUE(report.success);
  // Critical path a -> b -> d (3 x ~500s) plus dispatch latencies.
  EXPECT_GT(report.wall_seconds(), 1'200.0);
  EXPECT_LT(report.wall_seconds(), 3'000.0);

  const auto stats = WorkflowStatistics::from_run(report);
  EXPECT_EQ(stats.jobs(), 4u);
  EXPECT_GT(stats.cumulative_kickstart(), 1'500.0);
  EXPECT_DOUBLE_EQ(stats.cumulative_install(), 0.0);
}

TEST(Engine, SimulatorAbortSurfacesInRunReport) {
  // A service that hits the simulator's runaway guard (or any other
  // SimulationError) must produce a failed report carrying the message —
  // not a silent truncation that looks like a stuck-but-clean run.
  class RunawayService final : public ExecutionService {
   public:
    void submit(const ConcreteJob&) override {}
    std::vector<TaskAttempt> wait() override {
      throw common::SimulationError(
          "event budget exhausted after 100000000 events (runaway simulation?)");
    }
    std::vector<TaskAttempt> wait_for(double) override { return wait(); }
    double now() override { return 0.0; }
    [[nodiscard]] std::string label() const override { return "runaway"; }
  };

  RunawayService service;
  DagmanEngine engine;
  const auto report = engine.run(diamond(), service);
  EXPECT_FALSE(report.success);
  EXPECT_NE(report.error.find("event budget exhausted"), std::string::npos)
      << report.error;
  EXPECT_NE(report.error.find("runaway"), std::string::npos) << report.error;
  // The abort is still a bracketed run: jobs submitted before the abort
  // stay unresolved rather than being invented as successes.
  EXPECT_EQ(report.jobs_succeeded, 0u);
  EXPECT_EQ(report.jobs_total, 4u);
}

}  // namespace
}  // namespace pga::wms
