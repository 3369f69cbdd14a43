// The DAGMan-style workflow engine.
//
// Releases jobs in DAG order onto an ExecutionService, retries failed
// attempts up to a per-job cap, keeps a jobstate log, and — like Pegasus —
// writes a *rescue DAG* when the workflow cannot finish, so a later run can
// resume from the completed frontier (§III: "If the job fails again, then
// Pegasus generates a rescue workflow that contains information of the
// work that remains to be done").
//
// Internally the engine is an event loop around three pieces:
//   - JobStateMachine (wms/scheduler.hpp) holds every job's lifecycle state
//     and releases children by decrementing predecessor counts;
//   - a SchedulingPolicy picks which ready job submits next under the
//     max_jobs_in_flight throttle (default FIFO, byte-identical to the
//     pre-refactor engine);
//   - an EventBus (wms/events.hpp) publishes every observable step; one
//     RunReportBuilder turns it into the RunReport and its jobstate log,
//     and the StatusBoard is a second observer.
//
// The loop itself lives in EngineInstance, a re-entrant steppable core:
// run() is a thin drive-to-completion wrapper (`while (step()) {}`), and a
// multi-workflow driver can instead construct many instances over one
// shared sim::EventQueue and interleave them with step_cooperative() —
// the Workflow-as-a-Service fleet controller (src/waas/) does exactly that.
#pragma once

#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/digest.hpp"
#include "common/rng.hpp"

#include "wms/events.hpp"
#include "wms/exec_service.hpp"
#include "wms/scheduler.hpp"
#include "wms/status.hpp"

namespace pga::wms {

/// Engine knobs.
struct EngineOptions {
  int retries = 3;  ///< additional attempts after the first failure
  /// When set, a rescue file is written here if the run fails.
  std::optional<std::filesystem::path> rescue_path = std::nullopt;
  /// When set, the engine publishes job-state transitions here; poll it
  /// from another thread for pegasus-status-style monitoring. Must outlive
  /// the run.
  StatusBoard* status = nullptr;
  /// DAGMan-style submit throttle (condor_dagman -maxjobs): at most this
  /// many attempts in flight at once. 0 = unlimited.
  std::size_t max_jobs_in_flight = 0;
  /// Per-attempt timeout in service seconds (condor periodic_remove /
  /// DAGMan ABORT-DAG-ON discipline): an attempt still outstanding after
  /// this long is declared failed ("timed out") and consumes one retry, so
  /// a hung attempt can never wedge the run. 0 disables.
  double attempt_timeout_seconds = 0;
  /// Exponential backoff between retries of the same job: the k-th retry
  /// waits min(backoff_base_seconds * 2^(k-1), backoff_max_seconds) before
  /// resubmission. 0 disables (retry immediately).
  double backoff_base_seconds = 0;
  double backoff_max_seconds = 300;
  /// Jitter fraction in [0, 1): each backoff is shaved by up to this
  /// fraction, drawn from a private deterministic Rng seeded with
  /// backoff_seed — decorrelates retry storms without losing
  /// reproducibility.
  double backoff_jitter = 0;
  std::uint64_t backoff_seed = 0x5eedULL;
  /// Blacklist an execution node after this many *consecutive* failed
  /// attempts reported from it; the service is hinted to avoid it (the
  /// Pegasus/OSG behaviour of retries landing on different sites). A
  /// success on a node resets its streak. 0 disables.
  int node_blacklist_threshold = 0;
  /// Which ready job to submit next under the throttle. Null = FIFO (the
  /// pre-refactor behaviour, byte-identical jobstate logs). Shared so
  /// EngineOptions stays copyable; one policy instance must not serve two
  /// concurrently-running engines (sequential reuse is fine — the engine
  /// calls prepare() at the start of every run).
  std::shared_ptr<SchedulingPolicy> policy = nullptr;
  /// Extra engine-event observers, notified after the engine's own
  /// (report, status) in this order. Borrowed; must outlive every run.
  std::vector<EngineObserver*> observers = {};
  /// Scalar-only accounting: the RunReport carries counters and a streamed
  /// FNV-1a digest of the jobstate lines (jobstate_digest/jobstate_lines)
  /// but no per-job runs[] roster and no stored jobstate_log — O(1) report
  /// memory instead of O(jobs), which is what lets a 10^7-job run fit the
  /// 4 GB envelope. The digest matches common::lines_digest of the log a
  /// full-mode run would have stored, byte for byte.
  bool lean_report = false;
};

/// Everything recorded about one job across its attempts.
struct JobRun {
  std::string id;
  std::string transformation;
  JobKind kind = JobKind::kCompute;
  std::vector<RecordedAttempt> attempts;
  bool succeeded = false;
  bool skipped_by_rescue = false;
  /// Total seconds this job spent cooling off between retries.
  double backoff_seconds = 0;

  /// The successful attempt (the last one when succeeded).
  [[nodiscard]] const RecordedAttempt* final_attempt() const {
    return attempts.empty() ? nullptr : &attempts.back();
  }
};

/// Outcome of one engine run.
struct RunReport {
  bool success = false;
  /// Diagnostic when the run was aborted by the simulator rather than
  /// finishing (e.g. the event-queue runaway guard tripped); empty on
  /// normal completion or ordinary job failure.
  std::string error;
  std::string workflow;
  std::string service;       ///< execution back-end label
  double start_time = 0;     ///< service time when the run began
  double end_time = 0;       ///< service time when the run finished
  std::size_t jobs_total = 0;
  std::size_t jobs_succeeded = 0;
  std::size_t jobs_failed = 0;
  std::size_t jobs_skipped = 0;   ///< completed in a previous (rescued) run
  std::size_t total_attempts = 0;
  std::size_t total_retries = 0;  ///< attempts beyond each job's first
  std::size_t timed_out_attempts = 0;  ///< attempts declared dead by timeout
  double total_backoff_seconds = 0;    ///< summed retry cool-off across jobs
  /// Nodes blacklisted during the run, in blacklist order.
  std::vector<std::string> blacklisted_nodes;
  std::vector<JobRun> runs;       ///< per job, sorted by id (empty under
                                  ///< EngineOptions::lean_report)
  std::vector<std::string> jobstate_log;  ///< "<t> <job> <EVENT>" lines
                                          ///< (empty under lean_report)
  /// common::lines_digest of the jobstate log and its line count — streamed
  /// in both modes, so double-run identity checks work without the log.
  std::uint64_t jobstate_digest = 0;
  std::size_t jobstate_lines = 0;

  /// "Workflow Wall Time" — the statistic Fig. 4 plots.
  [[nodiscard]] double wall_seconds() const { return end_time - start_time; }
};

/// Assembles a RunReport purely from the engine-event stream, in one of
/// two modes chosen by EngineOptions::lean_report. Both modes count the
/// same scalars from the typed events and fold each jobstate line
/// (format_jobstate_line, events.hpp), part by part, through the FNV-1a
/// fold of common::lines_digest. Full mode also stores the lines and keeps
/// the per-job roster (attempt records from kAttemptFinished, copied out
/// of the services that delivered them); lean mode stores neither and
/// builds no string per line, so report memory stays O(1) in job count.
/// The engine subscribes one per run, ahead of every other observer.
class RunReportBuilder final : public EngineObserver {
 public:
  /// Full mode copies its roster (id, transformation, kind) from
  /// `workflow`; lean mode does not read it.
  RunReportBuilder(const ConcreteWorkflow& workflow, bool lean);
  void on_event(const EngineEvent& event) override;
  /// Finalizes and returns the report. Call once, after kRunFinished.
  [[nodiscard]] RunReport take();

 private:
  RunReport report_;
  /// Per-job records indexed by dense handle (EngineEvent::job); take()
  /// emits them sorted by id. Empty in lean mode.
  std::vector<JobRun> runs_;
  std::uint64_t digest_ = common::kFnv1aOffset;  ///< streamed line digest
  bool lean_;
};

/// One re-entrant, steppable engine run: everything the drive-to-completion
/// loop used to keep in stack locals — state machine, policy, event bus,
/// in-flight deadlines, backoff RNG — owned as an object, so an external
/// driver (the WaaS fleet controller, src/waas/) can interleave many runs
/// over one shared sim::EventQueue timeline instead of each run privately
/// draining a clock to completion.
///
/// Two stepping modes:
///  * step() — one iteration of the classic blocking loop: release due
///    backoffs, submit ready jobs under the throttle, then wait on the
///    service for completions (advancing the service's clock as needed).
///    DagmanEngine::run() is exactly `while (step()) {}` +
///    take_report(), which keeps the single-workflow path byte-identical
///    to the golden fixtures.
///  * step_cooperative(budget) — never blocks and never advances the
///    clock beyond events already due: consumes completions the service
///    has delivered (ExecutionService::poll), releases due backoffs,
///    expires overdue attempt deadlines, and submits at most `budget`
///    ready jobs (the fleet's fair-share lever). The driver owns the
///    clock: it pumps the shared event queue itself and uses
///    next_deadline() to know when a quiet instance needs simulated time
///    burned for it (a cooling retry or an attempt timeout with nothing
///    else scheduled).
///
/// The workflow and service must outlive the instance; one instance is one
/// run (construct a fresh one to re-run). Not copyable or movable — the
/// embedded report builder and bus subscriptions are address-stable.
class EngineInstance {
 public:
  /// Validated `options` (see DagmanEngine's constructor), the workflow to
  /// run, the service to run it on, and optionally the rescue frontier of
  /// job ids already done in a previous run.
  EngineInstance(const EngineOptions& options, const ConcreteWorkflow& workflow,
                 ExecutionService& service,
                 const std::set<std::string>& already_done = {});
  EngineInstance(const EngineInstance&) = delete;
  EngineInstance& operator=(const EngineInstance&) = delete;

  /// One blocking iteration. Returns false once the run has finished (the
  /// terminal bookkeeping — kRunFinished, rescue file — has then already
  /// run); calling again keeps returning false.
  bool step();

  /// One non-blocking iteration; see class comment. Returns true when the
  /// step made progress (submitted a job, consumed a completion, expired a
  /// deadline, or finished the run) — drivers re-step while true, then
  /// advance the shared clock. Returns false on an already-finished run.
  bool step_cooperative(
      std::size_t submit_budget = std::numeric_limits<std::size_t>::max());

  /// True once the run has reached its terminal state.
  [[nodiscard]] bool is_done() const { return finished_; }

  /// True when step_cooperative(submit_budget) would provably do nothing —
  /// submit no job, consume no completion, expire no deadline, release no
  /// backoff, not finalize, emit no event — provided the shared event
  /// queue holds no event due at the current instant (the caller's half of
  /// the test). It is the exact negation of every branch of
  /// step_cooperative() that can act, so a cooperative driver may skip
  /// the step. Ready jobs make an engine busy only when the budget and
  /// the throttle would let one submit: a zero grant is back-pressure.
  [[nodiscard]] bool idle(
      std::size_t submit_budget = std::numeric_limits<std::size_t>::max());

  /// Finalizes and returns the report. Call once, after is_done(); throws
  /// InvalidArgument otherwise.
  RunReport take_report();

  /// Earliest future time this instance needs the clock to reach even if
  /// no queue event fires for it: pending backoff release, attempt-timeout
  /// deadline, or a completion its service is holding internally
  /// (ExecutionService::next_event_time, e.g. a chaos-delayed attempt);
  /// +inf when it is driven purely by event-queue completions.
  [[nodiscard]] double next_deadline();

  // -------------------------------------------------- fleet introspection
  /// Attempts currently submitted and not yet resolved.
  [[nodiscard]] std::size_t jobs_in_flight() const { return fsm_.submitted_count(); }
  /// Jobs released and waiting for a submission slot.
  [[nodiscard]] std::size_t ready_count() const { return fsm_.ready().size(); }
  /// Jobs in the workflow.
  [[nodiscard]] std::size_t total_jobs() const { return fsm_.size(); }

 private:
  /// Per-attempt hardening state the state machine does not own.
  struct InFlight {
    double submitted_at = 0;  ///< service time the attempt was handed over
    double deadline = 0;      ///< submitted_at + attempt timeout
    std::uint32_t list_pos = 0;  ///< position in inflight_list_ (swap-remove)
    bool active = false;
  };

  [[nodiscard]] EngineEvent job_event(EngineEventType type, std::uint32_t index);
  void inflight_add(std::uint32_t index, double at);
  void inflight_remove(std::uint32_t index);
  [[nodiscard]] bool throttled() const;
  [[nodiscard]] double next_backoff(int attempts);
  void submit_job(std::size_t position);
  /// Loop head: release due backoffs, then submit ready jobs under the
  /// throttle and `budget`. Returns the number submitted.
  std::size_t submit_ready(std::size_t budget);
  /// The blocking-wait horizon (backoff release / attempt deadline only) —
  /// exactly the pre-refactor computation, which keeps run() byte-stable.
  [[nodiscard]] double wait_horizon() const;
  void handle_attempt(std::uint32_t index, TaskAttempt attempt);
  void expire_attempt(std::uint32_t index, const InFlight& info);
  /// Matches completions to in-flight attempts by their echoed handles and
  /// feeds handle_attempt; returns true when any attempt was consumed.
  bool process_attempts(std::vector<TaskAttempt>& attempts);
  /// Expires every in-flight attempt past its deadline; true if any.
  bool expire_due();
  /// Terminal bookkeeping: kRunFinished + rescue file.
  void finalize();

  EngineOptions options_;
  const ConcreteWorkflow& workflow_;
  const IdTable& ids_;
  ExecutionService& service_;

  JobStateMachine fsm_;
  std::unique_ptr<SchedulingPolicy> default_policy_;
  SchedulingPolicy* policy_ = nullptr;
  RunReportBuilder builder_;
  std::unique_ptr<StatusBoardObserver> status_observer_;
  EventBus bus_;

  std::vector<InFlight> in_flight_;
  std::vector<std::uint32_t> inflight_list_;
  /// Attempts declared timed out whose real completion may still surface.
  std::vector<int> stale_attempts_;
  /// Node ledger, looked up by the attempts' node views (std::less<>).
  std::map<std::string, int, std::less<>> node_fail_streak_;
  std::set<std::string, std::less<>> blacklisted_;
  common::Rng backoff_rng_;
  /// The error text of every timed-out attempt; their TaskAttempt views it.
  std::string timeout_error_;
  /// Topological order: the shared frozen graph's when the workflow has
  /// one, else own_topo_, sorted once at construction.
  std::vector<std::uint32_t> own_topo_;
  std::span<const std::uint32_t> topo_;
  std::string abort_error_;
  bool timeout_on_ = false;
  bool finished_ = false;
  bool report_taken_ = false;
};

/// DAG scheduler. Stateless between runs; safe to reuse.
class DagmanEngine {
 public:
  explicit DagmanEngine(EngineOptions options = {});

  /// Runs the workflow to completion (or failure of some job past its
  /// retry budget; independent branches still run to completion first,
  /// like DAGMan).
  RunReport run(const ConcreteWorkflow& workflow, ExecutionService& service);

  /// Runs skipping jobs recorded as DONE in `rescue_file` (written by a
  /// previous failed run).
  RunReport run_rescue(const ConcreteWorkflow& workflow, ExecutionService& service,
                       const std::filesystem::path& rescue_file);

  /// Workflow-level retry (§III: "Pegasus can retry the job or the entire
  /// workflow given number of times"): runs, and on failure resumes from
  /// the rescue frontier up to `workflow_attempts` total runs. Requires
  /// options.rescue_path. Returns the last run's report; completed work is
  /// never redone.
  RunReport run_with_workflow_retries(const ConcreteWorkflow& workflow,
                                      ExecutionService& service,
                                      int workflow_attempts);

  /// Parses a rescue file into the set of done job ids. Only lines ending
  /// in a newline count: a final line without one is a cut write.
  static std::set<std::string> read_rescue_file(const std::filesystem::path& path);

 private:
  RunReport run_internal(const ConcreteWorkflow& workflow, ExecutionService& service,
                         const std::set<std::string>& already_done);

  EngineOptions options_;
};

}  // namespace pga::wms
