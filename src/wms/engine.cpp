#include "wms/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/digest.hpp"
#include "common/error.hpp"
#include "common/fsutil.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"

namespace pga::wms {

// ------------------------------------------------------ RunReportBuilder

RunReportBuilder::RunReportBuilder(const ConcreteWorkflow& workflow, bool lean)
    : lean_(lean) {
  if (lean_) return;
  runs_.reserve(workflow.jobs().size());
  for (const auto& job : workflow.jobs()) {
    JobRun run;
    run.id = job.id;
    run.transformation = job.transformation;
    run.kind = job.kind;
    runs_.push_back(std::move(run));
  }
}

void RunReportBuilder::on_event(const EngineEvent& event) {
  JobstateLine line;
  if (format_jobstate_line(event, line)) {
    // The fold matches common::lines_digest (per line, then '\n') byte for
    // byte, so lean mode fingerprints the log it never stores.
    line.for_each_part(
        [this](std::string_view part) { digest_ = common::fnv1a(digest_, part); });
    digest_ = common::fnv1a(digest_, "\n");
    ++report_.jobstate_lines;
    if (!lean_) report_.jobstate_log.push_back(line.str());
  }
  switch (event.type) {
    case EngineEventType::kRunStarted:
      report_.workflow = std::string(event.workflow);
      report_.service = std::string(event.service);
      report_.jobs_total = event.total_jobs;
      report_.start_time = event.time;
      // A clean run logs two lines per job (SUBMIT, SUCCESS); sizing the
      // vector up front avoids ~20 reallocations at million-job scale.
      if (!lean_) report_.jobstate_log.reserve(2 * event.total_jobs + 8);
      break;
    case EngineEventType::kJobRescued:
      ++report_.jobs_skipped;
      if (!lean_) {
        JobRun& run = runs_.at(event.job);
        run.succeeded = true;
        run.skipped_by_rescue = true;
      }
      break;
    case EngineEventType::kAttemptFinished:
      ++report_.total_attempts;
      if (!lean_) {
        JobRun& run = runs_.at(event.job);
        run.attempts.push_back(record_attempt(*event.result));
        if (event.success) run.succeeded = true;
      }
      break;
    case EngineEventType::kJobRetry:
      ++report_.total_retries;
      break;
    case EngineEventType::kJobBackoff:
      report_.total_backoff_seconds += event.backoff_seconds;
      if (!lean_) runs_.at(event.job).backoff_seconds += event.backoff_seconds;
      break;
    case EngineEventType::kAttemptTimedOut:
      ++report_.timed_out_attempts;
      break;
    case EngineEventType::kNodeBlacklisted:
      report_.blacklisted_nodes.emplace_back(event.node);
      break;
    case EngineEventType::kJobSucceeded:
      // Rescued jobs never emit kJobSucceeded, so they are not counted.
      ++report_.jobs_succeeded;
      break;
    case EngineEventType::kJobFailed:
      ++report_.jobs_failed;
      break;
    case EngineEventType::kRunFinished:
      report_.end_time = event.time;
      report_.success = event.success;
      break;
    default:
      break;  // kJobReady / kJobSubmitted carry no accounting
  }
}

RunReport RunReportBuilder::take() {
  report_.jobstate_digest = digest_;
  // Emit sorted by job id — the order the old map<string, JobRun> walked in.
  std::vector<std::uint32_t> by_id(runs_.size());
  std::iota(by_id.begin(), by_id.end(), 0);
  std::sort(by_id.begin(), by_id.end(), [this](std::uint32_t a, std::uint32_t b) {
    return runs_[a].id < runs_[b].id;
  });
  report_.runs.reserve(runs_.size());
  for (const std::uint32_t index : by_id) {
    report_.runs.push_back(std::move(runs_[index]));
  }
  runs_.clear();
  return std::move(report_);
}

// --------------------------------------------------------- DagmanEngine

DagmanEngine::DagmanEngine(EngineOptions options) : options_(std::move(options)) {
  if (options_.retries < 0) {
    throw common::InvalidArgument("EngineOptions.retries must be >= 0");
  }
  if (!std::isfinite(options_.attempt_timeout_seconds) ||
      !std::isfinite(options_.backoff_base_seconds) ||
      !std::isfinite(options_.backoff_max_seconds) ||
      !std::isfinite(options_.backoff_jitter)) {
    throw common::InvalidArgument(
        "EngineOptions timeout and backoff values must be finite");
  }
  if (options_.attempt_timeout_seconds < 0) {
    throw common::InvalidArgument("EngineOptions.attempt_timeout_seconds must be >= 0");
  }
  if (options_.backoff_base_seconds < 0 || options_.backoff_max_seconds < 0) {
    throw common::InvalidArgument("EngineOptions backoff seconds must be >= 0");
  }
  if (options_.backoff_base_seconds > 0 &&
      options_.backoff_max_seconds < options_.backoff_base_seconds) {
    throw common::InvalidArgument(
        "EngineOptions.backoff_max_seconds must be >= backoff_base_seconds");
  }
  if (options_.backoff_jitter < 0 || options_.backoff_jitter >= 1.0) {
    throw common::InvalidArgument("EngineOptions.backoff_jitter must be in [0, 1)");
  }
  if (options_.node_blacklist_threshold < 0) {
    throw common::InvalidArgument(
        "EngineOptions.node_blacklist_threshold must be >= 0");
  }
}

std::set<std::string> DagmanEngine::read_rescue_file(
    const std::filesystem::path& path) {
  std::set<std::string> done;
  const std::string text = common::read_file(path);
  const std::string_view view(text);
  // Every record ends in '\n', so a final line without one is a write cut
  // mid-record ("DONE run_cap3_10" cut to "DONE run_cap3_1"): drop it.
  std::size_t begin = 0;
  std::size_t end = 0;
  while ((end = view.find('\n', begin)) != std::string_view::npos) {
    const auto fields = common::split_ws(view.substr(begin, end - begin));
    if (fields.size() == 2 && fields[0] == "DONE") done.insert(fields[1]);
    begin = end + 1;
  }
  return done;
}

RunReport DagmanEngine::run(const ConcreteWorkflow& workflow,
                            ExecutionService& service) {
  return run_internal(workflow, service, {});
}

RunReport DagmanEngine::run_rescue(const ConcreteWorkflow& workflow,
                                   ExecutionService& service,
                                   const std::filesystem::path& rescue_file) {
  return run_internal(workflow, service, read_rescue_file(rescue_file));
}

RunReport DagmanEngine::run_with_workflow_retries(const ConcreteWorkflow& workflow,
                                                  ExecutionService& service,
                                                  int workflow_attempts) {
  if (workflow_attempts < 1) {
    throw common::InvalidArgument("workflow_attempts must be >= 1");
  }
  if (!options_.rescue_path.has_value()) {
    throw common::InvalidArgument(
        "run_with_workflow_retries requires options.rescue_path");
  }
  RunReport report = run(workflow, service);
  for (int attempt = 1; !report.success && attempt < workflow_attempts; ++attempt) {
    common::log_info() << "workflow " << workflow.name() << " failed; resuming from "
                       << options_.rescue_path->string() << " (attempt "
                       << attempt + 1 << "/" << workflow_attempts << ")";
    report = run_rescue(workflow, service, *options_.rescue_path);
  }
  return report;
}

RunReport DagmanEngine::run_internal(const ConcreteWorkflow& workflow,
                                     ExecutionService& service,
                                     const std::set<std::string>& already_done) {
  EngineInstance instance(options_, workflow, service, already_done);
  while (instance.step()) {
  }
  return instance.take_report();
}

// -------------------------------------------------------- EngineInstance

namespace {
/// Simultaneity slack shared by deadline and release comparisons.
constexpr double kEps = 1e-9;
}  // namespace

EngineInstance::EngineInstance(const EngineOptions& options,
                               const ConcreteWorkflow& workflow,
                               ExecutionService& service,
                               const std::set<std::string>& already_done)
    : options_(options),
      workflow_(workflow),
      ids_(workflow.ids()),
      service_(service),
      fsm_(workflow),
      builder_(workflow, options.lean_report),
      in_flight_(workflow.jobs().size()),
      stale_attempts_(workflow.jobs().size(), 0),
      backoff_rng_(options.backoff_seed),
      timeout_error_("attempt timed out after " +
                     common::format_fixed(options.attempt_timeout_seconds, 3) + " s"),
      timeout_on_(options.attempt_timeout_seconds > 0) {
  const std::size_t total_jobs = workflow_.jobs().size();

  policy_ = options_.policy.get();
  if (policy_ == nullptr) {
    default_policy_ = fifo_policy();
    policy_ = default_policy_.get();
  }
  policy_->prepare(workflow_);

  // The report builder sees every event first. Lean mode never allocates
  // the roster or the stored log (the roster alone is ~100 B/job — at 10^7
  // jobs that is a gigabyte the report cannot afford).
  bus_.subscribe(&builder_);
  if (options_.status != nullptr) {
    status_observer_ = std::make_unique<StatusBoardObserver>(*options_.status);
    bus_.subscribe(status_observer_.get());
  }
  for (EngineObserver* observer : options_.observers) bus_.subscribe(observer);

  {
    // label() returns by value; the view in the event must outlive emit().
    const std::string service_label = service_.label();
    EngineEvent started;
    started.type = EngineEventType::kRunStarted;
    started.time = service_.now();
    started.workflow = workflow_.name();
    started.service = service_label;
    started.total_jobs = total_jobs;
    bus_.emit(started);
  }

  // Resolve the rescue frontier onto dense handles (ids the workflow does
  // not know are ignored, as the string-keyed lookups always did).
  std::vector<char> rescued(total_jobs, 0);
  for (const auto& id : already_done) {
    const std::uint32_t index = ids_.find(id);
    if (index != IdTable::kInvalid) rescued[index] = 1;
  }

  // Seed with rescued jobs: they complete instantly without attempts, then
  // release their children in topological order so rescued chains seed
  // correctly; finally the untouched roots join the ready queue. A
  // replayed plan's order comes sorted from its shared frozen graph.
  if (const auto& frozen = workflow_.frozen_graph()) {
    topo_ = frozen->topological_order();
  } else {
    own_topo_ = workflow_.topological_order_indices();
    topo_ = own_topo_;
  }
  for (const std::uint32_t index : topo_) {
    if (rescued[index]) {
      fsm_.mark_skipped(index);
      bus_.emit(job_event(EngineEventType::kJobRescued, index));
    }
  }
  for (const std::uint32_t index : topo_) {
    if (!rescued[index]) continue;
    for (const std::uint32_t child : fsm_.release_children(index)) {
      bus_.emit(job_event(EngineEventType::kJobReady, child));
    }
  }
  for (const std::uint32_t index : topo_) {
    if (!rescued[index]) fsm_.seed_root(index);
  }
}

EngineEvent EngineInstance::job_event(EngineEventType type, std::uint32_t index) {
  EngineEvent event;
  event.type = type;
  event.time = service_.now();
  event.job = index;
  event.job_id = ids_.name(index);
  return event;
}

// Dense slots by handle plus a compact list of active handles, so the
// per-wake deadline scan is O(#in-flight) without any string keys.
void EngineInstance::inflight_add(std::uint32_t index, double at) {
  InFlight& slot = in_flight_[index];
  slot.submitted_at = at;
  slot.deadline = at + options_.attempt_timeout_seconds;
  slot.list_pos = static_cast<std::uint32_t>(inflight_list_.size());
  slot.active = true;
  inflight_list_.push_back(index);
}

void EngineInstance::inflight_remove(std::uint32_t index) {
  InFlight& slot = in_flight_[index];
  const std::uint32_t pos = slot.list_pos;
  const std::uint32_t last = inflight_list_.back();
  inflight_list_[pos] = last;
  in_flight_[last].list_pos = pos;
  inflight_list_.pop_back();
  slot.active = false;
}

bool EngineInstance::throttled() const {
  return options_.max_jobs_in_flight != 0 &&
         fsm_.submitted_count() >= options_.max_jobs_in_flight;
}

// Cool-off before the next retry (all `attempts` submissions so far have
// failed). Exponential in the retry index, capped, with deterministic
// downward jitter.
double EngineInstance::next_backoff(int attempts) {
  if (options_.backoff_base_seconds <= 0) return 0;
  const int retry_index = std::max(1, attempts);  // 1 => first retry
  double delay = options_.backoff_base_seconds *
                 std::pow(2.0, static_cast<double>(retry_index - 1));
  delay = std::min(delay, options_.backoff_max_seconds);
  if (options_.backoff_jitter > 0) {
    delay *= 1.0 - options_.backoff_jitter * backoff_rng_.uniform();
  }
  return delay;
}

void EngineInstance::submit_job(std::size_t position) {
  const std::uint32_t index = fsm_.take_ready(position);
  EngineEvent event = job_event(EngineEventType::kJobSubmitted, index);
  event.attempt = fsm_.attempts(index);
  bus_.emit(event);
  inflight_add(index, service_.now());
  service_.submit(workflow_.job_at(index));
}

std::size_t EngineInstance::submit_ready(std::size_t budget) {
  fsm_.release_due(service_.now(), kEps);
  std::size_t submitted = 0;
  while (fsm_.has_ready() && !throttled() && submitted < budget) {
    submit_job(policy_->pick(fsm_.ready()));
    ++submitted;
  }
  return submitted;
}

// One attempt outcome (real or synthesized) flows through here.
void EngineInstance::handle_attempt(std::uint32_t index, TaskAttempt attempt) {
  // Node ledger: consecutive failures blacklist a node; success clears it.
  if (options_.node_blacklist_threshold > 0 && !attempt.node.empty()) {
    auto streak = node_fail_streak_.find(attempt.node);
    if (streak == node_fail_streak_.end()) {
      streak = node_fail_streak_.emplace(attempt.node, 0).first;
    }
    if (attempt.success) {
      streak->second = 0;
    } else if (!blacklisted_.contains(attempt.node) &&
               ++streak->second >= options_.node_blacklist_threshold) {
      blacklisted_.emplace(attempt.node);
      service_.avoid_node(streak->first);
      EngineEvent event = job_event(EngineEventType::kNodeBlacklisted, index);
      event.node = attempt.node;
      bus_.emit(event);
      common::log_warn() << "node " << attempt.node << " blacklisted after "
                         << options_.node_blacklist_threshold
                         << " consecutive failures";
    }
  }
  {
    EngineEvent event = job_event(EngineEventType::kAttemptFinished, index);
    event.attempt = fsm_.attempts(index);
    event.success = attempt.success;
    event.result = &attempt;
    bus_.emit(event);
  }
  if (attempt.success) {
    fsm_.mark_done(index);
    bus_.emit(job_event(EngineEventType::kJobSucceeded, index));
    for (const std::uint32_t child : fsm_.release_children(index)) {
      bus_.emit(job_event(EngineEventType::kJobReady, child));
    }
  } else if (fsm_.attempts(index) <= options_.retries) {
    EngineEvent event = job_event(EngineEventType::kJobRetry, index);
    event.attempt = fsm_.attempts(index);
    bus_.emit(event);
    common::log_debug() << "job " << ids_.name(index) << " failed ("
                        << attempt.error << "), retrying";
    const double delay = next_backoff(fsm_.attempts(index));
    if (delay > 0) {
      EngineEvent backoff = job_event(EngineEventType::kJobBackoff, index);
      backoff.backoff_seconds = delay;
      bus_.emit(backoff);
      fsm_.start_backoff(index, service_.now() + delay);
    } else {
      fsm_.requeue(index);
    }
    bus_.emit(job_event(EngineEventType::kJobReady, index));
  } else {
    EngineEvent event = job_event(EngineEventType::kJobFailed, index);
    event.error = attempt.error;
    bus_.emit(event);
    common::log_warn() << "job " << ids_.name(index)
                       << " exhausted retries: " << attempt.error;
    fsm_.mark_failed(index);
    // Children of a dead job can never run; DAGMan keeps running the
    // independent frontier, which this loop does naturally.
  }
}

// Declares the outstanding attempt of `index` dead by timeout.
void EngineInstance::expire_attempt(std::uint32_t index, const InFlight& info) {
  TaskAttempt timed_out;
  timed_out.job = index;
  timed_out.success = false;
  timed_out.error = timeout_error_;
  timed_out.submit_time = info.submitted_at;
  timed_out.end_time = service_.now();
  ++stale_attempts_[index];
  EngineEvent event = job_event(EngineEventType::kAttemptTimedOut, index);
  event.attempt = fsm_.attempts(index);
  event.error = timed_out.error;
  bus_.emit(event);
  handle_attempt(index, std::move(timed_out));
}

bool EngineInstance::process_attempts(std::vector<TaskAttempt>& attempts) {
  const std::size_t total_jobs = workflow_.jobs().size();
  bool progress = false;
  for (auto& attempt : attempts) {
    // Every service echoes the handle it was submitted: it names the job.
    const std::uint32_t index = attempt.job;
    const bool known = index < total_jobs;
    const bool current = known && in_flight_[index].active &&
                         attempt.submit_time + kEps >= in_flight_[index].submitted_at;
    if (!current) {
      // A completion for an attempt we already wrote off (timed out), or
      // one we never submitted: drop it rather than corrupt accounting.
      if (known && stale_attempts_[index] > 0) --stale_attempts_[index];
      common::log_debug() << "dropping stale completion for "
                          << (known ? ids_.name(index) : std::string_view("unknown handle"));
      continue;
    }
    inflight_remove(index);
    handle_attempt(index, std::move(attempt));
    progress = true;
  }
  return progress;
}

bool EngineInstance::expire_due() {
  // Expire every in-flight attempt whose deadline has passed, in
  // id-lexicographic order — the old map<string, InFlight> walk.
  std::vector<std::uint32_t> expired;
  for (const std::uint32_t index : inflight_list_) {
    if (in_flight_[index].deadline <= service_.now() + kEps) {
      expired.push_back(index);
    }
  }
  std::sort(expired.begin(), expired.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return ids_.name(a) < ids_.name(b);
            });
  for (const std::uint32_t index : expired) {
    const InFlight info = in_flight_[index];
    inflight_remove(index);
    expire_attempt(index, info);
  }
  return !expired.empty();
}

double EngineInstance::wait_horizon() const {
  // The earliest attempt deadline or retry release. With neither feature
  // active this stays infinite: the instance only needs completions.
  double horizon = fsm_.earliest_release();
  if (timeout_on_) {
    for (const std::uint32_t index : inflight_list_) {
      horizon = std::min(horizon, in_flight_[index].deadline);
    }
  }
  return horizon;
}

double EngineInstance::next_deadline() {
  // For an external clock owner the service's internally-held completions
  // (e.g. chaos delays) fence the advance too; the blocking step() keeps
  // using the bare wait_horizon() so run() stays byte-stable.
  return std::min(wait_horizon(), service_.next_event_time());
}

bool EngineInstance::step() {
  if (finished_) return false;
  submit_ready(std::numeric_limits<std::size_t>::max());
  if (fsm_.submitted_count() == 0 && !fsm_.any_cooling()) {
    finalize();
    return false;
  }

  // Wait horizon: the earliest attempt deadline or retry release. With
  // neither feature active this stays infinite and we use the plain
  // blocking wait exactly as before.
  const double horizon = wait_horizon();

  std::vector<TaskAttempt> attempts;
  try {
    if (std::isinf(horizon)) {
      attempts = service_.wait();
      if (attempts.empty() && fsm_.submitted_count() > 0) {
        throw common::WorkflowError("execution service returned no completions");
      }
    } else {
      attempts = service_.wait_for(std::max(0.0, horizon - service_.now()));
    }
  } catch (const common::SimulationError& err) {
    // The simulator aborted the run (event budget exhausted); the partial
    // report is finalized as a failure carrying this diagnostic.
    abort_error_ = err.what();
    common::log_warn() << "run aborted by simulator: " << abort_error_;
    finalize();
    return false;
  }

  bool progress = process_attempts(attempts);
  if (timeout_on_) progress |= expire_due();

  if (!progress && attempts.empty() && !std::isinf(horizon) &&
      service_.now() + kEps < horizon) {
    // The service could not advance its clock to the horizon (a bare
    // stub without wait_for support). Force the earliest horizon item
    // through so the run can never wedge: either release the coolest
    // retry or expire the next deadline at the current clock.
    if (fsm_.any_cooling() && fsm_.earliest_release() <= horizon + kEps) {
      fsm_.force_release_earliest();
    } else if (timeout_on_ && !inflight_list_.empty()) {
      // Earliest deadline; ties go to the smaller id, as the old
      // id-ordered map scan with strict less produced.
      std::uint32_t victim = inflight_list_.front();
      for (const std::uint32_t index : inflight_list_) {
        if (index == victim) continue;
        const double d = in_flight_[index].deadline;
        const double best = in_flight_[victim].deadline;
        if (d < best || (d == best && ids_.name(index) < ids_.name(victim))) {
          victim = index;
        }
      }
      const InFlight info = in_flight_[victim];
      inflight_remove(victim);
      expire_attempt(victim, info);
    }
  }
  return true;
}

bool EngineInstance::step_cooperative(std::size_t submit_budget) {
  if (finished_) return false;
  const std::size_t submitted = submit_ready(submit_budget);
  // Quiescent only when no work is queued either: unlike the blocking
  // step(), a zero/exhausted budget can leave ready jobs unsubmitted
  // here, and that is back-pressure, not completion.
  if (fsm_.submitted_count() == 0 && !fsm_.any_cooling() && !fsm_.has_ready()) {
    finalize();
    return true;  // reaching the terminal state is progress
  }

  // Consume only what the service has already delivered; the external
  // driver owns the clock, so a quiet step simply returns false and the
  // driver pumps the shared event queue (bounded by next_deadline()).
  std::vector<TaskAttempt> attempts = service_.poll();
  bool progress = process_attempts(attempts);
  if (timeout_on_) progress |= expire_due();
  return progress || submitted > 0;
}

bool EngineInstance::idle(std::size_t submit_budget) {
  if (finished_) return false;
  if (fsm_.has_ready()) {
    if (submit_budget > 0 && !throttled()) return false;  // would submit
  } else if (fsm_.submitted_count() == 0 && !fsm_.any_cooling()) {
    return false;  // nothing left at all: the step would finalize the run
  }
  // The release and expiry tests of submit_ready() and expire_due().
  const double now = service_.now();
  if (fsm_.earliest_release() <= now + kEps) return false;
  if (timeout_on_) {
    for (const std::uint32_t index : inflight_list_) {
      if (in_flight_[index].deadline <= now + kEps) return false;
    }
  }
  return service_.quiet();
}

void EngineInstance::finalize() {
  {
    EngineEvent finished;
    finished.type = EngineEventType::kRunFinished;
    finished.time = service_.now();
    finished.success =
        abort_error_.empty() && fsm_.done_count() == workflow_.jobs().size();
    bus_.emit(finished);
  }
  const bool success =
      abort_error_.empty() && fsm_.done_count() == workflow_.jobs().size();
  if (!success && options_.rescue_path.has_value()) {
    std::ostringstream os;
    os << "# rescue DAG for " << workflow_.name() << "\n";
    for (const std::uint32_t index : topo_) {
      const SchedState state = fsm_.state(index);
      if (state == SchedState::kDone || state == SchedState::kSkipped) {
        os << "DONE " << ids_.name(index) << "\n";
      }
    }
    common::write_file(*options_.rescue_path, os.str());
    common::log_info() << "wrote rescue file to " << options_.rescue_path->string();
  }
  finished_ = true;
}

RunReport EngineInstance::take_report() {
  if (!finished_) {
    throw common::InvalidArgument("EngineInstance::take_report before is_done()");
  }
  if (report_taken_) {
    throw common::InvalidArgument("EngineInstance::take_report called twice");
  }
  report_taken_ = true;
  RunReport report = builder_.take();
  report.error = abort_error_;
  return report;
}

}  // namespace pga::wms
