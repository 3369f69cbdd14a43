// The engine's typed event stream.
//
// Every observable thing DagmanEngine does — a job released, an attempt
// submitted or finished, a retry cooled off, a node blacklisted, the run
// starting or finishing — is published as one EngineEvent on an EventBus.
// RunReportBuilder (engine.hpp) assembles the RunReport, jobstate log
// included, from that one stream; the StatusBoard and any caller-supplied
// observers see the same events. The statistics and trace writers read the
// finished RunReport.
//
// Event-emission order is part of the engine's contract: under the default
// FIFO policy the jobstate lines reproduce the pre-refactor jobstate log
// byte-for-byte (tests/wms_golden_log_test.cpp pins this).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "wms/exec_service.hpp"
#include "wms/id_table.hpp"
#include "wms/status.hpp"

namespace pga::wms {

/// What happened. Doc comments note which optional fields are set.
enum class EngineEventType {
  kRunStarted,      ///< workflow, service, total_jobs
  kJobRescued,      ///< job_id — completed in a previous run, skipped here
  kJobReady,        ///< job_id — all parents done (or retry rescheduled)
  kJobSubmitted,    ///< job_id, attempt (1-based)
  kAttemptFinished, ///< job_id, attempt, result, success
  kJobRetry,        ///< job_id, attempt — failed attempt will be retried
  kJobBackoff,      ///< job_id, backoff_seconds — cooling before the retry
  kAttemptTimedOut, ///< job_id, attempt — engine wrote the attempt off
  kNodeBlacklisted, ///< job_id (the attempt that tripped it), node
  kJobSucceeded,    ///< job_id
  kJobFailed,       ///< job_id, error — retry budget exhausted
  kRunFinished,     ///< success
};

/// Short label ("SUBMIT", "SUCCESS", ...) as used in the jobstate log.
const char* engine_event_name(EngineEventType type);

/// One engine event. `time` is always the service clock at emission.
///
/// Events are deliberately flat and copy-free: the job is carried as its
/// dense workflow handle plus a string_view into the workflow's IdTable, and
/// the other text fields are views into engine-owned storage. All views are
/// valid only during the observer callback (like `result` always was);
/// observers that keep text must copy it. At million-job scale this saves
/// 4+ string allocations per event across the fan-out.
struct EngineEvent {
  /// Sentinel `job` value for run-level events (== IdTable::kInvalid).
  static constexpr std::uint32_t kNoJob = IdTable::kInvalid;

  EngineEventType type = EngineEventType::kRunStarted;
  double time = 0;
  std::uint32_t job = kNoJob;    ///< dense job handle; kNoJob for run-level
  std::string_view job_id;       ///< spelling of `job`; empty for run-level
  int attempt = 0;               ///< 1-based attempt number, 0 if n/a
  bool success = false;          ///< kAttemptFinished / kRunFinished
  const TaskAttempt* result = nullptr;  ///< kAttemptFinished only; valid
                                        ///< only during the callback
  double backoff_seconds = 0;    ///< kJobBackoff
  std::string_view node;         ///< kNodeBlacklisted
  std::string_view error;        ///< kJobFailed / kAttemptTimedOut detail
  std::string_view workflow;     ///< kRunStarted
  std::string_view service;      ///< kRunStarted
  std::size_t total_jobs = 0;    ///< kRunStarted
};

/// Observer interface. Callbacks run synchronously on the engine's thread,
/// in emission order; implementations must not re-enter the engine.
class EngineObserver {
 public:
  virtual ~EngineObserver() = default;
  virtual void on_event(const EngineEvent& event) = 0;
};

/// A plain synchronous fan-out bus. Observers are borrowed, not owned.
class EventBus {
 public:
  void subscribe(EngineObserver* observer);
  void emit(const EngineEvent& event);
  [[nodiscard]] std::size_t observer_count() const { return observers_.size(); }

 private:
  std::vector<EngineObserver*> observers_;
};

/// Formats the DAGMan-style jobstate line ("<t> <job> <EVENT>") for
/// `event` into `line`; returns false (leaving `line` untouched) for event
/// types that don't produce one. Exactly the events the pre-refactor engine
/// logged become lines: RESCUED, SUBMIT/RETRY, SUCCESS, BACKOFF, FAILED,
/// TIMEOUT, BLACKLIST <node>. RunReportBuilder hashes (and in full mode
/// stores) every line it returns.
bool format_jobstate_line(const EngineEvent& event, std::string& line);

/// Adapts a StatusBoard to the event stream (begin, set_state, retry/
/// timeout counters, and the data layer's cache-hit and staged-bytes
/// telemetry) — the pegasus-status consumer.
class StatusBoardObserver final : public EngineObserver {
 public:
  /// `board` must outlive the observer.
  explicit StatusBoardObserver(StatusBoard& board) : board_(&board) {}
  void on_event(const EngineEvent& event) override;

 private:
  StatusBoard* board_;
};

}  // namespace pga::wms
