#include "wms/events.hpp"

#include <string>

#include "common/strings.hpp"

namespace pga::wms {

const char* engine_event_name(EngineEventType type) {
  switch (type) {
    case EngineEventType::kRunStarted: return "RUN_STARTED";
    case EngineEventType::kJobRescued: return "RESCUED";
    case EngineEventType::kJobReady: return "READY";
    case EngineEventType::kJobSubmitted: return "SUBMIT";
    case EngineEventType::kAttemptFinished: return "ATTEMPT_FINISHED";
    case EngineEventType::kJobRetry: return "RETRY";
    case EngineEventType::kJobBackoff: return "BACKOFF";
    case EngineEventType::kAttemptTimedOut: return "TIMEOUT";
    case EngineEventType::kNodeBlacklisted: return "BLACKLIST";
    case EngineEventType::kJobSucceeded: return "SUCCESS";
    case EngineEventType::kJobFailed: return "FAILED";
    case EngineEventType::kRunFinished: return "RUN_FINISHED";
  }
  return "?";
}

void EventBus::subscribe(EngineObserver* observer) {
  if (observer != nullptr) observers_.push_back(observer);
}

void EventBus::emit(const EngineEvent& event) {
  for (EngineObserver* observer : observers_) observer->on_event(event);
}

bool format_jobstate_line(const EngineEvent& event, std::string& line) {
  std::string_view text;
  std::string_view suffix;  // only BLACKLIST carries one (the node)
  switch (event.type) {
    case EngineEventType::kJobRescued: text = "RESCUED"; break;
    case EngineEventType::kJobSubmitted:
      text = event.attempt == 1 ? "SUBMIT" : "RETRY";
      break;
    case EngineEventType::kJobSucceeded: text = "SUCCESS"; break;
    case EngineEventType::kJobBackoff: text = "BACKOFF"; break;
    case EngineEventType::kJobFailed: text = "FAILED"; break;
    case EngineEventType::kAttemptTimedOut: text = "TIMEOUT"; break;
    case EngineEventType::kNodeBlacklisted:
      text = "BLACKLIST";
      suffix = event.node;
      break;
    default: return false;  // not a jobstate line
  }
  // One string build, no stringstream: this runs once per logged event and
  // dominated the observer fan-out's allocation profile at scale.
  line = common::format_fixed(event.time, 3);
  line.reserve(line.size() + event.job_id.size() + text.size() + suffix.size() + 3);
  line += ' ';
  line += event.job_id;
  line += ' ';
  line += text;
  if (!suffix.empty()) {
    line += ' ';
    line += suffix;
  }
  return true;
}

void StatusBoardObserver::on_event(const EngineEvent& event) {
  switch (event.type) {
    case EngineEventType::kRunStarted:
      board_->begin(std::string(event.workflow), event.total_jobs);
      break;
    case EngineEventType::kJobRescued:
      board_->set_state(std::string(event.job_id), JobState::kRescued);
      break;
    case EngineEventType::kJobReady:
      board_->set_state(std::string(event.job_id), JobState::kReady);
      break;
    case EngineEventType::kJobSubmitted:
      board_->set_state(std::string(event.job_id), JobState::kSubmitted);
      break;
    case EngineEventType::kJobRetry:
      board_->count_retry();
      break;
    case EngineEventType::kAttemptFinished:
      // Data-layer telemetry; both fields are zero/false without the cache
      // and staging models, leaving stock snapshots untouched.
      if (event.result != nullptr) {
        if (event.result->install_cache_hit) board_->count_cache_hit();
        if (event.result->transferred_bytes > 0) {
          board_->add_staged_bytes(event.result->transferred_bytes);
        }
      }
      break;
    case EngineEventType::kAttemptTimedOut:
      board_->count_timeout();
      break;
    case EngineEventType::kJobSucceeded:
      board_->set_state(std::string(event.job_id), JobState::kSucceeded);
      break;
    case EngineEventType::kJobFailed:
      board_->set_state(std::string(event.job_id), JobState::kFailed);
      break;
    default:
      break;
  }
}

}  // namespace pga::wms
