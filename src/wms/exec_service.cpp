#include "wms/exec_service.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "common/error.hpp"

namespace pga::wms {

// ---------------------------------------------------------- LocalService

LocalService::LocalService(std::size_t slots, JobRunner runner)
    : runner_(std::move(runner)), pool_(slots) {
  if (!runner_) throw common::InvalidArgument("LocalService: null runner");
}

void LocalService::submit(const ConcreteJob& job) {
  {
    const std::scoped_lock lock(mutex_);
    ++outstanding_;
  }
  const double submit_time = clock_.seconds();
  // The pool's future is dropped unread: the task catches every exception
  // and delivers its completion through completed_ instead.
  (void)pool_.submit([this, job, submit_time] {
    TaskAttempt attempt;
    attempt.job = job.index;
    attempt.node = "local";
    attempt.submit_time = submit_time;
    const double start = clock_.seconds();
    attempt.wait_seconds = start - submit_time;
    std::string error;
    try {
      runner_(job);
      attempt.success = true;
    } catch (const std::exception& e) {
      error = e.what();
    } catch (...) {
      error = "unknown exception";
    }
    attempt.end_time = clock_.seconds();
    attempt.exec_seconds = attempt.end_time - start;
    {
      const std::scoped_lock lock(mutex_);
      if (!attempt.success) attempt.error = errors_.emplace_back(std::move(error));
      completed_.push_back(attempt);
      --outstanding_;
    }
    cv_.notify_all();
  });
}

std::vector<TaskAttempt> LocalService::drain_locked() {
  std::vector<TaskAttempt> out(std::make_move_iterator(completed_.begin()),
                               std::make_move_iterator(completed_.end()));
  completed_.clear();
  return out;
}

std::vector<TaskAttempt> LocalService::wait() {
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [this] { return !completed_.empty() || outstanding_ == 0; });
  return drain_locked();
}

std::vector<TaskAttempt> LocalService::wait_for(double timeout_seconds) {
  std::unique_lock lock(mutex_);
  // Unlike wait(), sleep out the full deadline even with nothing
  // outstanding: a decorator above us may have swallowed the attempt (a
  // hung job), and the engine relies on this call consuming wall time.
  cv_.wait_for(lock, std::chrono::duration<double>(std::max(0.0, timeout_seconds)),
               [this] { return !completed_.empty(); });
  return drain_locked();
}

double LocalService::now() { return clock_.seconds(); }

RecordedAttempt record_attempt(const TaskAttempt& attempt) {
  RecordedAttempt kept;
  kept.job = attempt.job;
  kept.success = attempt.success;
  kept.error = attempt.error;
  kept.node = attempt.node;
  kept.submit_time = attempt.submit_time;
  kept.end_time = attempt.end_time;
  kept.wait_seconds = attempt.wait_seconds;
  kept.install_seconds = attempt.install_seconds;
  kept.exec_seconds = attempt.exec_seconds;
  kept.install_cache_hit = attempt.install_cache_hit;
  kept.transferred_bytes = attempt.transferred_bytes;
  kept.transfer_attempts = attempt.transfer_attempts;
  return kept;
}

// ------------------------------------------------------------ SimService

SimService::SimService(sim::EventQueue& queue, sim::ExecutionPlatform& platform)
    : queue_(queue), platform_(platform), sink_(platform.add_sink(*this)) {}

SimService::~SimService() { platform_.remove_sink(sink_); }

void SimService::submit(const ConcreteJob& job) {
  const sim::SimJob sim_job{.job = job.index,
                            .transformation = job.transformation,
                            .cpu_seconds = job.cpu_seconds_hint,
                            .software_bytes = job.software_bytes,
                            .needs_software_setup = job.needs_software_setup};
  try {
    platform_.submit(sink_, sim_job);
  } catch (const common::InvalidArgument& err) {
    // The platform knows the job by handle only; name it for the caller.
    throw common::InvalidArgument(std::string(err.what()) + " (job '" + job.id + "')");
  }
  // Counted only once the platform accepted the job: a rejected submit
  // leaves nothing outstanding.
  ++outstanding_;
}

void SimService::on_attempt(const sim::AttemptResult& result) {
  if (completed_.capacity() == 0) completed_.reserve(last_batch_);
  TaskAttempt& attempt = completed_.emplace_back();
  attempt.job = result.job;
  attempt.success = result.success;
  attempt.error = result.failure;
  attempt.node = result.node;
  attempt.submit_time = result.submit_time;
  attempt.end_time = result.end_time;
  attempt.wait_seconds = result.wait_seconds;
  attempt.install_seconds = result.install_seconds;
  attempt.exec_seconds = result.exec_seconds;
  attempt.install_cache_hit = result.install_cache_hit;
  --outstanding_;
  if (delivered_ != nullptr) *delivered_ = 1;
}

void SimService::pump(std::optional<double> deadline) {
  if (!deadline.has_value()) {
    // Advance simulated time until at least one completion lands.
    while (completed_.empty() && outstanding_ > 0) {
      if (!queue_.step()) {
        throw common::WorkflowError(
            "simulation deadlock: outstanding jobs but no pending events");
      }
    }
    return;
  }
  while (completed_.empty()) {
    const auto next = queue_.next_time();
    if (!next.has_value() || *next > *deadline) break;
    queue_.step();
  }
  if (completed_.empty()) {
    // Nothing landed by the deadline: burn the remaining simulated time so
    // the engine's clock reaches it (even when nothing is scheduled at all,
    // e.g. every outstanding attempt was swallowed by a fault injector).
    queue_.advance_to(*deadline);
  }
}

std::vector<TaskAttempt> SimService::take_completed() {
  if (!completed_.empty()) last_batch_ = completed_.size();
  return std::exchange(completed_, {});
}

std::vector<TaskAttempt> SimService::wait() {
  pump(std::nullopt);
  return take_completed();
}

std::vector<TaskAttempt> SimService::wait_for(double timeout_seconds) {
  pump(queue_.now() + std::max(0.0, timeout_seconds));
  return take_completed();
}

double SimService::now() { return queue_.now(); }

}  // namespace pga::wms
