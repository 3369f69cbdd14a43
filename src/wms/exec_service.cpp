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
    attempt.job_id = job.id;
    attempt.job = job.index;
    attempt.transformation = job.transformation;
    attempt.node = "local";
    attempt.submit_time = submit_time;
    const double start = clock_.seconds();
    attempt.wait_seconds = start - submit_time;
    try {
      runner_(job);
      attempt.success = true;
    } catch (const std::exception& e) {
      attempt.success = false;
      attempt.error = e.what();
    } catch (...) {
      attempt.success = false;
      attempt.error = "unknown exception";
    }
    attempt.end_time = clock_.seconds();
    attempt.exec_seconds = attempt.end_time - start;
    {
      const std::scoped_lock lock(mutex_);
      completed_.push_back(std::move(attempt));
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

// ------------------------------------------------------------ SimService

SimService::SimService(sim::EventQueue& queue, sim::ExecutionPlatform& platform)
    : queue_(queue), platform_(platform) {}

void SimService::submit(const ConcreteJob& job) {
  sim::SimJob sim_job;
  sim_job.id = job.id;
  sim_job.transformation = job.transformation;
  sim_job.cpu_seconds = job.cpu_seconds_hint;
  sim_job.needs_software_setup = job.needs_software_setup;
  sim_job.software_bytes = job.software_bytes;
  // The result's strings are moved, not copied, into the TaskAttempt.
  platform_.submit(std::move(sim_job), [this, index = job.index](sim::AttemptResult&& result) {
    TaskAttempt& attempt = completed_.emplace_back();
    attempt.job_id = std::move(result.job_id);
    attempt.job = index;
    attempt.transformation = std::move(result.transformation);
    attempt.success = result.success;
    attempt.error = std::move(result.failure);
    attempt.node = std::move(result.node);
    attempt.submit_time = result.submit_time;
    attempt.end_time = result.end_time;
    attempt.wait_seconds = result.wait_seconds;
    attempt.install_seconds = result.install_seconds;
    attempt.exec_seconds = result.exec_seconds;
    attempt.install_cache_hit = result.install_cache_hit;
    --outstanding_;
    if (delivered_ != nullptr) *delivered_ = 1;
  });
  // Counted only once the platform accepted the job: a rejected submit
  // leaves nothing outstanding.
  ++outstanding_;
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
