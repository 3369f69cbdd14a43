#include "sim/platform.hpp"

#include <cmath>

#include "common/error.hpp"

namespace pga::sim {

void ExecutionPlatform::check_job(const char* platform, const SimJob& job) {
  // Checked before any state changes: a bad cost that reached dispatch
  // would take a slot, then throw from schedule_in() and never free it.
  if (!std::isfinite(job.cpu_seconds) || job.cpu_seconds < 0) {
    throw common::InvalidArgument(std::string(platform) + ": job '" + job.id +
                                  "' has invalid cpu_seconds (" +
                                  std::to_string(job.cpu_seconds) + ")");
  }
}

std::uint32_t ExecutionPlatform::open_attempt(SimJob&& job, AttemptCallback&& on_complete,
                                              double submit_time) {
  const std::uint32_t slot = attempts_.acquire();
  attempts_[slot] = AttemptRecord{
      .job = std::move(job), .on_complete = std::move(on_complete), .submit_time = submit_time};
  return slot;
}

void ExecutionPlatform::deliver(std::uint32_t slot) {
  AttemptRecord& record = attempts_[slot];
  AttemptResult result;
  result.job_id = std::move(record.job.id);
  result.transformation = std::move(record.job.transformation);
  result.node = *record.node;
  result.submit_time = record.submit_time;
  result.start_time = record.start_time;
  result.end_time = record.end_time;
  result.wait_seconds = record.start_time - record.submit_time;
  result.install_seconds = record.install_seconds;
  result.exec_seconds = record.exec_seconds;
  result.success = record.failure == nullptr;
  result.install_cache_hit = record.install_cache_hit;
  if (record.failure != nullptr) result.failure = record.failure;
  AttemptCallback on_complete = std::move(record.on_complete);
  attempts_.release(slot);
  on_complete(std::move(result));
}

void ExecutionPlatform::require_finite(const char* platform, const char* field, double value) {
  if (!std::isfinite(value)) {
    throw common::InvalidArgument(std::string(platform) + ": " + field +
                                  " must be finite");
  }
}

}  // namespace pga::sim
