#include "sim/platform.hpp"

#include <cmath>

#include "common/error.hpp"

namespace pga::sim {

std::string_view failure_text(AttemptFailure failure) {
  switch (failure) {
    case AttemptFailure::kNone: return {};
    case AttemptFailure::kPreempted: return "preempted";
  }
  return "failed";
}

SinkId ExecutionPlatform::add_sink(CompletionSink& sink) {
  SinkId id;
  if (!free_sinks_.empty()) {
    id = free_sinks_.back();
    free_sinks_.pop_back();
  } else {
    id = static_cast<SinkId>(sinks_.size());
    sinks_.emplace_back();
  }
  sinks_[id].sink = &sink;
  return id;
}

void ExecutionPlatform::remove_sink(SinkId id) {
  if (id >= sinks_.size() || sinks_[id].sink == nullptr) {
    throw common::InvalidArgument("platform: remove_sink of unknown sink " +
                                  std::to_string(id));
  }
  sinks_[id].sink = nullptr;
  ++sinks_[id].generation;
  free_sinks_.push_back(id);
}

void ExecutionPlatform::check_submit(const char* platform, SinkId sink,
                                     const SimJob& job) const {
  // Checked before any state changes: a bad cost that reached dispatch
  // would take a slot, then throw from schedule_in() and never free it.
  if (sink >= sinks_.size() || sinks_[sink].sink == nullptr) {
    throw common::InvalidArgument(std::string(platform) + ": submit to unknown sink " +
                                  std::to_string(sink));
  }
  if (!std::isfinite(job.cpu_seconds) || job.cpu_seconds < 0) {
    throw common::InvalidArgument(std::string(platform) + ": job " +
                                  std::to_string(job.job) +
                                  " has invalid cpu_seconds (" +
                                  std::to_string(job.cpu_seconds) + ")");
  }
}

std::uint32_t ExecutionPlatform::open_attempt(SinkId sink, const SimJob& job,
                                              double submit_time) {
  const std::uint32_t slot = attempts_.acquire();
  attempts_[slot] = AttemptRecord{.job = job,
                                  .sink = sink,
                                  .sink_generation = sinks_[sink].generation,
                                  .submit_time = submit_time};
  return slot;
}

void ExecutionPlatform::deliver(std::uint32_t slot) {
  const AttemptRecord& record = attempts_[slot];
  if (!sink_live(record)) {
    attempts_.release(slot);
    ++dropped_;
    return;
  }
  const AttemptResult result{.job = record.job.job,
                             .node = node_labels_[record.node],
                             .failure = failure_text(record.failure),
                             .submit_time = record.submit_time,
                             .start_time = record.start_time,
                             .end_time = record.end_time,
                             .wait_seconds = record.start_time - record.submit_time,
                             .install_seconds = record.install_seconds,
                             .exec_seconds = record.exec_seconds,
                             .success = record.failure == AttemptFailure::kNone,
                             .install_cache_hit = record.install_cache_hit};
  CompletionSink* sink = sinks_[record.sink].sink;
  attempts_.release(slot);
  sink->on_attempt(result);
}

void ExecutionPlatform::require_finite(const char* platform, const char* field, double value) {
  if (!std::isfinite(value)) {
    throw common::InvalidArgument(std::string(platform) + ": " + field +
                                  " must be finite");
  }
}

}  // namespace pga::sim
