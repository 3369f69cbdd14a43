#include "sim/event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"

namespace pga::sim {

void EventQueue::schedule(double time, Action action) {
  // NaN would pass the past-time check below (every comparison is false)
  // and break the heap's strict weak ordering; infinity never fires.
  if (!std::isfinite(time)) {
    throw common::InvalidArgument("EventQueue: non-finite event time (" +
                                  std::to_string(time) + ")");
  }
  if (time < now_) {
    throw common::InvalidArgument("EventQueue: scheduling into the past (" +
                                  std::to_string(time) + " < " +
                                  std::to_string(now_) + ")");
  }
  events_.push_back(Event{time, sequence_++, std::move(action)});
  std::push_heap(events_.begin(), events_.end(), Later{});
}

bool EventQueue::step() {
  if (events_.empty()) return false;
  // Move the earliest event out before running it; the action may schedule
  // new events (and thus reallocate the heap).
  std::pop_heap(events_.begin(), events_.end(), Later{});
  Event event = std::move(events_.back());
  events_.pop_back();
  now_ = event.time;
  ++processed_;
  event.action();
  return true;
}

std::optional<double> EventQueue::next_time() const {
  if (events_.empty()) return std::nullopt;
  return events_.front().time;
}

void EventQueue::advance_to(double time) {
  if (!events_.empty()) time = std::min(time, events_.front().time);
  now_ = std::max(now_, time);
}

std::size_t EventQueue::run(std::size_t max_events) {
  std::size_t processed = 0;
  while (processed < max_events && step()) ++processed;
  if (!events_.empty()) {
    throw common::SimulationError(
        "event budget exhausted after " + std::to_string(processed) +
        " events with " + std::to_string(events_.size()) +
        " still pending at t=" + std::to_string(now_) +
        " (runaway simulation?)");
  }
  return processed;
}

}  // namespace pga::sim
