#include "sim/event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"

namespace pga::sim {

namespace {
// Half the depth of a binary heap, and a key's children sit side by side
// in memory, so a sift-down touches fewer cache lines.
constexpr std::size_t kArity = 4;
}  // namespace

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
  const std::uint32_t slot = actions_.acquire();
  actions_[slot] = std::move(action);
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Key{time, sequence_++, slot});
}

void EventQueue::sift_up(std::size_t hole, Key key) {
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!earlier(key, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = key;
}

void EventQueue::sift_down(std::size_t hole, Key key) {
  const std::size_t size = heap_.size();
  for (;;) {
    const std::size_t first = hole * kArity + 1;
    if (first >= size) break;
    const std::size_t last = std::min(first + kArity, size);
    std::size_t best = first;
    for (std::size_t child = first + 1; child < last; ++child) {
      if (earlier(heap_[child], heap_[best])) best = child;
    }
    if (!earlier(heap_[best], key)) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = key;
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  const Key top = heap_.front();
  const Key last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
  // Take the action and free its slot before running it: the action may
  // schedule new events, which reuse slots and may grow the slab.
  Action action = std::move(actions_[top.slot]);
  actions_.release(top.slot);
  now_ = top.time;
  ++processed_;
  action();
  return true;
}

std::optional<double> EventQueue::next_time() const {
  if (heap_.empty()) return std::nullopt;
  return heap_.front().time;
}

void EventQueue::advance_to(double time) {
  if (!heap_.empty()) time = std::min(time, heap_.front().time);
  now_ = std::max(now_, time);
}

std::size_t EventQueue::run(std::size_t max_events) {
  std::size_t processed = 0;
  while (processed < max_events && step()) ++processed;
  if (!heap_.empty()) {
    throw common::SimulationError(
        "event budget exhausted after " + std::to_string(processed) +
        " events with " + std::to_string(heap_.size()) +
        " still pending at t=" + std::to_string(now_) +
        " (runaway simulation?)");
  }
  return processed;
}

}  // namespace pga::sim
