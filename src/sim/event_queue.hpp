// Discrete-event simulation core: a time-ordered event queue and clock.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sim/slab.hpp"

namespace pga::sim {

/// The simulation executive. Events are (time, action) pairs; step() pops
/// the earliest event, advances the clock to its time, and runs it.
/// Simultaneous events run in scheduling (FIFO) order, which makes every
/// simulation fully deterministic.
///
/// Ownership contract: the queue is the *shared timeline*, owned by the
/// caller, never by a platform or engine. Any number of platforms and
/// engine instances may schedule onto one queue and interleave on its
/// clock — the WaaS fleet controller runs thousands of workflows this way.
/// Whoever owns the queue owns the clock: only the owner (or a service it
/// delegates to, bounded by the engines' next_deadline()) may advance it.
///
/// Storage: a 4-ary min-heap of 24-byte POD keys {time, sequence, slot}
/// ordered by (time, sequence), plus a Slab that holds each event's action
/// at the key's slot. Sifts move only keys; an action is written once by
/// schedule() and moved out once by step(). Since every sequence number is
/// unique, (time, sequence) is a total order and the pop order is fully
/// determined — any correct heap yields the same run.
///
/// Re-entrancy: step() pops the key, moves the action out of its slot and
/// frees the slot *before* invoking it, because actions schedule() new
/// events, which may reuse the freed slot. An action that
/// throws has already been removed, so pending() and next_time() stay
/// consistent and the queue remains usable.
class EventQueue {
 public:
  using Action = std::function<void()>;

  /// Schedules `action` at absolute simulation time `time` (>= now()).
  /// Throws InvalidArgument for events in the past and for NaN or
  /// infinite times.
  void schedule(double time, Action action);

  /// Schedules `action` `delay` seconds from now.
  void schedule_in(double delay, Action action) { schedule(now_ + delay, std::move(action)); }

  /// Runs the earliest pending event. Returns false when the queue is empty.
  bool step();

  /// Time of the earliest pending event, or nothing when the queue is empty.
  [[nodiscard]] std::optional<double> next_time() const;

  /// Advances the clock toward `time` without running anything. The clock
  /// never moves backwards and never passes the earliest pending event, so
  /// the call is always safe; it lets a service burn idle simulated time
  /// (e.g. while waiting out an attempt timeout with nothing scheduled).
  void advance_to(double time);

  /// Runs events until the queue drains. `max_events` is a runaway guard:
  /// exceeding it with events still pending throws common::SimulationError
  /// (a silent truncation here used to masquerade as a finished run).
  /// Returns the number of events processed.
  std::size_t run(std::size_t max_events = 100'000'000);

  /// Pre-sizes event storage: up to `events` pending, scheduling allocates
  /// nothing more.
  void reserve(std::size_t events) {
    heap_.reserve(events);
    actions_.reserve(events);
  }

  /// Current simulation time (seconds).
  [[nodiscard]] double now() const { return now_; }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }

  /// Lifetime count of events run via step() (and thus run()). Fleet-scale
  /// drivers use it as a cheap progress/cost meter across many engines
  /// sharing the queue, and benches report it instead of re-counting.
  [[nodiscard]] std::uint64_t processed() const { return processed_; }

 private:
  struct Key {
    double time;
    std::uint64_t sequence;  // FIFO tiebreak; unique per event
    std::uint32_t slot;      // index of the action in actions_
  };
  static bool earlier(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.sequence < b.sequence;
  }
  void sift_up(std::size_t hole, Key key);
  void sift_down(std::size_t hole, Key key);

  double now_ = 0;
  std::uint64_t sequence_ = 0;
  std::uint64_t processed_ = 0;
  std::vector<Key> heap_;  ///< 4-ary min-heap under earlier()
  Slab<Action> actions_;
};

}  // namespace pga::sim
