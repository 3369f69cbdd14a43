#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace pga::sim {
namespace {

TEST(EventQueue, StartsAtZero) {
  EventQueue q;
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 30.0);
}

TEST(EventQueue, SimultaneousEventsRunFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ClockAdvancesMonotonically) {
  EventQueue q;
  std::vector<double> times;
  q.schedule(1, [&] { times.push_back(q.now()); });
  q.schedule(2, [&] {
    times.push_back(q.now());
    q.schedule_in(0.5, [&] { times.push_back(q.now()); });
  });
  q.schedule(5, [&] { times.push_back(q.now()); });
  q.run();
  ASSERT_EQ(times.size(), 4u);
  for (std::size_t i = 1; i < times.size(); ++i) EXPECT_GE(times[i], times[i - 1]);
  EXPECT_DOUBLE_EQ(times[2], 2.5);
}

TEST(EventQueue, EventsCanScheduleMoreEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 100) q.schedule_in(1.0, chain);
  };
  q.schedule(0, chain);
  const std::size_t processed = q.run();
  EXPECT_EQ(processed, 100u);
  EXPECT_EQ(count, 100);
  EXPECT_DOUBLE_EQ(q.now(), 99.0);
}

TEST(EventQueue, SchedulingIntoPastThrows) {
  EventQueue q;
  q.schedule(10, [&] {
    EXPECT_THROW(q.schedule(5, [] {}), common::InvalidArgument);
  });
  q.run();
}

TEST(EventQueue, SchedulingNonFiniteTimeThrows) {
  // NaN compares false against now(), so only an explicit check keeps it
  // out of the heap; infinities would never fire.
  EventQueue q;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(q.schedule(nan, [] {}), common::InvalidArgument);
  EXPECT_THROW(q.schedule(inf, [] {}), common::InvalidArgument);
  EXPECT_THROW(q.schedule(-inf, [] {}), common::InvalidArgument);
  EXPECT_THROW(q.schedule_in(nan, [] {}), common::InvalidArgument);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ZeroDelayAllowed) {
  EventQueue q;
  bool ran = false;
  q.schedule(3, [&] { q.schedule_in(0, [&] { ran = true; }); });
  q.run();
  EXPECT_TRUE(ran);
}

TEST(EventQueue, MaxEventsGuardThrows) {
  EventQueue q;
  std::function<void()> forever = [&] { q.schedule_in(1.0, forever); };
  q.schedule(0, forever);
  // A runaway simulation must be an error, not a silent truncation that
  // masquerades as a drained queue.
  EXPECT_THROW(q.run(1'000), common::SimulationError);
  EXPECT_FALSE(q.empty());
  EXPECT_DOUBLE_EQ(q.now(), 999.0);  // 1000 events did run before the guard
}

TEST(EventQueue, MaxEventsGuardDoesNotFireOnExactDrain) {
  EventQueue q;
  int count = 0;
  for (int i = 0; i < 10; ++i) q.schedule(i, [&] { ++count; });
  EXPECT_EQ(q.run(10), 10u);  // budget == pending: drained, no error
  EXPECT_EQ(count, 10);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ReservePreservesBehaviour) {
  EventQueue q;
  q.reserve(1'000);
  std::vector<int> order;
  q.schedule(3, [&] { order.push_back(3); });
  q.schedule(1, [&] { order.push_back(1); });
  q.schedule(2, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, PendingCount) {
  EventQueue q;
  q.schedule(1, [] {});
  q.schedule(2, [] {});
  EXPECT_EQ(q.pending(), 2u);
  q.step();
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, ThrowingActionLeavesQueueConsistent) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1, [&] { order.push_back(1); });
  q.schedule(1, [&] {
    q.schedule(1.5, [&] { order.push_back(15); });
    throw std::runtime_error("boom");
  });
  q.schedule(2, [&] { order.push_back(2); });
  EXPECT_TRUE(q.step());
  EXPECT_THROW(q.step(), std::runtime_error);
  // The thrown event is gone; the one it scheduled before throwing stays.
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_EQ(q.next_time(), std::optional<double>(1.5));
  EXPECT_DOUBLE_EQ(q.now(), 1.0);
  EXPECT_EQ(q.processed(), 2u);
  q.schedule(1.5, [&] { order.push_back(16); });  // ties after the survivor
  EXPECT_EQ(q.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 15, 16, 2}));
  EXPECT_TRUE(q.empty());
}

/// The obvious executive: a flat list scanned for the least (time,
/// sequence). The differential test below holds EventQueue to it.
class ReferenceQueue {
 public:
  void schedule(double time, int id) { events_.push_back({time, sequence_++, id}); }
  [[nodiscard]] std::optional<double> next_time() const {
    if (events_.empty()) return std::nullopt;
    return earliest()->time;
  }
  int pop() {
    const auto it = earliest();
    const Event event = *it;
    events_.erase(it);
    now_ = event.time;
    return event.id;
  }
  void advance_to(double time) {
    if (!events_.empty()) time = std::min(time, earliest()->time);
    now_ = std::max(now_, time);
  }
  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return events_.size(); }

 private:
  struct Event {
    double time;
    std::uint64_t sequence;
    int id;
  };
  [[nodiscard]] std::vector<Event>::const_iterator earliest() const {
    return std::min_element(events_.begin(), events_.end(), [](const Event& a, const Event& b) {
      return a.time != b.time ? a.time < b.time : a.sequence < b.sequence;
    });
  }

  double now_ = 0;
  std::uint64_t sequence_ = 0;
  std::vector<Event> events_;
};

TEST(EventQueue, MatchesReferenceUnderRandomInterleavings) {
  // Delays from a small set, so most events tie with others; actions
  // schedule children from inside step(). Each action's children are drawn
  // when it runs and recorded, and the reference replays exactly those when
  // it pops the same id — a wrong pop order shows as an id mismatch.
  constexpr double kDelays[] = {0, 0, 0.5, 1, 1, 1, 2, 3};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    common::Rng rng(seed);
    EventQueue queue;
    ReferenceQueue reference;
    std::map<int, std::vector<std::pair<double, int>>> children;
    int next_id = 0;
    int ran = -1;

    const auto delay = [&] { return kDelays[rng.below(std::size(kDelays))]; };
    std::function<void(int)> run_action = [&](int id) {
      ran = id;
      auto& spawned = children[id];
      // 0, 1 or 2 children with mean 0.6, so the drain terminates quickly.
      const std::uint64_t draw = rng.below(10);
      for (std::uint64_t n = draw < 5 ? 0 : draw < 9 ? 1 : 2; n > 0; --n) {
        const double d = delay();
        const int child = next_id++;
        spawned.emplace_back(d, child);
        queue.schedule_in(d, [&run_action, child] { run_action(child); });
      }
    };

    const auto check = [&] {
      ASSERT_EQ(queue.pending(), reference.pending());
      ASSERT_EQ(queue.next_time(), reference.next_time());
      ASSERT_EQ(queue.now(), reference.now());
    };
    const auto step_both = [&] {
      ran = -1;
      ASSERT_TRUE(queue.step());
      const int expected = reference.pop();
      ASSERT_EQ(ran, expected);
      for (const auto& [d, child] : children[expected]) {
        reference.schedule(reference.now() + d, child);
      }
    };

    for (int op = 0; op < 5'000; ++op) {
      const std::uint64_t kind = rng.below(20);
      if (kind < 8) {
        const double time = queue.now() + delay();
        const int id = next_id++;
        queue.schedule(time, [&run_action, id] { run_action(id); });
        reference.schedule(time, id);
      } else if (kind < 15) {
        if (!queue.empty()) step_both();
      } else if (kind < 17) {
        const double time = queue.now() + delay() * 2;
        queue.advance_to(time);
        reference.advance_to(time);
      }
      check();
      if (HasFatalFailure()) return;
    }
    while (!queue.empty()) {
      step_both();
      check();
      if (HasFatalFailure()) return;
    }
    EXPECT_FALSE(queue.step());
    EXPECT_EQ(queue.processed(), static_cast<std::uint64_t>(next_id));
  }
}

}  // namespace
}  // namespace pga::sim
