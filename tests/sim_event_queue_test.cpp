#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/error.hpp"

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

}  // namespace
}  // namespace pga::sim
