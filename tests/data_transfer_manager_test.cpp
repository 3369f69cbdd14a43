#include "data/transfer_manager.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sim/event_queue.hpp"

namespace pga::data {
namespace {

StorageElementConfig site(const std::string& name, double bps,
                          std::size_t slots = 4) {
  StorageElementConfig config;
  config.site = name;
  config.bandwidth_in_bps = bps;
  config.bandwidth_out_bps = bps;
  config.transfer_slots = slots;
  return config;
}

TEST(TransferManager, RejectsBrokenConfigs) {
  sim::EventQueue queue;
  TransferConfig latency;
  latency.latency_seconds = -1;
  EXPECT_THROW(TransferManager(queue, latency), common::InvalidArgument);
  TransferConfig certain_failure;
  certain_failure.failure_probability = 1.0;
  EXPECT_THROW(TransferManager(queue, certain_failure), common::InvalidArgument);
  TransferConfig backoff;
  backoff.retry_backoff_seconds = -1;
  EXPECT_THROW(TransferManager(queue, backoff), common::InvalidArgument);
  TransferManager ok(queue);
  EXPECT_THROW((void)ok.element("nowhere"), common::InvalidArgument);
  EXPECT_THROW(ok.transfer("f", 1, "a", "b", nullptr), common::InvalidArgument);
}

TEST(TransferManager, RejectsNonFiniteConfigs) {
  sim::EventQueue queue;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double TransferConfig::*field :
       {&TransferConfig::latency_seconds, &TransferConfig::failure_probability,
        &TransferConfig::retry_backoff_seconds}) {
    for (const double bad : {nan, inf}) {
      TransferConfig config;
      config.*field = bad;
      EXPECT_THROW(TransferManager(queue, config), common::InvalidArgument) << bad;
    }
  }
}

TEST(TransferManager, ReplicaSelectionPolicy) {
  sim::EventQueue queue;
  TransferManager tm(queue);
  tm.add_element(site("fast", 100e6));
  tm.add_element(site("slow", 10e6));

  wms::ReplicaCatalog rc;
  rc.add("f", {"/z/f", "osg", 1});
  rc.add("f", {"/a/f", "osg", 1});
  rc.add("f", {"/f", "slow", 1});
  rc.add("f", {"/f", "fast", 1});

  // Same-site wins, smallest pfn among the same-site copies.
  auto best = tm.select_source(rc, "f", "osg");
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->site, "osg");
  EXPECT_EQ(best->pfn, "/a/f");

  // No same-site copy: the registered element with the largest
  // out-bandwidth serves.
  best = tm.select_source(rc, "f", "elsewhere");
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->site, "fast");

  // No replica site registered at all: catalog-wide smallest (site, pfn).
  wms::ReplicaCatalog sparse;
  sparse.add("g", {"/q/g", "zeta", 1});
  sparse.add("g", {"/p/g", "alpha", 1});
  best = tm.select_source(sparse, "g", "elsewhere");
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->site, "alpha");
  EXPECT_EQ(best->pfn, "/p/g");

  EXPECT_FALSE(tm.select_source(rc, "unknown", "osg").has_value());
}

TEST(TransferManager, DurationIsBottleneckBandwidthPlusLatency) {
  sim::EventQueue queue;
  TransferConfig config;
  config.latency_seconds = 2;
  TransferManager tm(queue, config);
  tm.add_element(site("fast", 100e6));
  tm.add_element(site("slow", 10e6));
  // 100 MB over the 10 MB/s bottleneck = 10 s, plus latency.
  EXPECT_NEAR(tm.duration_for(100'000'000, "fast", "slow"), 12.0, 1e-9);
  EXPECT_NEAR(tm.duration_for(100'000'000, "slow", "fast"), 12.0, 1e-9);
  // Same-site "transfers" are just the handshake.
  EXPECT_NEAR(tm.duration_for(100'000'000, "fast", "fast"), 2.0, 1e-9);
}

TEST(TransferManager, CompletesAndStoresAtDestination) {
  sim::EventQueue queue;
  TransferConfig config;
  config.latency_seconds = 2;
  TransferManager tm(queue, config);
  tm.add_element(site("src", 10e6));
  tm.add_element(site("dst", 10e6));

  std::vector<TransferResult> results;
  tm.transfer("ref.fasta", 50'000'000, "src", "dst",
              [&](const TransferResult& r) { results.push_back(r); });
  EXPECT_EQ(tm.in_flight(), 1u);
  queue.run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].success);
  EXPECT_EQ(results[0].attempts, 1u);
  EXPECT_NEAR(results[0].end_time, 7.0, 1e-9);  // 2 + 50/10
  EXPECT_TRUE(tm.element("dst").holds("ref.fasta"));
  EXPECT_EQ(tm.stats().bytes_moved, 50'000'000u);
  EXPECT_EQ(tm.stats().completed, 1u);
  EXPECT_EQ(tm.in_flight(), 0u);
}

TEST(TransferManager, SlotContentionQueuesFifo) {
  sim::EventQueue queue;
  TransferManager tm(queue);
  tm.add_element(site("src", 10e6, /*slots=*/1));
  tm.add_element(site("dst", 10e6, /*slots=*/4));

  std::vector<std::string> order;
  for (int i = 0; i < 3; ++i) {
    tm.transfer("f" + std::to_string(i), 10'000'000, "src", "dst",
                [&order](const TransferResult& r) { order.push_back(r.lfn); });
  }
  // One src slot: one running, two queued.
  EXPECT_EQ(tm.in_flight(), 1u);
  EXPECT_EQ(tm.queued(), 2u);
  queue.run();
  EXPECT_EQ(order, (std::vector<std::string>{"f0", "f1", "f2"}));
}

TEST(TransferManager, BlockedPairDoesNotStarveIdleSites) {
  sim::EventQueue queue;
  TransferManager tm(queue);
  tm.add_element(site("busy", 10e6, /*slots=*/1));
  tm.add_element(site("dst", 10e6, /*slots=*/4));
  tm.add_element(site("idle", 10e6, /*slots=*/4));

  std::vector<std::string> finished;
  auto record = [&finished](const TransferResult& r) { finished.push_back(r.lfn); };
  tm.transfer("long", 100'000'000, "busy", "dst", record);
  tm.transfer("blocked", 1'000'000, "busy", "dst", record);
  tm.transfer("free", 1'000'000, "idle", "dst", record);
  // "free" must be in flight immediately despite queuing behind "blocked".
  EXPECT_EQ(tm.in_flight(), 2u);
  EXPECT_EQ(tm.queued(), 1u);
  queue.run();
  // "free" lands at 2.1 s, "long" at 12 s, then "blocked" gets its slot.
  EXPECT_EQ(finished, (std::vector<std::string>{"free", "long", "blocked"}));
}

TEST(TransferManager, BlockedHeadKeepsFifoFirstDispatchableOrder) {
  sim::EventQueue queue;
  TransferManager tm(queue);
  tm.add_element(site("busy", 10e6, /*slots=*/1));
  tm.add_element(site("dst", 10e6, /*slots=*/1));
  tm.add_element(site("idle", 10e6, /*slots=*/4));
  tm.add_element(site("other", 10e6, /*slots=*/4));

  std::vector<TransferResult> finished;
  auto record = [&finished](const TransferResult& r) { finished.push_back(r); };
  tm.transfer("head", 10'000'000, "busy", "dst", record);  // 2 + 1 s
  tm.transfer("second", 1'000'000, "busy", "dst", record);  // busy and dst taken
  tm.transfer("third", 1'000'000, "idle", "dst", record);   // dst taken
  tm.transfer("fourth", 1'000'000, "idle", "other", record);  // free: starts
  tm.transfer("fifth", 1'000'000, "busy", "other", record);   // busy taken
  EXPECT_EQ(tm.in_flight(), 2u);
  EXPECT_EQ(tm.queued(), 3u);
  queue.run();

  // When "head" frees busy and dst, the oldest request that can use them
  // ("second") wins over "third" and "fifth" behind it. When "second"
  // frees them, one pass starts both "third" and "fifth".
  std::vector<std::string> order;
  for (const auto& r : finished) order.push_back(r.lfn);
  EXPECT_EQ(order, (std::vector<std::string>{"fourth", "head", "second", "third",
                                             "fifth"}));
  const auto start_of = [&finished](const std::string& lfn) {
    for (const auto& r : finished) {
      if (r.lfn == lfn) return r.start_time;
    }
    return -1.0;
  };
  EXPECT_NEAR(start_of("head"), 0.0, 1e-9);
  EXPECT_NEAR(start_of("fourth"), 0.0, 1e-9);
  EXPECT_NEAR(start_of("second"), 3.0, 1e-9);
  EXPECT_NEAR(start_of("third"), 5.1, 1e-9);
  EXPECT_NEAR(start_of("fifth"), 5.1, 1e-9);
  EXPECT_EQ(tm.in_flight(), 0u);
  EXPECT_EQ(tm.queued(), 0u);
}

TEST(TransferManager, ReplacingAnElementWithTransfersOutstandingThrows) {
  sim::EventQueue queue;
  TransferConfig config;
  config.failure_probability = 0.5;
  config.max_retries = 20;
  config.seed = 3;
  TransferManager tm(queue, config);
  tm.add_element(site("src", 10e6));
  tm.add_element(site("dst", 10e6));
  for (int i = 0; i < 6; ++i) {
    tm.transfer("f" + std::to_string(i), 10'000'000, "src", "dst",
                [](const TransferResult&) {});
  }

  // Requests hold their endpoint elements until they finish, including
  // while a failed attempt cools off before its retry.
  EXPECT_THROW(tm.add_element(site("src", 1e6)), common::InvalidArgument);
  EXPECT_THROW(tm.add_element(site("dst", 1e6)), common::InvalidArgument);
  EXPECT_NO_THROW(tm.add_element(site("new", 1e6)));  // adding is harmless
  std::size_t cooled = 0;
  while (queue.step()) {
    if (tm.in_flight() == 0 && tm.queued() == 0 && !queue.empty()) {
      ++cooled;  // between attempts: still outstanding
      EXPECT_THROW(tm.add_element(site("src", 1e6)), common::InvalidArgument);
    }
  }
  EXPECT_GT(tm.stats().retries, 0u);
  EXPECT_GT(cooled, 0u);

  // Once everything has finished, re-registering takes effect.
  tm.add_element(site("src", 1e6));
  EXPECT_DOUBLE_EQ(tm.element("src").config().bandwidth_out_bps, 1e6);
  EXPECT_DOUBLE_EQ(tm.duration_for(1'000'000, "src", "dst"), 3.0);
}

TEST(TransferManager, RetriesThenSucceedsOrExhausts) {
  // failure_probability ~ 1 (but < 1): every attempt fails, the budget is
  // consumed exactly, and the final callback reports the attempt count.
  sim::EventQueue queue;
  TransferConfig config;
  config.failure_probability = 0.999999;
  config.max_retries = 2;
  config.retry_backoff_seconds = 5;
  TransferManager tm(queue, config);
  std::vector<TransferResult> results;
  tm.transfer("f", 1'000'000, "a", "b",
              [&](const TransferResult& r) { results.push_back(r); });
  queue.run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].success);
  EXPECT_EQ(results[0].attempts, 3u);  // 1 + max_retries
  EXPECT_EQ(tm.stats().retries, 2u);
  EXPECT_EQ(tm.stats().failed, 1u);
  EXPECT_EQ(tm.stats().completed, 0u);
  EXPECT_FALSE(results[0].failure.empty());
  // The failed copy never landed.
  EXPECT_FALSE(tm.element("b").holds("f"));
}

TEST(TransferManager, SeededFailuresReplayByteIdentically) {
  const auto run = [](std::uint64_t seed) {
    sim::EventQueue queue;
    TransferConfig config;
    config.failure_probability = 0.4;
    config.max_retries = 4;
    config.seed = seed;
    TransferManager tm(queue, config);
    std::vector<TransferResult> results;
    for (int i = 0; i < 20; ++i) {
      tm.transfer("f" + std::to_string(i), 5'000'000, "a", "b",
                  [&](const TransferResult& r) { results.push_back(r); });
    }
    queue.run();
    return std::make_pair(results, queue.now());
  };
  const auto [first, t1] = run(42);
  const auto [second, t2] = run(42);
  ASSERT_EQ(first.size(), second.size());
  EXPECT_EQ(t1, t2);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].lfn, second[i].lfn);
    EXPECT_EQ(first[i].attempts, second[i].attempts);
    EXPECT_EQ(first[i].success, second[i].success);
    EXPECT_DOUBLE_EQ(first[i].end_time, second[i].end_time);
  }
  // A different seed draws a different failure pattern.
  const auto [other, t3] = run(43);
  bool any_difference = t1 != t3;
  for (std::size_t i = 0; i < first.size() && !any_difference; ++i) {
    any_difference = first[i].attempts != other[i].attempts;
  }
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace pga::data
