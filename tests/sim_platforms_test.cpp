#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "sim/campus_cluster.hpp"
#include "sim/cloud.hpp"
#include "sim/osg.hpp"
#include "sim_test_sink.hpp"

namespace pga::sim {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// A named job for the harness, which submits it under its position.
struct TestJob {
  std::string id;
  double cpu = 0;
  bool setup = false;
};

TestJob job(const std::string& id, double cpu, bool setup = false) {
  return TestJob{id, cpu, setup};
}

SimJob sim_job(std::uint32_t handle, double cpu, bool setup = false) {
  return SimJob{.job = handle,
                .transformation = "run_cap3",
                .cpu_seconds = cpu,
                .needs_software_setup = setup};
}

/// Submits jobs, retrying failures up to `max_retries`, and returns one
/// final result per job plus the attempt count.
struct Harness {
  EventQueue queue;
  std::map<std::string, AttemptResult> final_results;
  std::map<std::string, int> attempts;

  void run_all(ExecutionPlatform& platform, const std::vector<TestJob>& jobs,
               int max_retries = 10) {
    std::vector<int> retries_left(jobs.size(), max_retries);
    CallbackSink sink(platform);
    sink.callback = [&](const AttemptResult& r) {
      const TestJob& j = jobs.at(r.job);
      ++attempts[j.id];
      if (r.success || retries_left[r.job] == 0) {
        final_results[j.id] = r;
      } else {
        --retries_left[r.job];
        sink.submit(sim_job(r.job, j.cpu, j.setup));
      }
    };
    for (std::uint32_t i = 0; i < jobs.size(); ++i) {
      sink.submit(sim_job(i, jobs[i].cpu, jobs[i].setup));
    }
    queue.run();
  }
};

// ------------------------------------------------------- Campus cluster

TEST(CampusCluster, RunsAllJobsSuccessfully) {
  Harness h;
  CampusClusterConfig config;
  config.allocated_slots = 4;
  CampusClusterPlatform platform(h.queue, config);
  std::vector<TestJob> jobs;
  for (int i = 0; i < 20; ++i) jobs.push_back(job("j" + std::to_string(i), 600));
  h.run_all(platform, jobs);
  EXPECT_EQ(h.final_results.size(), 20u);
  for (const auto& [id, r] : h.final_results) {
    EXPECT_TRUE(r.success) << id;
    EXPECT_DOUBLE_EQ(r.install_seconds, 0.0) << id;  // preinstalled stack
    EXPECT_EQ(h.attempts[id], 1) << id;              // never retries
  }
}

TEST(CampusCluster, WaitingTimeSmallWhenUnsaturated) {
  Harness h;
  CampusClusterConfig config;
  config.allocated_slots = 32;
  CampusClusterPlatform platform(h.queue, config);
  std::vector<TestJob> jobs;
  for (int i = 0; i < 10; ++i) jobs.push_back(job("j" + std::to_string(i), 3'600));
  h.run_all(platform, jobs);
  for (const auto& [id, r] : h.final_results) {
    // Dispatch latency only: well under 5 minutes.
    EXPECT_LT(r.wait_seconds, 300.0) << id;
  }
}

TEST(CampusCluster, SlotsLimitConcurrency) {
  // 8 equal jobs on 2 slots: makespan must be >= 4 job-durations.
  Harness h;
  CampusClusterConfig config;
  config.allocated_slots = 2;
  config.node_speed_min = 1.0;
  config.node_speed_max = 1.0;
  CampusClusterPlatform platform(h.queue, config);
  std::vector<TestJob> jobs;
  for (int i = 0; i < 8; ++i) jobs.push_back(job("j" + std::to_string(i), 1'000));
  h.run_all(platform, jobs);
  double makespan = 0;
  for (const auto& [id, r] : h.final_results) makespan = std::max(makespan, r.end_time);
  EXPECT_GE(makespan, 4'000.0);
  EXPECT_LT(makespan, 4'000.0 + 2'000.0);  // dispatch latency slack
}

TEST(CampusCluster, ExecTimeScalesWithCost) {
  Harness h;
  CampusClusterPlatform platform(h.queue, {});
  h.run_all(platform, {job("small", 100), job("big", 10'000)});
  EXPECT_GT(h.final_results["big"].exec_seconds,
            h.final_results["small"].exec_seconds * 50);
}

TEST(CampusCluster, DeterministicForSeed) {
  const auto run_once = [] {
    Harness h;
    CampusClusterConfig config;
    config.seed = 77;
    CampusClusterPlatform platform(h.queue, config);
    std::vector<TestJob> jobs;
    for (int i = 0; i < 12; ++i) jobs.push_back(job("j" + std::to_string(i), 500));
    h.run_all(platform, jobs);
    double makespan = 0;
    for (const auto& [id, r] : h.final_results) {
      makespan = std::max(makespan, r.end_time);
    }
    return makespan;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(CampusCluster, ConfigValidation) {
  EventQueue q;
  CampusClusterConfig config;
  config.allocated_slots = 0;
  EXPECT_THROW(CampusClusterPlatform(q, config), common::InvalidArgument);
  config = CampusClusterConfig{};
  config.node_speed_min = 2.0;
  config.node_speed_max = 1.0;
  EXPECT_THROW(CampusClusterPlatform(q, config), common::InvalidArgument);
  // NaN passes both `<= 0` and `min > max`; every double must be finite.
  for (double CampusClusterConfig::*field :
       {&CampusClusterConfig::dispatch_mu, &CampusClusterConfig::dispatch_sigma,
        &CampusClusterConfig::node_speed_min, &CampusClusterConfig::node_speed_max,
        &CampusClusterConfig::install_min, &CampusClusterConfig::install_max}) {
    for (double bad : {kNan, kInf, -kInf}) {
      config = CampusClusterConfig{};
      config.*field = bad;
      EXPECT_THROW(CampusClusterPlatform(q, config), common::InvalidArgument) << bad;
    }
  }
}

// ------------------------------------------------------------------ OSG

TEST(Osg, InstallOverheadOnlyWhenRequested) {
  Harness h;
  OsgConfig config;
  config.preempt_mean = 1e12;  // effectively no preemption
  OsgPlatform platform(h.queue, config);
  h.run_all(platform, {job("setup", 600, true), job("bare", 600, false)});
  EXPECT_GE(h.final_results["setup"].install_seconds, config.install_min);
  EXPECT_LE(h.final_results["setup"].install_seconds, config.install_max);
  EXPECT_DOUBLE_EQ(h.final_results["bare"].install_seconds, 0.0);
}

TEST(Osg, FasterCoresThanCampus) {
  // Same job cost: OSG kickstart should beat the campus cluster's
  // (speed ranges don't overlap).
  Harness hc;
  CampusClusterConfig cc;
  cc.seed = 5;
  CampusClusterPlatform campus(hc.queue, cc);
  hc.run_all(campus, {job("j", 36'000)});

  Harness ho;
  OsgConfig oc;
  oc.preempt_mean = 1e12;
  oc.seed = 5;
  OsgPlatform osg(ho.queue, oc);
  ho.run_all(osg, {job("j", 36'000)});

  EXPECT_LT(ho.final_results["j"].exec_seconds, hc.final_results["j"].exec_seconds);
}

TEST(Osg, PreemptionCausesRetries) {
  Harness h;
  OsgConfig config;
  config.preempt_mean = 1'000;  // brutal: jobs of 3000s rarely survive
  config.seed = 11;
  OsgPlatform platform(h.queue, config);
  std::vector<TestJob> jobs;
  for (int i = 0; i < 30; ++i) jobs.push_back(job("j" + std::to_string(i), 3'000, true));
  h.run_all(platform, jobs, /*max_retries=*/50);
  EXPECT_GT(platform.preemptions(), 0u);
  int total_attempts = 0;
  for (const auto& [id, n] : h.attempts) total_attempts += n;
  EXPECT_GT(total_attempts, 30);  // at least one retry happened
  for (const auto& [id, r] : h.final_results) EXPECT_TRUE(r.success) << id;
}

TEST(Osg, PreemptedAttemptReportsPartialExecution) {
  Harness h;
  OsgConfig config;
  config.preempt_mean = 200;
  config.seed = 13;
  OsgPlatform platform(h.queue, config);
  bool saw_preemption = false;
  CallbackSink sink(platform, [&](const AttemptResult& r) {
    if (!r.success) {
      saw_preemption = true;
      EXPECT_EQ(r.failure, "preempted");
      EXPECT_LT(r.exec_seconds, 50'000.0 / config.node_speed_max);
      EXPECT_GE(r.end_time, r.start_time);
    }
  });
  for (std::uint32_t i = 0; i < 20 && !saw_preemption; ++i) {
    sink.submit(sim_job(i, 50'000, true));
  }
  h.queue.run();
  EXPECT_TRUE(saw_preemption);
}

TEST(Osg, WaitingTimeHeavyTailed) {
  Harness h;
  OsgConfig config;
  config.preempt_mean = 1e12;
  config.seed = 17;
  OsgPlatform platform(h.queue, config);
  std::vector<TestJob> jobs;
  for (int i = 0; i < 200; ++i) jobs.push_back(job("j" + std::to_string(i), 10));
  h.run_all(platform, jobs);
  double max_wait = 0, min_wait = 1e18;
  for (const auto& [id, r] : h.final_results) {
    max_wait = std::max(max_wait, r.wait_seconds);
    min_wait = std::min(min_wait, r.wait_seconds);
  }
  // Unevenness: the slowest match takes far longer than the fastest.
  EXPECT_GT(max_wait, 10 * min_wait);
}

TEST(Osg, CapacityFluctuates) {
  Harness h;
  OsgConfig config;
  config.base_slots = 100;
  config.capacity_wobble = 0.5;
  config.capacity_period = 100;
  config.preempt_mean = 1e12;
  config.seed = 19;
  OsgPlatform platform(h.queue, config);
  std::vector<TestJob> jobs;
  for (int i = 0; i < 50; ++i) jobs.push_back(job("j" + std::to_string(i), 5'000));
  // Track capacity over the run via completion callbacks.
  std::vector<std::size_t> capacities;
  CallbackSink sink(platform, [&](const AttemptResult&) {
    capacities.push_back(platform.current_capacity());
  });
  for (std::uint32_t i = 0; i < jobs.size(); ++i) sink.submit(sim_job(i, jobs[i].cpu));
  h.queue.run();
  std::set<std::size_t> distinct(capacities.begin(), capacities.end());
  EXPECT_GT(distinct.size(), 1u);
}

TEST(Osg, ConfigValidation) {
  EventQueue q;
  OsgConfig config;
  config.base_slots = 0;
  EXPECT_THROW(OsgPlatform(q, config), common::InvalidArgument);
  config = OsgConfig{};
  config.capacity_wobble = 1.5;
  EXPECT_THROW(OsgPlatform(q, config), common::InvalidArgument);
  config = OsgConfig{};
  config.install_min = 700;
  config.install_max = 600;
  EXPECT_THROW(OsgPlatform(q, config), common::InvalidArgument);
  config = OsgConfig{};
  config.preempt_mean = 0;
  EXPECT_THROW(OsgPlatform(q, config), common::InvalidArgument);
  for (double OsgConfig::*field :
       {&OsgConfig::capacity_wobble, &OsgConfig::capacity_period, &OsgConfig::wait_mu,
        &OsgConfig::wait_sigma, &OsgConfig::node_speed_min, &OsgConfig::node_speed_max,
        &OsgConfig::install_min, &OsgConfig::install_max, &OsgConfig::preempt_mean}) {
    for (double bad : {kNan, kInf, -kInf}) {
      config = OsgConfig{};
      config.*field = bad;
      EXPECT_THROW(OsgPlatform(q, config), common::InvalidArgument) << bad;
    }
  }
}

// ---------------------------------------------------------------- Cloud

TEST(Cloud, ProvisionsVmsOnceAndReusesThem) {
  Harness h;
  CloudConfig config;
  config.vms = 4;
  CloudPlatform platform(h.queue, config);
  std::vector<TestJob> jobs;
  for (int i = 0; i < 16; ++i) jobs.push_back(job("j" + std::to_string(i), 1'000));
  h.run_all(platform, jobs);
  EXPECT_EQ(h.final_results.size(), 16u);
  EXPECT_LE(platform.provisioned(), 4u);
  for (const auto& [id, r] : h.final_results) {
    EXPECT_TRUE(r.success);
    EXPECT_DOUBLE_EQ(r.install_seconds, 0.0);
  }
}

TEST(Cloud, FirstWaveWaitsForBoot) {
  Harness h;
  CloudConfig config;
  config.vms = 2;
  CloudPlatform platform(h.queue, config);
  h.run_all(platform, {job("a", 100), job("b", 100)});
  for (const auto& [id, r] : h.final_results) {
    EXPECT_GT(r.wait_seconds, 30.0) << id;  // VM boot delay
  }
}

TEST(Cloud, ConfigValidation) {
  EventQueue q;
  CloudConfig config;
  config.vms = 0;
  EXPECT_THROW(CloudPlatform(q, config), common::InvalidArgument);
  config = CloudConfig{};
  config.node_speed = 0;
  EXPECT_THROW(CloudPlatform(q, config), common::InvalidArgument);
  for (double CloudConfig::*field :
       {&CloudConfig::provision_mu, &CloudConfig::provision_sigma, &CloudConfig::node_speed,
        &CloudConfig::install_min, &CloudConfig::install_max}) {
    for (double bad : {kNan, kInf, -kInf}) {
      config = CloudConfig{};
      config.*field = bad;
      EXPECT_THROW(CloudPlatform(q, config), common::InvalidArgument) << bad;
    }
  }
}

// ------------------------------------------------------- All platforms

TEST(Platforms, BadJobCostIsRejectedWithoutLeakingASlot) {
  // With one slot, a job that took the slot and never freed it would
  // strand every later job. Each platform must reject the cost up front,
  // naming the bad job by its handle. The reference run submits only the
  // good job: a rejected submit that drew from the RNG would shift the
  // good job's timings.
  const auto run = [](const char* name, auto make) {
    SCOPED_TRACE(name);
    const auto good_end_time = [&](std::optional<double> bad_cost) {
      EventQueue q;
      std::unique_ptr<ExecutionPlatform> platform = make(q);
      CallbackSink sink(*platform);
      if (bad_cost.has_value()) {
        sink.callback = [](const AttemptResult&) { ADD_FAILURE(); };
        try {
          sink.submit(sim_job(7, *bad_cost));
          ADD_FAILURE() << "accepted cpu_seconds " << *bad_cost;
        } catch (const common::InvalidArgument& err) {
          EXPECT_NE(std::string(err.what()).find("job 7 "), std::string::npos)
              << err.what();
        }
        EXPECT_TRUE(q.empty());
      }
      std::optional<double> end_time;
      sink.callback = [&](const AttemptResult& r) {
        EXPECT_EQ(r.job, 8u);
        if (r.success) end_time = r.end_time;
      };
      sink.submit(sim_job(8, 100));
      q.run();
      return end_time;
    };
    const std::optional<double> reference = good_end_time(std::nullopt);
    ASSERT_TRUE(reference.has_value());
    for (double bad : {kNan, kInf, -kInf, -1.0}) {
      EXPECT_EQ(good_end_time(bad), reference) << bad;
    }
  };
  run("campus", [](EventQueue& q) {
    CampusClusterConfig config;
    config.allocated_slots = 1;
    return std::make_unique<CampusClusterPlatform>(q, config);
  });
  run("osg", [](EventQueue& q) {
    OsgConfig config;
    config.base_slots = 1;
    config.capacity_wobble = 0;
    config.preempt_mean = 1e12;
    return std::make_unique<OsgPlatform>(q, config);
  });
  run("cloud", [](EventQueue& q) {
    CloudConfig config;
    config.vms = 1;
    return std::make_unique<CloudPlatform>(q, config);
  });
}

TEST(Platforms, ResultEchoesTheHandleAndViewsThePlatformsLabels) {
  EventQueue q;
  CampusClusterConfig campus_config;
  campus_config.allocated_slots = 2;
  CampusClusterPlatform campus(q, campus_config);
  OsgConfig osg_config;
  osg_config.preempt_mean = 1e12;
  OsgPlatform osg(q, osg_config);
  CloudPlatform cloud(q, {});
  // Per platform: job handle -> reported node, in submission order.
  std::map<std::string, std::map<std::uint32_t, std::string>> nodes;
  const auto sink_for = [&](ExecutionPlatform& platform, const std::string& label) {
    return std::make_unique<CallbackSink>(platform, [&nodes, label](const AttemptResult& r) {
      EXPECT_TRUE(r.success);
      EXPECT_TRUE(r.failure.empty());
      EXPECT_TRUE(nodes[label].emplace(r.job, r.node).second) << label << " " << r.job;
    });
  };
  const auto campus_sink = sink_for(campus, "campus");
  const auto osg_sink = sink_for(osg, "osg");
  const auto cloud_sink = sink_for(cloud, "cloud");
  for (std::uint32_t i = 40; i < 42; ++i) {
    campus_sink->submit(sim_job(i, 100.0 * (i - 39)));
    cloud_sink->submit(sim_job(i, 100.0 * (i - 39)));
  }
  osg_sink->submit(sim_job(40, 100));
  q.run();
  using Nodes = std::map<std::uint32_t, std::string>;
  EXPECT_EQ(nodes["campus"], (Nodes{{40, "sandhills-node-0"}, {41, "sandhills-node-1"}}));
  EXPECT_EQ(nodes["osg"], (Nodes{{40, "osg-site-0"}}));
  EXPECT_EQ(nodes["cloud"], (Nodes{{40, "cloud-vm-0"}, {41, "cloud-vm-1"}}));
}

TEST(Platforms, RemovedSinkDropsItsResultsAndFreesTheirSlots) {
  // One slot: the removed sink's attempt runs to its end, frees the slot
  // for the next sink's job, and its result is counted, never delivered —
  // not even to the sink that is handed the same id afterwards.
  const auto run = [](const char* name, auto make) {
    SCOPED_TRACE(name);
    EventQueue q;
    std::unique_ptr<ExecutionPlatform> platform = make(q);
    std::vector<std::uint32_t> delivered;
    const auto record = [&delivered](const AttemptResult& r) { delivered.push_back(r.job); };
    SinkId old_id = 0;
    {
      CallbackSink gone(*platform, record);
      old_id = gone.id();
      gone.submit(sim_job(1, 500));
      gone.submit(sim_job(2, 500));
    }
    CallbackSink next(*platform, record);
    EXPECT_EQ(next.id(), old_id);  // the id is handed out again
    next.submit(sim_job(3, 500));
    q.run();
    EXPECT_EQ(delivered, (std::vector<std::uint32_t>{3}));
    EXPECT_EQ(platform->dropped_completions(), 2u);
  };
  run("campus", [](EventQueue& q) {
    CampusClusterConfig config;
    config.allocated_slots = 1;
    return std::make_unique<CampusClusterPlatform>(q, config);
  });
  run("osg", [](EventQueue& q) {
    OsgConfig config;
    config.base_slots = 1;
    config.capacity_wobble = 0;
    config.preempt_mean = 1e12;
    return std::make_unique<OsgPlatform>(q, config);
  });
  run("cloud", [](EventQueue& q) {
    CloudConfig config;
    config.vms = 1;
    return std::make_unique<CloudPlatform>(q, config);
  });
}

TEST(Platforms, UnknownSinksAreRejected) {
  EventQueue q;
  CampusClusterPlatform platform(q, {});
  EXPECT_THROW(platform.submit(0, sim_job(1, 10)), common::InvalidArgument);
  EXPECT_THROW(platform.remove_sink(0), common::InvalidArgument);
  SinkId id = 0;
  {
    CallbackSink sink(platform);
    id = sink.id();
  }
  EXPECT_THROW(platform.submit(id, sim_job(1, 10)), common::InvalidArgument);
  EXPECT_THROW(platform.remove_sink(id), common::InvalidArgument);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace pga::sim
