#include "sim/campus_cluster.hpp"

#include <string>
#include <vector>

#include "common/error.hpp"

namespace pga::sim {

namespace {

constexpr std::size_t kNodes = 44;  ///< physical nodes, used round-robin

/// Node labels, built once per process; attempt records index it.
const std::vector<std::string>& node_labels() {
  static const std::vector<std::string> labels = [] {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < kNodes; ++i) out.push_back("sandhills-node-" + std::to_string(i));
    return out;
  }();
  return labels;
}

}  // namespace

CampusClusterPlatform::CampusClusterPlatform(EventQueue& queue,
                                             const CampusClusterConfig& config)
    : queue_(queue), config_(config), rng_(config.seed) {
  node_labels_ = node_labels();
  constexpr const char* kWhere = "CampusCluster";
  require_finite(kWhere, "dispatch_mu", config.dispatch_mu);
  require_finite(kWhere, "dispatch_sigma", config.dispatch_sigma);
  require_finite(kWhere, "node_speed_min", config.node_speed_min);
  require_finite(kWhere, "node_speed_max", config.node_speed_max);
  require_finite(kWhere, "install_min", config.install_min);
  require_finite(kWhere, "install_max", config.install_max);
  if (config.allocated_slots == 0) {
    throw common::InvalidArgument("CampusCluster: allocated_slots must be >= 1");
  }
  if (config.node_speed_min <= 0 || config.node_speed_min > config.node_speed_max) {
    throw common::InvalidArgument("CampusCluster: bad node speed bounds");
  }
  if (config.install_min < 0 || config.install_min > config.install_max) {
    throw common::InvalidArgument("CampusCluster: bad install bounds");
  }
}

void CampusClusterPlatform::avoid_node(const std::string& node) {
  avoided_.insert(node);
}

std::uint32_t CampusClusterPlatform::pick_node() {
  // 44 physical nodes in round-robin; a blacklisted node is skipped unless
  // every node is blacklisted (the batch system must place the job somewhere).
  for (std::size_t tried = 0; tried < kNodes; ++tried) {
    const auto node = static_cast<std::uint32_t>(node_counter_++ % kNodes);
    if (!avoided_.count(node_labels_[node])) return node;
  }
  return static_cast<std::uint32_t>(node_counter_++ % kNodes);
}

void CampusClusterPlatform::submit(SinkId sink, const SimJob& job) {
  check_submit("CampusCluster", sink, job);
  // Batch semantics: the job enters the FIFO immediately; the (small)
  // scheduler dispatch latency is paid when a slot is assigned.
  waiting_.push_back(open_attempt(sink, job, queue_.now()));
  try_dispatch();
}

void CampusClusterPlatform::try_dispatch() {
  while (busy_ < config_.allocated_slots && !waiting_.empty()) {
    const std::uint32_t slot = waiting_.front();
    waiting_.pop_front();
    ++busy_;
    AttemptRecord& record = attempt(slot);
    const SimJob& job = record.job;

    const double latency = rng_.lognormal(config_.dispatch_mu, config_.dispatch_sigma);
    const double speed = rng_.uniform(config_.node_speed_min, config_.node_speed_max);
    const double exec = job.cpu_seconds / speed;
    const std::uint32_t node = pick_node();
    const std::string& label = node_labels_[node];

    // Default config models the preinstalled stack: install_max == 0, no
    // charge and — deliberately — no RNG draw, so existing seeded runs
    // replay byte-identically. Nonzero bounds enable the overhead, with an
    // attached cache model able to shortcut repeat installs per node.
    double install = 0;
    bool cache_hit = false;
    if (job.needs_software_setup && config_.install_max > 0) {
      install = rng_.uniform(config_.install_min, config_.install_max);
      if (install_model_ != nullptr && sink_live(record)) {
        const InstallOutcome outcome =
            install_model_->install(label, job.transformation, job.software_bytes, install);
        install = std::min(outcome.seconds, install);
        cache_hit = outcome.cache_hit;
        // The cluster never preempts, so every install runs to completion.
        install_model_->commit(label, job.transformation, job.software_bytes);
      }
    }

    record.node = node;
    record.start_time = queue_.now() + latency;
    record.install_seconds = install;
    record.install_cache_hit = cache_hit;
    record.exec_seconds = exec;
    record.end_time = record.start_time + install + exec;
    // The campus cluster never preempts or fails: failure stays null.

    queue_.schedule_in(latency + install + exec, [this, slot] {
      --busy_;
      deliver(slot);
      try_dispatch();
    });
  }
}

}  // namespace pga::sim
