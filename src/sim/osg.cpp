#include "sim/osg.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace pga::sim {

namespace {

constexpr std::size_t kSites = 23;  ///< notional glidein sites, round-robin

/// Site labels, built once per process; attempt records index it.
const std::vector<std::string>& site_labels() {
  static const std::vector<std::string> labels = [] {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < kSites; ++i) out.push_back("osg-site-" + std::to_string(i));
    return out;
  }();
  return labels;
}

}  // namespace

OsgPlatform::OsgPlatform(EventQueue& queue, const OsgConfig& config)
    : queue_(queue), config_(config), rng_(config.seed), capacity_(config.base_slots) {
  node_labels_ = site_labels();
  constexpr const char* kWhere = "Osg";
  require_finite(kWhere, "capacity_wobble", config.capacity_wobble);
  require_finite(kWhere, "capacity_period", config.capacity_period);
  require_finite(kWhere, "wait_mu", config.wait_mu);
  require_finite(kWhere, "wait_sigma", config.wait_sigma);
  require_finite(kWhere, "node_speed_min", config.node_speed_min);
  require_finite(kWhere, "node_speed_max", config.node_speed_max);
  require_finite(kWhere, "install_min", config.install_min);
  require_finite(kWhere, "install_max", config.install_max);
  require_finite(kWhere, "preempt_mean", config.preempt_mean);
  if (config.base_slots == 0) {
    throw common::InvalidArgument("Osg: base_slots must be >= 1");
  }
  if (config.capacity_wobble < 0 || config.capacity_wobble >= 1.0) {
    throw common::InvalidArgument("Osg: capacity_wobble must be in [0,1)");
  }
  if (config.node_speed_min <= 0 || config.node_speed_min > config.node_speed_max) {
    throw common::InvalidArgument("Osg: bad node speed bounds");
  }
  if (config.install_min < 0 || config.install_min > config.install_max) {
    throw common::InvalidArgument("Osg: bad install bounds");
  }
  if (config.preempt_mean <= 0) {
    throw common::InvalidArgument("Osg: preempt_mean must be > 0");
  }
}

void OsgPlatform::schedule_capacity_change() {
  queue_.schedule_in(rng_.exponential(config_.capacity_period), [this] {
    // Glideins arrive and depart: capacity wanders within
    // [base*(1-wobble), base*(1+wobble)].
    const double base = static_cast<double>(config_.base_slots);
    const auto lo = static_cast<std::size_t>(
        std::max(1.0, base * (1.0 - config_.capacity_wobble)));
    const auto hi =
        static_cast<std::size_t>(base * (1.0 + config_.capacity_wobble));
    capacity_ = static_cast<std::size_t>(
        rng_.range(static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
    try_dispatch();  // capacity may have grown
    // Keep fluctuating only while the pool has work; otherwise pause the
    // process so an idle platform leaves the event queue empty (a later
    // submit restarts it).
    if (busy_ > 0 || !waiting_.empty()) {
      schedule_capacity_change();
    } else {
      capacity_process_started_ = false;
    }
  });
}

void OsgPlatform::avoid_node(const std::string& node) { avoided_.insert(node); }

std::uint32_t OsgPlatform::pick_node() {
  // The glidein pool cycles through 23 notional sites; honour the
  // scheduler's blacklist by skipping avoided sites, falling back to the
  // next site in rotation when every site is blacklisted.
  for (std::size_t tried = 0; tried < kSites; ++tried) {
    const auto site = static_cast<std::uint32_t>(node_counter_++ % kSites);
    if (!avoided_.count(node_labels_[site])) return site;
  }
  return static_cast<std::uint32_t>(node_counter_++ % kSites);
}

void OsgPlatform::submit(SinkId sink, const SimJob& job) {
  check_submit("Osg", sink, job);
  if (!capacity_process_started_ && config_.capacity_wobble > 0) {
    capacity_process_started_ = true;
    schedule_capacity_change();
  }
  const std::uint32_t slot = open_attempt(sink, job, queue_.now());
  // Opportunistic matchmaking delay, heavy-tailed.
  const double match_delay = rng_.lognormal(config_.wait_mu, config_.wait_sigma);
  queue_.schedule_in(match_delay, [this, slot] {
    waiting_.push_back(slot);
    try_dispatch();
  });
}

void OsgPlatform::try_dispatch() {
  while (busy_ < capacity_ && !waiting_.empty()) {
    const std::uint32_t slot = waiting_.front();
    waiting_.pop_front();
    ++busy_;
    AttemptRecord& record = attempt(slot);
    const SimJob& job = record.job;

    // pick_node() draws no randomness, so hoisting it above the RNG calls
    // keeps the stream (and golden logs) identical to the pre-cache model.
    const std::uint32_t node = pick_node();
    const std::string& label = node_labels_[node];
    // An attempt whose sink is gone has no live transformation label: it
    // runs uncached, and draws exactly what a cached attempt would.
    const bool cache_model = install_model_ != nullptr && sink_live(record);

    const double speed = rng_.uniform(config_.node_speed_min, config_.node_speed_max);
    // Always burn the cold-install draw for flagged jobs — the attached
    // cache model may shortcut the charge, but never the RNG stream.
    const double cold_install =
        job.needs_software_setup ? rng_.uniform(config_.install_min, config_.install_max)
                                 : 0.0;
    double install = cold_install;
    bool cache_hit = false;
    if (job.needs_software_setup && cache_model) {
      const InstallOutcome outcome =
          install_model_->install(label, job.transformation, job.software_bytes, cold_install);
      install = std::min(outcome.seconds, cold_install);
      cache_hit = outcome.cache_hit;
    }
    const double exec_needed = job.cpu_seconds / speed;
    const double time_to_preempt = rng_.exponential(config_.preempt_mean);

    record.node = node;
    record.start_time = queue_.now();
    record.install_seconds = install;
    record.install_cache_hit = cache_hit;

    double duration;
    if (time_to_preempt < install + exec_needed) {
      // The resource owner reclaimed the machine mid-attempt.
      ++preemptions_;
      record.failure = AttemptFailure::kPreempted;
      duration = time_to_preempt;
      record.install_seconds = std::min(install, time_to_preempt);
      record.exec_seconds = std::max(0.0, time_to_preempt - install);
    } else {
      duration = install + exec_needed;
      record.exec_seconds = exec_needed;
    }
    // A preemption that cut the download short leaves the node without the
    // bundle; only a completed install populates the cache.
    if (job.needs_software_setup && cache_model && time_to_preempt >= install) {
      install_model_->commit(label, job.transformation, job.software_bytes);
    }
    record.end_time = queue_.now() + duration;

    queue_.schedule_in(duration, [this, slot] {
      --busy_;
      deliver(slot);
      try_dispatch();
    });
  }
}

}  // namespace pga::sim
