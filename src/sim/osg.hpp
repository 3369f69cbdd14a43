// The Open Science Grid as a discrete-event model.
//
// The properties the paper attributes to OSG (§IV.B, §VI):
//  * opportunistic resources: waiting time is heavy-tailed and "unevenly
//    changes, increases and decreases" — modelled by lognormal matchmaking
//    delays plus capacity that fluctuates over time (glideins come and go);
//  * faster average cores than the 2011 campus hardware — pure execution
//    ("Kickstart") time is *better* than Sandhills;
//  * heterogeneous sites without the software stack: jobs flagged
//    needs_software_setup pay a download/install overhead per attempt;
//  * preemption: "the OSG user job may be cancelled or held" when resource
//    owners reclaim their machines — an exponential preemption hazard kills
//    running jobs part-way, producing the failures/retries the paper saw.
#pragma once

#include <cstdint>
#include <deque>
#include <set>

#include "common/rng.hpp"
#include "sim/platform.hpp"

namespace pga::sim {

/// Tunables for the OSG model.
struct OsgConfig {
  std::size_t base_slots = 150;      ///< average concurrently-usable slots
  double capacity_wobble = 0.4;      ///< +-fraction of slots that comes and goes
  double capacity_period = 1'800;    ///< mean seconds between capacity changes
  double wait_mu = 5.2;              ///< lognormal mu of match delay (median ~3 min)
  double wait_sigma = 1.3;           ///< heavy tail: p95 is tens of minutes
  double node_speed_min = 1.1;       ///< newer/faster opportunistic cores
  double node_speed_max = 1.7;
  double install_min = 180;          ///< download/install overhead bounds (s)
  double install_max = 600;
  double preempt_mean = 18'000;      ///< mean time-to-preemption while running (s)
  std::uint64_t seed = 2;
};

/// Opportunistic glidein pool with fluctuating capacity, per-attempt
/// install overhead and preemption. Failed attempts are reported with
/// success=false; the scheduler retries.
class OsgPlatform final : public ExecutionPlatform {
 public:
  OsgPlatform(EventQueue& queue, const OsgConfig& config);

  void submit(SinkId sink, const SimJob& job) override;
  void avoid_node(const std::string& node) override;
  [[nodiscard]] std::string name() const override { return "osg"; }
  [[nodiscard]] std::size_t slots() const override { return config_.base_slots; }

  /// Attempts that were preempted so far (for reporting).
  [[nodiscard]] std::size_t preemptions() const { return preemptions_; }
  /// Current fluctuating capacity.
  [[nodiscard]] std::size_t current_capacity() const { return capacity_; }
  /// Nodes the scheduler asked us to avoid.
  [[nodiscard]] const std::set<std::string>& avoided_nodes() const { return avoided_; }

 private:
  void try_dispatch();
  void schedule_capacity_change();
  /// Index of the next site label to place an attempt on.
  std::uint32_t pick_node();

  EventQueue& queue_;
  OsgConfig config_;
  common::Rng rng_;
  std::deque<std::uint32_t> waiting_;  ///< matched attempt slots, FIFO
  std::set<std::string> avoided_;
  std::size_t busy_ = 0;
  std::size_t capacity_;
  std::size_t node_counter_ = 0;
  std::size_t preemptions_ = 0;
  bool capacity_process_started_ = false;
};

}  // namespace pga::sim
