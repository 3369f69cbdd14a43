// Sandhills, the University of Nebraska campus cluster, as a
// discrete-event model.
//
// The properties the paper attributes to it (§IV.A, §VI):
//  * a fixed allocation of slots from the group's share of the 1,440-core
//    machine — reliable once acquired, "utilized until the tasks terminate";
//  * small, near-constant per-job dispatch latency ("the Waiting Time value
//    for the tasks ran on Sandhills is small and negligible");
//  * mildly heterogeneous nodes ("Sandhills is a heterogeneous cluster");
//  * software preinstalled — no download/install overhead, no failures.
#pragma once

#include <cstdint>
#include <deque>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "sim/platform.hpp"

namespace pga::sim {

/// Tunables for the campus-cluster model.
struct CampusClusterConfig {
  /// Concurrent slots for this workflow. The paper's per-task waiting on
  /// Sandhills was "small and negligible" even at n = 500, so the group
  /// allocation evidently covered the workflow's width; 512 of the 1,440
  /// cores reproduces that behaviour.
  std::size_t allocated_slots = 512;
  double dispatch_mu = 3.5;           ///< lognormal mu of dispatch latency (s)
  double dispatch_sigma = 0.45;       ///< median exp(3.5) ~ 33 s
  double node_speed_min = 0.95;       ///< heterogeneous 2011 AMD cores
  double node_speed_max = 1.08;
  /// Download/install overhead bounds for jobs flagged needs_software_setup.
  /// Sandhills has the stack preinstalled, so both default to 0 (no charge,
  /// and — important for seed-stable replay — no RNG draw). Raise them to
  /// model a campus cluster without the preinstalled stack.
  double install_min = 0;
  double install_max = 0;
  std::uint64_t seed = 1;
};

/// FIFO batch queue over a fixed slot allocation. Jobs never fail.
class CampusClusterPlatform final : public ExecutionPlatform {
 public:
  CampusClusterPlatform(EventQueue& queue, const CampusClusterConfig& config);

  void submit(SinkId sink, const SimJob& job) override;
  void avoid_node(const std::string& node) override;
  [[nodiscard]] std::string name() const override { return "sandhills"; }
  [[nodiscard]] std::size_t slots() const override { return config_.allocated_slots; }

  /// Jobs currently waiting in the batch queue.
  [[nodiscard]] std::size_t queued() const { return waiting_.size(); }

 private:
  void try_dispatch();
  /// Index of the next node label to place an attempt on.
  std::uint32_t pick_node();

  EventQueue& queue_;
  CampusClusterConfig config_;
  common::Rng rng_;
  std::deque<std::uint32_t> waiting_;  ///< FIFO of attempt slots
  std::set<std::string> avoided_;
  std::size_t busy_ = 0;
  std::size_t node_counter_ = 0;
};

}  // namespace pga::sim
