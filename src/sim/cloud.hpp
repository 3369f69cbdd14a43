// A cloud (IaaS) platform profile — the paper's §VII future-work target
// ("using academic and commercial clouds as an execution platform ... will
// be a challenging but important further step").
//
// Model: a fixed budget of rentable VMs. Each VM must be provisioned
// (boot + contextualization delay) the first time it is used; after that it
// behaves like a dedicated, reliable node with the software stack baked
// into the image (no per-task install).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/rng.hpp"
#include "sim/platform.hpp"

namespace pga::sim {

/// Tunables for the cloud model.
struct CloudConfig {
  std::size_t vms = 64;              ///< rented instances (budget cap)
  double provision_mu = 4.7;         ///< lognormal mu of VM boot delay (median ~110 s)
  double provision_sigma = 0.4;
  double node_speed = 1.25;          ///< homogeneous modern cores
  /// Install overhead bounds for flagged jobs. The stock image bakes the
  /// stack in, so both default to 0 (no charge, no RNG draw); nonzero
  /// bounds model a bare image that downloads the stack, which a cache
  /// model then amortizes per VM.
  double install_min = 0;
  double install_max = 0;
  std::uint64_t seed = 3;
};

/// Fixed VM fleet with one-time provisioning delays. No failures.
class CloudPlatform final : public ExecutionPlatform {
 public:
  CloudPlatform(EventQueue& queue, const CloudConfig& config);

  void submit(SinkId sink, const SimJob& job) override;
  [[nodiscard]] std::string name() const override { return "cloud"; }
  [[nodiscard]] std::size_t slots() const override { return config_.vms; }

  /// VMs provisioned so far.
  [[nodiscard]] std::size_t provisioned() const { return provisioned_; }

 private:
  void try_dispatch();

  EventQueue& queue_;
  CloudConfig config_;
  common::Rng rng_;
  std::vector<std::string> vm_names_;  ///< node labels, built once
  std::deque<std::uint32_t> waiting_;  ///< FIFO of attempt slots
  std::vector<bool> vm_ready_;  ///< provisioned yet?
  std::vector<bool> vm_busy_;
  std::size_t provisioned_ = 0;
};

}  // namespace pga::sim
