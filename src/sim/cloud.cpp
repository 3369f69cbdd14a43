#include "sim/cloud.hpp"

#include "common/error.hpp"

namespace pga::sim {

CloudPlatform::CloudPlatform(EventQueue& queue, const CloudConfig& config)
    : queue_(queue),
      config_(config),
      rng_(config.seed),
      vm_ready_(config.vms, false),
      vm_busy_(config.vms, false) {
  constexpr const char* kWhere = "Cloud";
  require_finite(kWhere, "provision_mu", config.provision_mu);
  require_finite(kWhere, "provision_sigma", config.provision_sigma);
  require_finite(kWhere, "node_speed", config.node_speed);
  require_finite(kWhere, "install_min", config.install_min);
  require_finite(kWhere, "install_max", config.install_max);
  if (config.vms == 0) throw common::InvalidArgument("Cloud: vms must be >= 1");
  if (config.node_speed <= 0) {
    throw common::InvalidArgument("Cloud: node_speed must be > 0");
  }
  if (config.install_min < 0 || config.install_min > config.install_max) {
    throw common::InvalidArgument("Cloud: bad install bounds");
  }
  vm_names_.reserve(config.vms);
  for (std::size_t vm = 0; vm < config.vms; ++vm) {
    vm_names_.push_back("cloud-vm-" + std::to_string(vm));
  }
  node_labels_ = vm_names_;
}

void CloudPlatform::submit(SinkId sink, const SimJob& job) {
  check_submit("Cloud", sink, job);
  waiting_.push_back(open_attempt(sink, job, queue_.now()));
  try_dispatch();
}

void CloudPlatform::try_dispatch() {
  while (!waiting_.empty()) {
    // First idle VM; prefer already-provisioned ones.
    std::size_t vm = config_.vms;
    for (std::size_t i = 0; i < config_.vms; ++i) {
      if (!vm_busy_[i] && vm_ready_[i]) {
        vm = i;
        break;
      }
    }
    if (vm == config_.vms) {
      for (std::size_t i = 0; i < config_.vms; ++i) {
        if (!vm_busy_[i]) {
          vm = i;
          break;
        }
      }
    }
    if (vm == config_.vms) return;  // all busy

    const std::uint32_t slot = waiting_.front();
    waiting_.pop_front();
    vm_busy_[vm] = true;
    AttemptRecord& record = attempt(slot);
    const SimJob& job = record.job;

    double provision = 0;
    if (!vm_ready_[vm]) {
      provision = rng_.lognormal(config_.provision_mu, config_.provision_sigma);
      vm_ready_[vm] = true;
      ++provisioned_;
    }
    const double exec = job.cpu_seconds / config_.node_speed;
    const std::string& label = vm_names_[vm];

    // Stock image: install_max == 0, stack baked in — no charge and no RNG
    // draw (keeps seeded runs replayable). Nonzero bounds model a bare
    // image; the cache model amortizes the download per VM.
    double install = 0;
    bool cache_hit = false;
    if (job.needs_software_setup && config_.install_max > 0) {
      install = rng_.uniform(config_.install_min, config_.install_max);
      if (install_model_ != nullptr && sink_live(record)) {
        const InstallOutcome outcome =
            install_model_->install(label, job.transformation, job.software_bytes, install);
        install = std::min(outcome.seconds, install);
        cache_hit = outcome.cache_hit;
        // VMs are reliable: installs always complete.
        install_model_->commit(label, job.transformation, job.software_bytes);
      }
    }

    record.node = static_cast<std::uint32_t>(vm);
    record.start_time = queue_.now() + provision;
    record.install_seconds = install;
    record.install_cache_hit = cache_hit;
    record.exec_seconds = exec;
    record.end_time = queue_.now() + provision + install + exec;

    queue_.schedule_in(provision + install + exec,
                       [this, slot, vm = static_cast<std::uint32_t>(vm)] {
      vm_busy_[vm] = false;
      deliver(slot);
      try_dispatch();
    });
  }
}

}  // namespace pga::sim
