// Host fingerprint and process memory, printed with every report so kernel
// and pool numbers from different machines are never compared blind.
#pragma once

#include <sched.h>

#include <string>
#include <vector>

namespace perfbench {

struct HostInfo {
  unsigned cores = 1;     ///< CPUs in this process's affinity mask
  std::string cpu_model;  ///< /proc/cpuinfo "model name"
  std::string cpu_max;    ///< cgroup CPU quota ("max 100000" = unlimited)
  std::string simd_isa;   ///< alignment kernel dispatch actually in use

  [[nodiscard]] std::string render() const;  ///< one "host: ..." line
  [[nodiscard]] std::string json() const;
};

[[nodiscard]] HostInfo probe_host();

/// Moves the calling thread to the next CPU of the affinity mask it had
/// when constructed, round-robin; restores that mask on destruction.
/// Single-threaded passes rotate so that a core slowed by outside load
/// weighs the same in every run instead of holding one run's thread.
class CoreRotation {
 public:
  CoreRotation();
  ~CoreRotation();
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;
  void next();

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

/// Peak resident set size of this process (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
