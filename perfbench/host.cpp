#include "host.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <thread>

#include "align/simd.hpp"
#include "report.hpp"

namespace perfbench {

namespace {

std::string first_line(const char* path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// cgroup v2 `cpu.max`, else the v1 CFS quota/period pair in the same
/// "<quota|max> <period>" form; "unknown" when neither is readable.
std::string cgroup_cpu_max() {
  std::string v2 = first_line("/sys/fs/cgroup/cpu.max");
  if (!v2.empty()) return v2;
  const std::string quota = first_line("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
  const std::string period = first_line("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
  if (quota.empty() || period.empty()) return "unknown";
  return (quota == "-1" ? std::string("max") : quota) + " " + period;
}

}  // namespace

HostInfo probe_host() {
  HostInfo host;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    host.cores = static_cast<unsigned>(CPU_COUNT(&set));
  } else {
    host.cores = std::max(1u, std::thread::hardware_concurrency());
  }
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      host.cpu_model = colon == std::string::npos ? line : line.substr(colon + 2);
      break;
    }
  }
  if (host.cpu_model.empty()) host.cpu_model = "unknown";
  host.cpu_max = cgroup_cpu_max();
  host.simd_isa = pga::align::active_simd_isa();
  return host;
}

std::string HostInfo::render() const {
  std::ostringstream os;
  os << "host: cores=" << cores << " cpu=\"" << cpu_model << "\" cpu.max=\""
     << cpu_max << "\" simd=" << simd_isa;
  return os.str();
}

std::string HostInfo::json() const {
  std::ostringstream os;
  os << "{\"cores\": " << cores << ", \"cpu_model\": " << json_string(cpu_model)
     << ", \"cpu_max\": " << json_string(cpu_max)
     << ", \"simd_isa\": " << json_string(simd_isa) << "}";
  return os.str();
}

CoreRotation::CoreRotation() {
  CPU_ZERO(&original_);
  if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
}

CoreRotation::~CoreRotation() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
}

void CoreRotation::next() {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

}  // namespace perfbench
