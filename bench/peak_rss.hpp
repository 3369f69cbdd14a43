// Peak resident set size of the running bench binary, for the JSON reports.
#pragma once

#include <cstddef>
#include <fstream>
#include <string>

namespace pga::bench {

/// Peak resident set size (VmHWM) in bytes; 0 if /proc is unavailable.
/// The mark is process-wide, so a sweep that reads it per point runs its
/// points smallest-first or resets the mark between them.
inline std::size_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6)) * 1024;
  }
  return 0;
}

}  // namespace pga::bench
