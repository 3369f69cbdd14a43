// Run options, the metric report every workload fills, and small
// statistics helpers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line settings shared by every workload.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< measuring time for the timed passes
  bool trace = false;   ///< per-layer (traced) run instead of end-to-end
  bool smoke = false;   ///< tiny inputs, for the benchmark's own test
  std::filesystem::path out_dir;   ///< trace files land here
  std::filesystem::path work_dir;  ///< scratch files; removed at exit
};

/// Metrics, output checks and human-readable notes of one run. The last
/// line print() writes is the single JSON result object.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records an output check; a false `ok` makes the run incorrect.
  void check(bool ok, const std::string& what);
  /// A line printed above the JSON result.
  void note(const std::string& line);

  std::size_t attempted = 0;
  std::size_t failed = 0;

  [[nodiscard]] bool correct() const { return check_failures_ == 0; }
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::size_t check_failures_ = 0;
};

[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double min_of(const std::vector<double>& values);
/// "<name>: n=.. min=.. median=.. max=.." for a note line.
[[nodiscard]] std::string describe(const std::string& name,
                                   const std::vector<double>& values);

/// Per-pass samples of named metrics, reported as their medians.
class Samples {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  void emit_medians(Report& report) const;

 private:
  struct Series {
    std::string name;
    std::string unit;
    std::vector<double> values;
  };
  std::vector<Series> series_;  ///< first-added order
};

/// JSON literal helpers (numbers keep every significant digit; a
/// non-finite number throws).
[[nodiscard]] std::string json_string(const std::string& text);
[[nodiscard]] std::string json_number(double value);

}  // namespace perfbench
