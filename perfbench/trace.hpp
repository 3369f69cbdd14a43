// Benchmark-side tracing: spans recorded around the calls the benchmark
// makes into each layer of the library, plus named counters taken at the
// same boundaries.
//
// Single-threaded by design: every span opens and closes on the thread
// that drives the workload (the library's own worker threads are not
// traced here), so spans nest strictly and a layer's self time is its
// duration minus its direct children's. A disabled tracer records nothing
// and each span costs one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One finished span. Times are microseconds since the tracer was made.
struct SpanRecord {
  std::string name;
  double start_us = 0;
  double dur_us = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = a root span
  double child_us = 0;       ///< summed duration of direct children
};

/// Per-name totals over every recorded span.
struct LayerSummary {
  std::string name;
  std::size_t calls = 0;
  double total_s = 0;
  double self_s = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// RAII span; closes on destruction. Spans must close in reverse order
  /// of opening (scope nesting guarantees it).
  class Span {
   public:
    Span(Tracer& tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// Seconds since the span opened (valid whether or not tracing is on).
    [[nodiscard]] double elapsed() const;

   private:
    Tracer& tracer_;
    std::chrono::steady_clock::time_point start_;
    std::size_t slot_ = 0;  ///< index into tracer_.spans_ (enabled only)
  };

  /// Records a counter sample (Chrome "C" event) at the current time.
  void count(const std::string& name, double value);

  /// Duration of the most recent closed span named `name` (0 if none).
  [[nodiscard]] double last_seconds(const std::string& name) const;

  [[nodiscard]] std::vector<LayerSummary> summary() const;

  /// Chrome trace-event JSON (Perfetto opens it offline).
  void write_chrome_json(const std::filesystem::path& path) const;

 private:
  struct CounterRecord {
    std::string name;
    double ts_us = 0;
    double value = 0;
  };

  [[nodiscard]] double now_us() const;

  bool enabled_ = false;
  std::chrono::steady_clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> open_;  ///< stack of open span slots
  std::vector<CounterRecord> counters_;
};

}  // namespace perfbench
