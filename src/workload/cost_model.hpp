// Per-task CPU and per-file IO cost models for generated workflows.
//
// Reuses the calibration idiom of pga::core::WorkloadParams (workload.cpp):
// Zipf-shaped weights with mild lognormal noise, raised to a superlinear
// exponent and scaled by a calibrated alpha so the *total* hits an explicit
// target — here `mean * count` instead of the paper's 100-hour serial run.
// That keeps totals comparable across distributions: switching kConstant ->
// kZipf redistributes work over tasks without changing the aggregate, so a
// policy-ablation delta is a scheduling effect, never a workload-size one.
//
// Everything is deterministic in (params, tasks, files): the CPU
// and IO streams are seeded independently, so changing the file count never
// shifts task costs and vice versa.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pga::workload {

/// How per-task (or per-file) costs are drawn.
enum class CostDistribution { kConstant, kUniform, kZipf };

[[nodiscard]] const char* distribution_name(CostDistribution distribution);

/// How drawn CPU costs map onto task ranks (== DAG build order). Shuffled
/// is the realistic default; ascending makes rank 0 the cheapest task —
/// the adversarial layout for FIFO release order, since greedy policies
/// then pay the straggler tail a cost-aware policy avoids.
enum class CostOrder { kShuffled, kAscending, kDescending };

/// Knobs for one workflow's cost model.
struct CostModelParams {
  // ----------------------------------------------------------- CPU model
  CostDistribution cpu = CostDistribution::kZipf;
  double cpu_mean_seconds = 300;  ///< calibration target: mean per task
  double cpu_min_seconds = 60;    ///< kUniform draw bounds
  double cpu_max_seconds = 600;
  double cpu_zipf_s = 0.40;       ///< rank skew (WorkloadParams::zipf_s idiom)
  double cpu_beta = 1.6;          ///< superlinear cost exponent (cost_beta)
  double cpu_noise_sigma = 0.25;  ///< lognormal wobble on the Zipf weights
  CostOrder cpu_order = CostOrder::kShuffled;

  // ------------------------------------------------------------ IO model
  /// Per-file bytes: ranks follow the lexicographic order of the DAX's
  /// workflow_inputs() followed by its workflow_outputs(). These drive
  /// replica sizes, hence the planner's stage-in/out pricing and the
  /// PR-3 data layer's modeled transfers.
  CostDistribution io = CostDistribution::kUniform;
  std::uint64_t io_mean_bytes = 64ull * 1024 * 1024;
  std::uint64_t io_min_bytes = 8ull * 1024 * 1024;
  std::uint64_t io_max_bytes = 128ull * 1024 * 1024;
  double io_zipf_s = 0.40;

  std::uint64_t seed = 42;
};

/// Deterministic per-rank cost lookup, drawn once at construction.
class CostModel {
 public:
  /// Throws InvalidArgument on a non-finite or negative cpu_* knob or
  /// io_zipf_s, non-positive means, inverted uniform bounds, or
  /// cpu_beta < 1 (matching WorkloadModel's contract).
  CostModel(const CostModelParams& params, std::size_t tasks, std::size_t files);

  [[nodiscard]] const CostModelParams& params() const { return params_; }

  /// CPU-seconds of the task at `rank` (its position in DAG build order).
  [[nodiscard]] double task_seconds(std::size_t rank) const;
  /// Bytes of the file at `rank` (inputs first, then outputs).
  [[nodiscard]] std::uint64_t file_bytes(std::size_t rank) const;

  [[nodiscard]] std::size_t file_count() const { return file_bytes_.size(); }
  [[nodiscard]] double total_task_seconds() const { return total_seconds_; }
  [[nodiscard]] std::uint64_t total_file_bytes() const { return total_bytes_; }

 private:
  CostModelParams params_;
  std::vector<double> task_seconds_;
  std::vector<std::uint64_t> file_bytes_;
  double total_seconds_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace pga::workload
