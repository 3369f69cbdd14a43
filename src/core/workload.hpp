// The paper-scale workload model.
//
// The Fig. 4/Fig. 5 experiments ran on 236,529 wheat transcripts with
// 1,717,454 BLASTX hits; the serial blast2cap3 run took 100 hours. We
// cannot rerun that hardware, so this model reproduces the *workload
// shape*: a heavy-tailed distribution of protein-cluster sizes and a
// superlinear CAP3 cost per cluster, calibrated so that
//   * total serial CAP3 work matches the paper's 100-hour run, and
//   * the largest single cluster costs ~9,500 s — the straggler that
//     floors the workflow wall time near 10,000 s for every n >= 100
//     (paper §VI.A).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pga::core {

/// Knobs for the paper-scale workload.
struct WorkloadParams {
  std::size_t transcripts = 236'529;    ///< paper: transcripts.fasta records
  std::size_t proteins = 2'000;         ///< distinct protein clusters
  double zipf_s = 0.40;                 ///< cluster-size skew
  double cost_beta = 1.6;               ///< CAP3 cost ~ size^beta (superlinear)
  double serial_cap3_seconds = 352'000; ///< total CAP3 work (100 h minus prep)
  std::uint64_t seed = 42;

  // Fixed (per-task) costs of the non-CAP3 steps, from the paper's "few
  // minutes" description of the list/merge tasks.
  double create_list_seconds = 180;
  double split_base_seconds = 120;
  double split_per_chunk_seconds = 1.0;
  double run_cap3_fixed_seconds = 90;   ///< dict loading etc. per chunk
  double merge_joined_seconds = 150;
  double find_unjoined_seconds = 200;
  double final_merge_seconds = 120;
  /// The merge steps read one file per chunk; their cost grows with n.
  double merge_per_chunk_seconds = 0.3;
};

/// Deterministic cluster-size + cost model.
class WorkloadModel {
 public:
  /// Throws InvalidArgument unless transcripts >= proteins >= 1, cost_beta
  /// is finite and >= 1, serial_cap3_seconds is finite and > 0, and
  /// zipf_s and every per-step seconds knob are finite and >= 0.
  explicit WorkloadModel(const WorkloadParams& params = {});

  [[nodiscard]] const WorkloadParams& params() const { return params_; }

  /// Transcript count per protein cluster, descending, sized so they sum
  /// to ~params.transcripts.
  [[nodiscard]] const std::vector<std::size_t>& cluster_sizes() const {
    return cluster_sizes_;
  }

  /// CAP3 CPU-seconds for a cluster of `size` transcripts.
  [[nodiscard]] double cluster_cost(std::size_t size) const;

  /// Sum of all cluster costs — the serial CAP3 time.
  [[nodiscard]] double total_cap3_seconds() const { return total_cost_; }

  /// Cost of the most expensive single cluster (the parallel floor).
  [[nodiscard]] double largest_cluster_cost() const;

  /// CPU-seconds of each run_cap3 chunk when the alignments are split into
  /// n protein-atomic chunks with greedy largest-first balancing (the same
  /// policy b2c3::plan_split uses). Includes the per-chunk fixed cost.
  [[nodiscard]] std::vector<double> chunk_costs(std::size_t n) const;

  /// End-to-end serial pipeline time: prep + all CAP3 clusters + merges.
  [[nodiscard]] double serial_pipeline_seconds() const;

 private:
  WorkloadParams params_;
  std::vector<std::size_t> cluster_sizes_;
  double cost_alpha_ = 1.0;  ///< calibrated scale factor
  double total_cost_ = 0;
};

}  // namespace pga::core
