#include "workload/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace pga::workload {

const char* distribution_name(CostDistribution distribution) {
  switch (distribution) {
    case CostDistribution::kConstant: return "constant";
    case CostDistribution::kUniform: return "uniform";
    case CostDistribution::kZipf: return "zipf";
  }
  return "?";
}

namespace {

/// Zipf-shaped positive weights: (k+1)^-s with mild multiplicative noise —
/// the WorkloadModel cluster-size idiom, minus its final integer rounding.
std::vector<double> zipf_weights(common::Rng& rng, std::size_t count, double s,
                                 double noise_sigma) {
  std::vector<double> weights(count);
  for (std::size_t k = 0; k < count; ++k) {
    weights[k] = std::pow(static_cast<double>(k + 1), -s) *
                 (noise_sigma > 0 ? rng.lognormal(0.0, noise_sigma) : 1.0);
  }
  return weights;
}

void apply_order(std::vector<double>& values, CostOrder order, common::Rng& rng) {
  switch (order) {
    case CostOrder::kShuffled: rng.shuffle(values); break;
    case CostOrder::kAscending: std::sort(values.begin(), values.end()); break;
    case CostOrder::kDescending:
      std::sort(values.begin(), values.end(), std::greater<>());
      break;
  }
}

}  // namespace

CostModel::CostModel(const CostModelParams& params, std::size_t tasks,
                     std::size_t files)
    : params_(params) {
  constexpr const char* kWhere = "cost model";
  common::require_non_negative(kWhere, "cpu_mean_seconds", params.cpu_mean_seconds);
  common::require_non_negative(kWhere, "cpu_min_seconds", params.cpu_min_seconds);
  common::require_non_negative(kWhere, "cpu_max_seconds", params.cpu_max_seconds);
  common::require_non_negative(kWhere, "cpu_zipf_s", params.cpu_zipf_s);
  common::require_non_negative(kWhere, "cpu_noise_sigma", params.cpu_noise_sigma);
  common::require_non_negative(kWhere, "io_zipf_s", params.io_zipf_s);
  if (params.cpu_mean_seconds == 0 || params.io_mean_bytes == 0) {
    throw common::InvalidArgument("cost model: means must be positive");
  }
  if (params.cpu_min_seconds > params.cpu_max_seconds ||
      params.io_min_bytes > params.io_max_bytes) {
    throw common::InvalidArgument("cost model: min bound exceeds max bound");
  }
  if (!(std::isfinite(params.cpu_beta) && params.cpu_beta >= 1.0)) {
    throw common::InvalidArgument("cost model: cpu_beta must be finite and >= 1");
  }

  // Independent streams: task costs never shift when the file count
  // changes, and vice versa.
  common::Rng cpu_rng(params.seed);
  common::Rng io_rng(params.seed ^ 0xf11ebeefc0dec0deULL);

  task_seconds_.resize(tasks);
  switch (params.cpu) {
    case CostDistribution::kConstant:
      std::fill(task_seconds_.begin(), task_seconds_.end(),
                params.cpu_mean_seconds);
      break;
    case CostDistribution::kUniform:
      for (double& cost : task_seconds_) {
        cost = cpu_rng.uniform(params.cpu_min_seconds, params.cpu_max_seconds);
      }
      apply_order(task_seconds_, params.cpu_order, cpu_rng);
      break;
    case CostDistribution::kZipf: {
      // cost_k = alpha * w_k^beta with alpha calibrated so the total hits
      // mean * count — the WorkloadModel calibration with an explicit
      // target instead of the paper's serial_cap3_seconds.
      const auto weights = zipf_weights(cpu_rng, tasks, params.cpu_zipf_s,
                                        params.cpu_noise_sigma);
      double unscaled = 0;
      for (const double w : weights) unscaled += std::pow(w, params.cpu_beta);
      const double alpha =
          unscaled > 0
              ? params.cpu_mean_seconds * static_cast<double>(tasks) / unscaled
              : 0.0;
      for (std::size_t k = 0; k < tasks; ++k) {
        task_seconds_[k] = alpha * std::pow(weights[k], params.cpu_beta);
      }
      apply_order(task_seconds_, params.cpu_order, cpu_rng);
      break;
    }
  }
  for (const double cost : task_seconds_) total_seconds_ += cost;

  file_bytes_.resize(files);
  switch (params.io) {
    case CostDistribution::kConstant:
      std::fill(file_bytes_.begin(), file_bytes_.end(), params.io_mean_bytes);
      break;
    case CostDistribution::kUniform:
      for (std::uint64_t& bytes : file_bytes_) {
        bytes = static_cast<std::uint64_t>(
            io_rng.uniform(static_cast<double>(params.io_min_bytes),
                           static_cast<double>(params.io_max_bytes)));
      }
      break;
    case CostDistribution::kZipf: {
      // Noiseless rank law calibrated to the mean: a few big references,
      // a long tail of small per-chunk files.
      double unscaled = 0;
      for (std::size_t k = 0; k < files; ++k) {
        unscaled += std::pow(static_cast<double>(k + 1), -params.io_zipf_s);
      }
      const double alpha =
          unscaled > 0 ? static_cast<double>(params.io_mean_bytes) *
                             static_cast<double>(files) / unscaled
                       : 0.0;
      for (std::size_t k = 0; k < files; ++k) {
        file_bytes_[k] = static_cast<std::uint64_t>(std::max(
            1.0, alpha * std::pow(static_cast<double>(k + 1), -params.io_zipf_s)));
      }
      break;
    }
  }
  for (const std::uint64_t bytes : file_bytes_) total_bytes_ += bytes;
}

double CostModel::task_seconds(std::size_t rank) const {
  if (rank >= task_seconds_.size()) {
    throw common::InvalidArgument("cost model: task rank out of range");
  }
  return task_seconds_[rank];
}

std::uint64_t CostModel::file_bytes(std::size_t rank) const {
  if (rank >= file_bytes_.size()) {
    throw common::InvalidArgument("cost model: file rank out of range");
  }
  return file_bytes_[rank];
}

}  // namespace pga::workload
