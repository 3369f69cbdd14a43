#include "core/workload.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace pga::core {

WorkloadModel::WorkloadModel(const WorkloadParams& params) : params_(params) {
  if (params.proteins == 0 || params.transcripts < params.proteins) {
    throw common::InvalidArgument("workload: need transcripts >= proteins >= 1");
  }
  if (!(std::isfinite(params.cost_beta) && params.cost_beta >= 1.0)) {
    throw common::InvalidArgument("workload: cost_beta must be finite and >= 1");
  }
  constexpr const char* kWhere = "workload";
  common::require_non_negative(kWhere, "zipf_s", params.zipf_s);
  common::require_non_negative(kWhere, "serial_cap3_seconds", params.serial_cap3_seconds);
  if (params.serial_cap3_seconds == 0) {
    throw common::InvalidArgument("workload: serial_cap3_seconds must be > 0");
  }
  common::require_non_negative(kWhere, "create_list_seconds", params.create_list_seconds);
  common::require_non_negative(kWhere, "split_base_seconds", params.split_base_seconds);
  common::require_non_negative(kWhere, "split_per_chunk_seconds",
                               params.split_per_chunk_seconds);
  common::require_non_negative(kWhere, "run_cap3_fixed_seconds",
                               params.run_cap3_fixed_seconds);
  common::require_non_negative(kWhere, "merge_joined_seconds",
                               params.merge_joined_seconds);
  common::require_non_negative(kWhere, "find_unjoined_seconds",
                               params.find_unjoined_seconds);
  common::require_non_negative(kWhere, "final_merge_seconds", params.final_merge_seconds);
  common::require_non_negative(kWhere, "merge_per_chunk_seconds",
                               params.merge_per_chunk_seconds);

  // Zipf-shaped sizes with mild multiplicative noise, then scaled to the
  // transcript total. Every cluster keeps at least 1 transcript.
  common::Rng rng(params.seed);
  std::vector<double> raw(params.proteins);
  for (std::size_t k = 0; k < params.proteins; ++k) {
    const double zipf = std::pow(static_cast<double>(k + 1), -params.zipf_s);
    raw[k] = zipf * rng.lognormal(0.0, 0.25);
  }
  std::sort(raw.begin(), raw.end(), std::greater<>());
  double raw_sum = 0;
  for (const double r : raw) raw_sum += r;

  cluster_sizes_.resize(params.proteins);
  std::size_t assigned = 0;
  for (std::size_t k = 0; k < params.proteins; ++k) {
    const auto size = static_cast<std::size_t>(std::max(
        1.0, std::floor(raw[k] / raw_sum * static_cast<double>(params.transcripts))));
    cluster_sizes_[k] = size;
    assigned += size;
  }
  // Distribute the rounding remainder over the head.
  std::size_t k = 0;
  while (assigned < params.transcripts) {
    ++cluster_sizes_[k % params.proteins];
    ++assigned;
    ++k;
  }

  // Calibrate alpha so total CAP3 work hits the paper's serial time.
  double unscaled = 0;
  for (const std::size_t size : cluster_sizes_) {
    unscaled += std::pow(static_cast<double>(size), params.cost_beta);
  }
  cost_alpha_ = params.serial_cap3_seconds / unscaled;
  total_cost_ = 0;
  for (const std::size_t size : cluster_sizes_) total_cost_ += cluster_cost(size);
}

double WorkloadModel::cluster_cost(std::size_t size) const {
  return cost_alpha_ * std::pow(static_cast<double>(size), params_.cost_beta);
}

double WorkloadModel::largest_cluster_cost() const {
  return cluster_cost(cluster_sizes_.front());
}

std::vector<double> WorkloadModel::chunk_costs(std::size_t n) const {
  if (n == 0) throw common::InvalidArgument("chunk_costs: n must be >= 1");
  // Greedy largest-first into the least-loaded chunk — the same policy the
  // real splitter uses (b2c3::plan_split). Crucially the splitter balances
  // by *hit count* (cluster size), not by CAP3 cost; since cost is
  // superlinear in size, size-balanced chunks still carry a cost imbalance
  // — the origin of the paper's 41,593 s straggler chunk at n = 10.
  using Load = std::pair<double, std::size_t>;
  std::priority_queue<Load, std::vector<Load>, std::greater<>> chunks;
  for (std::size_t i = 0; i < n; ++i) chunks.push({0.0, i});
  std::vector<double> cost(n, 0.0);
  for (const std::size_t size : cluster_sizes_) {  // already descending
    auto [load, chunk] = chunks.top();
    chunks.pop();
    cost[chunk] += cluster_cost(size);
    chunks.push({load + static_cast<double>(size), chunk});
  }
  for (double& c : cost) c += params_.run_cap3_fixed_seconds;
  return cost;
}

double WorkloadModel::serial_pipeline_seconds() const {
  return 2 * params_.create_list_seconds + total_cost_ +
         params_.merge_joined_seconds + params_.find_unjoined_seconds +
         params_.final_merge_seconds;
}

}  // namespace pga::core
