// Plan templates: pegasus-plan once per topology, replayed per request.
//
// Pegasus plans an abstract workflow onto a site once (pegasus-plan, §III)
// and DAGMan then runs the concrete DAG. A WaaS fleet sees the same few
// topologies over and over: requests of one shape and size differ only in
// their seed and cost parameters, and those never change the DAG. So a
// PlanTemplate records build_workflow + wms::plan once for a topology key
// (shape, size, diamond_stages, fan_arity_step, site, cluster size) and
// keeps everything except the prices: the concrete jobs with zero cost
// hints, each job's abstract cost ranks in member order, the cluster
// constituents, the external input LFNs, and the plan's adjacency frozen
// once into a wms::FrozenGraph (name-ordered CSR children and parents,
// parent counts, topological order). instantiate(spec) replays it for any
// later request of that topology, pricing every job from the request's
// own cost model and building the request's replica catalog — the same
// bytes plan_shape and generator_replica_catalog produce (pinned over
// every shape, both sites and several cluster sizes in
// tests/wms_golden_log_test.cpp). Replayed workflows add no edges: they
// all share the template's one FrozenGraph, so no request rebuilds
// adjacency and no engine re-sorts it. The request that records a
// template keeps the plan it was recorded from, so a topology seen once
// costs one plan() and a copy of its jobs.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "wms/catalog.hpp"
#include "wms/frozen_graph.hpp"
#include "wms/planner.hpp"
#include "workload/generator.hpp"

namespace pga::workload {

/// What a planned DAG depends on. The seed and the cost parameters are
/// deliberately absent: they price jobs, never shape them.
struct PlanKey {
  Shape shape = Shape::kDiamond;
  std::size_t size = 0;
  std::size_t diamond_stages = 0;
  std::size_t fan_arity_step = 0;
  std::string site;
  std::size_t cluster_size = 1;

  /// The key of `spec`'s topology planned onto `site` with clustering
  /// factor `cluster_size`.
  [[nodiscard]] static PlanKey of(const ShapeSpec& spec, std::string site,
                                  std::size_t cluster_size);

  friend auto operator<=>(const PlanKey&, const PlanKey&) = default;
};

/// One topology, planned once; see the file comment.
class PlanTemplate {
 public:
  /// A request's planned workflow and the replica catalog it stages from.
  struct Instance {
    wms::ConcreteWorkflow workflow;
    wms::ReplicaCatalog replicas;
  };

  /// Plans `spec` onto `site` ("sandhills" or "osg") with planner
  /// cluster_factor `cluster_size` and records the plan. When `first` is
  /// given, that plan — already priced with spec's own costs — is moved
  /// into it, so the request that records a template pays for one plan()
  /// and no replay. Throws what plan_shape throws for the same arguments
  /// (bad size or costs, unknown site, zero cluster size).
  PlanTemplate(const ShapeSpec& spec, const std::string& site,
               std::size_t cluster_size, std::optional<Instance>* first = nullptr);

  /// plan_shape(spec, site, cluster_size) together with
  /// generator_replica_catalog(build_workflow(spec), spec), replayed from
  /// the template. The workflow shares graph() and so rejects new edges.
  /// Throws InvalidArgument when spec's topology is not this
  /// template's key, and whatever cost_model_for throws for bad cost
  /// parameters.
  [[nodiscard]] Instance instantiate(const ShapeSpec& spec) const;

  /// The frozen adjacency every replayed workflow shares.
  [[nodiscard]] const std::shared_ptr<const wms::FrozenGraph>& graph() const {
    return graph_;
  }

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  PlanKey key_;
  wms::SiteEntry site_;
  std::vector<wms::ConcreteJob> jobs_;  ///< plan() order, zero-priced
  std::size_t id_bytes_ = 0;            ///< total id length (interner reserve)
  /// Job i's cost ranks are ranks_[rank_begin_[i] .. rank_begin_[i + 1]):
  /// one for a compute job, the members' in member order for a cluster,
  /// none for stage jobs.
  std::vector<std::uint32_t> rank_begin_;
  std::vector<std::uint32_t> ranks_;
  std::shared_ptr<const wms::FrozenGraph> graph_;
  std::vector<std::pair<std::uint32_t, std::vector<std::string>>> constituents_;
  std::vector<std::string> inputs_;  ///< external inputs, file ranks 0..
  std::size_t output_rank_ = 0;      ///< file rank of the first final output
  std::uint32_t stage_in_ = kNone;
  std::uint32_t stage_out_ = kNone;
};

}  // namespace pga::workload
