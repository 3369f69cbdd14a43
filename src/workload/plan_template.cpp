#include "workload/plan_template.hpp"

#include "common/error.hpp"

namespace pga::workload {

PlanKey PlanKey::of(const ShapeSpec& spec, std::string site,
                    std::size_t cluster_size) {
  return {.shape = spec.shape,
          .size = spec.size,
          .diamond_stages = spec.diamond_stages,
          .fan_arity_step = spec.fan_arity_step,
          .site = std::move(site),
          .cluster_size = cluster_size};
}

PlanTemplate::PlanTemplate(const ShapeSpec& spec, const std::string& site,
                           std::size_t cluster_size, std::optional<Instance>* first)
    : key_(PlanKey::of(spec, site, cluster_size)) {
  const wms::AbstractWorkflow abstract = build_workflow(spec);
  const wms::SiteCatalog sites = generator_site_catalog();
  wms::PlannerOptions options;
  options.target_site = site;
  options.cluster_factor = cluster_size;
  options.expected_output_bytes = expected_output_bytes(spec);
  wms::ReplicaCatalog replicas = generator_replica_catalog(abstract, spec);
  wms::ConcreteWorkflow planned =
      wms::plan(abstract, sites, generator_transformation_catalog(abstract),
                replicas, options);
  site_ = sites.site(site);

  // Keep the structure, drop the prices: compute and clustered jobs get
  // their hints back from the request's cost model by abstract rank (the
  // generator's rank == the abstract job's handle), stage jobs from its
  // file bytes.
  jobs_ = planned.jobs();
  rank_begin_.reserve(jobs_.size() + 1);
  for (std::uint32_t i = 0; i < jobs_.size(); ++i) {
    wms::ConcreteJob& job = jobs_[i];
    rank_begin_.push_back(static_cast<std::uint32_t>(ranks_.size()));
    switch (job.kind) {
      case wms::JobKind::kCompute:
        ranks_.push_back(abstract.job_index(job.id));
        job.cpu_seconds_hint = 0;
        break;
      case wms::JobKind::kClustered: {
        std::vector<std::string> members = planned.constituents_of(i);
        for (const auto& member : members) {
          ranks_.push_back(abstract.job_index(member));
        }
        constituents_.emplace_back(i, std::move(members));
        job.cpu_seconds_hint = 0;
        break;
      }
      case wms::JobKind::kStageIn:
        stage_in_ = i;
        job.cpu_seconds_hint = 0;
        job.staged_bytes = 0;
        break;
      case wms::JobKind::kStageOut:
        stage_out_ = i;
        job.cpu_seconds_hint = 0;
        job.staged_bytes = 0;
        break;
      default:
        break;  // setup hints are the flat kSetupJobSeconds, not costs
    }
    id_bytes_ += job.id.size();
  }
  rank_begin_.push_back(static_cast<std::uint32_t>(ranks_.size()));
  graph_ = planned.freeze();
  inputs_ = abstract.workflow_inputs();
  output_rank_ = closed_form_counts(spec).inputs;
  if (first != nullptr) {
    first->emplace(Instance{std::move(planned), std::move(replicas)});
  }
}

PlanTemplate::Instance PlanTemplate::instantiate(const ShapeSpec& spec) const {
  if (PlanKey::of(spec, key_.site, key_.cluster_size) != key_) {
    throw common::InvalidArgument(
        std::string("plan template ") + shape_name(key_.shape) + "-n" +
        std::to_string(key_.size) + "@" + key_.site + " cannot replay " +
        spec_name(spec));
  }
  const CostModel model = cost_model_for(spec);
  Instance out{wms::ConcreteWorkflow(spec_name(spec), site_.name), {}};

  // generator_replica_catalog: one submit-host replica per input, sized by
  // file rank; stage-in moves all of them, stage-out the final outputs.
  std::uint64_t in_bytes = 0;
  out.replicas.reserve(inputs_.size());
  for (std::size_t rank = 0; rank < inputs_.size(); ++rank) {
    const std::uint64_t bytes = model.file_bytes(rank);
    out.replicas.add(inputs_[rank], {"/data/" + inputs_[rank], "local", bytes});
    in_bytes += bytes;
  }
  std::uint64_t out_bytes = 0;
  for (std::size_t rank = output_rank_; rank < model.file_count(); ++rank) {
    out_bytes += model.file_bytes(rank);
  }

  wms::ConcreteWorkflow& workflow = out.workflow;
  workflow.share_frozen_graph(graph_);
  workflow.reserve(jobs_.size(), id_bytes_);
  wms::ConcreteJob* jobs = workflow.begin_bulk(jobs_.size());
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    jobs[i] = jobs_[i];
    if (rank_begin_[i] == rank_begin_[i + 1]) continue;
    // Summed from zero in member order, exactly like plan()'s clusters.
    double hint = 0;
    for (std::uint32_t r = rank_begin_[i]; r < rank_begin_[i + 1]; ++r) {
      hint += model.task_seconds(ranks_[r]);
    }
    jobs[i].cpu_seconds_hint = hint;
  }
  if (stage_in_ != kNone) {
    jobs[stage_in_].staged_bytes = in_bytes;
    jobs[stage_in_].cpu_seconds_hint = wms::stage_job_seconds(in_bytes, site_);
  }
  if (stage_out_ != kNone) {
    jobs[stage_out_].staged_bytes = out_bytes;
    jobs[stage_out_].cpu_seconds_hint = wms::stage_job_seconds(out_bytes, site_);
  }
  workflow.finish_bulk();
  for (const auto& [index, members] : constituents_) {
    workflow.set_constituents(index, members);
  }
  return out;
}

}  // namespace pga::workload
