#include "core/b2c3_workflow.hpp"

#include "common/error.hpp"
#include "workload/generator.hpp"

namespace pga::core {

using wms::AbstractJob;
using wms::AbstractWorkflow;
using wms::FileUse;
using wms::LinkType;

AbstractWorkflow build_blast2cap3_dax(const B2c3WorkflowSpec& spec,
                                      const WorkloadModel* workload) {
  if (spec.n == 0) throw common::InvalidArgument("blast2cap3: n must be >= 1");
  AbstractWorkflow wf("blast2cap3-n" + std::to_string(spec.n));

  const auto cost = [&](double seconds) {
    return workload == nullptr ? 0.0 : seconds;
  };
  const WorkloadParams params = workload ? workload->params() : WorkloadParams{};

  // create_transcripts_list(): FASTA -> transcript dict.
  {
    AbstractJob job;
    job.id = "create_transcripts_list";
    job.transformation = "create_list";
    job.args = {spec.transcripts_lfn};
    job.uses = {{spec.transcripts_lfn, LinkType::kInput},
                {"transcripts_dict.txt", LinkType::kOutput}};
    job.cpu_seconds_hint = cost(params.create_list_seconds);
    wf.add_job(std::move(job));
  }
  // create_alignments_list(): validate/normalize the BLASTX table.
  {
    AbstractJob job;
    job.id = "create_alignments_list";
    job.transformation = "create_list";
    job.args = {spec.alignments_lfn};
    job.uses = {{spec.alignments_lfn, LinkType::kInput},
                {"alignments_list.txt", LinkType::kOutput}};
    job.cpu_seconds_hint = cost(params.create_list_seconds);
    wf.add_job(std::move(job));
  }
  // split(): n protein-atomic chunks.
  {
    AbstractJob job;
    job.id = "split";
    job.transformation = "split_alignments";
    job.args = {"-n", std::to_string(spec.n)};
    job.uses.push_back({"alignments_list.txt", LinkType::kInput});
    for (std::size_t i = 0; i < spec.n; ++i) {
      job.uses.push_back({"protein_" + std::to_string(i) + ".txt", LinkType::kOutput});
    }
    job.cpu_seconds_hint =
        cost(params.split_base_seconds +
             params.split_per_chunk_seconds * static_cast<double>(spec.n));
    wf.add_job(std::move(job));
  }
  // run_cap3_i(): the parallel heart of the workflow.
  const std::vector<double> chunk_costs =
      workload ? workload->chunk_costs(spec.n) : std::vector<double>(spec.n, 0.0);
  for (std::size_t i = 0; i < spec.n; ++i) {
    AbstractJob job;
    job.id = "run_cap3_" + std::to_string(i);
    job.transformation = "run_cap3";
    job.args = {"protein_" + std::to_string(i) + ".txt"};
    job.uses = {{"transcripts_dict.txt", LinkType::kInput},
                {"protein_" + std::to_string(i) + ".txt", LinkType::kInput},
                {"joined_" + std::to_string(i) + ".fasta", LinkType::kOutput},
                {"members_" + std::to_string(i) + ".txt", LinkType::kOutput}};
    job.cpu_seconds_hint = chunk_costs[i];
    wf.add_job(std::move(job));
  }
  // merge_joined(): concatenate all per-chunk contigs.
  {
    AbstractJob job;
    job.id = "merge_joined";
    job.transformation = "merge_joined";
    for (std::size_t i = 0; i < spec.n; ++i) {
      job.uses.push_back({"joined_" + std::to_string(i) + ".fasta", LinkType::kInput});
    }
    job.uses.push_back({"joined.fasta", LinkType::kOutput});
    job.cpu_seconds_hint =
        cost(params.merge_joined_seconds +
             params.merge_per_chunk_seconds * static_cast<double>(spec.n));
    wf.add_job(std::move(job));
  }
  // find_unjoined(): transcripts absorbed by no contig.
  {
    AbstractJob job;
    job.id = "find_unjoined";
    job.transformation = "find_unjoined";
    job.uses.push_back({"transcripts_dict.txt", LinkType::kInput});
    for (std::size_t i = 0; i < spec.n; ++i) {
      job.uses.push_back({"members_" + std::to_string(i) + ".txt", LinkType::kInput});
    }
    job.uses.push_back({"unjoined.fasta", LinkType::kOutput});
    job.cpu_seconds_hint =
        cost(params.find_unjoined_seconds +
             params.merge_per_chunk_seconds * static_cast<double>(spec.n));
    wf.add_job(std::move(job));
  }
  // final_merge(): joined + unjoined -> the assembly.
  {
    AbstractJob job;
    job.id = "final_merge";
    job.transformation = "final_merge";
    job.uses = {{"joined.fasta", LinkType::kInput},
                {"unjoined.fasta", LinkType::kInput},
                {spec.output_lfn, LinkType::kOutput}};
    job.cpu_seconds_hint = cost(params.final_merge_seconds);
    wf.add_job(std::move(job));
  }

  wf.infer_dependencies_from_files();
  wf.validate();
  return wf;
}

wms::ReplicaCatalog paper_replica_catalog(const B2c3WorkflowSpec& spec) {
  wms::ReplicaCatalog rc;
  // §V.A: transcripts.fasta is 404 MB, alignments.out is 155 MB.
  rc.add(spec.transcripts_lfn,
         {"/data/" + spec.transcripts_lfn, "local", 404ull * 1024 * 1024});
  rc.add(spec.alignments_lfn,
         {"/data/" + spec.alignments_lfn, "local", 155ull * 1024 * 1024});
  return rc;
}

wms::ConcreteWorkflow plan_for_site(const wms::AbstractWorkflow& dax,
                                    const std::string& site,
                                    const B2c3WorkflowSpec& spec,
                                    std::size_t cluster_factor) {
  wms::PlannerOptions options;
  options.target_site = site;
  options.cluster_factor = cluster_factor;
  return wms::plan(dax, workload::generator_site_catalog(),
                   workload::generator_transformation_catalog(dax),
                   paper_replica_catalog(spec), options);
}

}  // namespace pga::core
