#include "workload/generator.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace pga::workload {

using wms::AbstractJob;
using wms::AbstractWorkflow;
using wms::FileUse;
using wms::LinkType;

const char* shape_name(Shape shape) {
  switch (shape) {
    case Shape::kChain: return "chain";
    case Shape::kFan: return "fan";
    case Shape::kDiamond: return "diamond";
    case Shape::kMontage: return "montage";
    case Shape::kNgsPipeline: return "ngs";
    case Shape::kBlast2cap3: return "blast2cap3";
  }
  return "?";
}

Shape parse_shape(const std::string& name) {
  for (const Shape shape : all_shapes()) {
    if (name == shape_name(shape)) return shape;
  }
  throw common::InvalidArgument("unknown workflow shape: " + name);
}

std::vector<Shape> all_shapes() {
  return {Shape::kChain,   Shape::kFan,         Shape::kDiamond,
          Shape::kMontage, Shape::kNgsPipeline, Shape::kBlast2cap3};
}

std::string tag(std::size_t i, std::size_t count) {
  std::string digits = std::to_string(i);
  const std::size_t width = std::to_string(count > 0 ? count - 1 : 0).size();
  if (digits.size() < width) digits.insert(0, width - digits.size(), '0');
  return digits;
}

namespace {

using common::mix64;

/// Leaves under the fan's gateways: sum of (1 + i*step).
std::size_t fan_leaves(std::size_t n, std::size_t step) {
  return n + step * (n * (n - 1) / 2);
}

void check_size(const ShapeSpec& spec) {
  const std::size_t minimum = spec.shape == Shape::kMontage ? 2 : 1;
  if (spec.size < minimum) {
    throw common::InvalidArgument(std::string("shape ") + shape_name(spec.shape) +
                                  ": size must be >= " + std::to_string(minimum));
  }
  if (spec.shape == Shape::kDiamond && spec.diamond_stages == 0) {
    throw common::InvalidArgument("diamond: diamond_stages must be >= 1");
  }
}

/// Appends one job; the caller wires edges by the returned handle.
struct Builder {
  AbstractWorkflow& wf;
  const CostModel& model;
  std::size_t rank = 0;

  std::uint32_t add(std::string id, std::string transformation,
                    std::vector<FileUse> uses) {
    AbstractJob job;
    job.id = std::move(id);
    job.transformation = std::move(transformation);
    job.uses = std::move(uses);
    job.cpu_seconds_hint = model.task_seconds(rank++);
    return wf.add_job(std::move(job));
  }
};

}  // namespace

ShapeCounts closed_form_counts(const ShapeSpec& spec) {
  check_size(spec);
  const std::size_t n = spec.size;
  ShapeCounts counts;
  switch (spec.shape) {
    case Shape::kChain:
      counts = {.jobs = n, .edges = n - 1, .inputs = 1, .outputs = 1};
      break;
    case Shape::kFan: {
      if (spec.fan_arity_step == 0) {
        counts = {.jobs = n + 2, .edges = 2 * n, .inputs = 1, .outputs = 1};
      } else {
        const std::size_t leaves = fan_leaves(n, spec.fan_arity_step);
        counts = {.jobs = 2 + n + leaves,
                  .edges = n + 2 * leaves,
                  .inputs = 1,
                  .outputs = 1};
      }
      break;
    }
    case Shape::kDiamond: {
      const std::size_t s = spec.diamond_stages;
      counts = {.jobs = 1 + s * (n + 1),
                .edges = 2 * s * n,
                .inputs = 1,
                .outputs = 1};
      break;
    }
    case Shape::kMontage:
      // n project + (n-1) diff + n background + concat/bg_model/img_tbl/
      // m_add/m_shrink/m_jpeg.
      counts = {.jobs = 3 * n + 5, .edges = 6 * n + 1, .inputs = n, .outputs = 1};
      break;
    case Shape::kNgsPipeline:
      counts = {.jobs = 4 * n + 2,
                .edges = 4 * n + 1,
                .inputs = n + 1,
                .outputs = 1};
      break;
    case Shape::kBlast2cap3:
      counts = {.jobs = n + 6, .edges = 4 * n + 4, .inputs = 2, .outputs = 1};
      break;
  }
  return counts;
}

std::string spec_name(const ShapeSpec& spec) {
  return std::string(shape_name(spec.shape)) + "-n" + std::to_string(spec.size) +
         "-s" + std::to_string(spec.seed);
}

CostModel cost_model_for(const ShapeSpec& spec) {
  const ShapeCounts counts = closed_form_counts(spec);
  CostModelParams params = spec.cost;
  params.seed = params.seed ^ mix64(spec.seed);
  return CostModel(params, counts.jobs, counts.inputs + counts.outputs);
}

wms::AbstractWorkflow build_workflow(const ShapeSpec& spec) {
  check_size(spec);
  const CostModel model = cost_model_for(spec);
  const std::size_t n = spec.size;
  const ShapeCounts counts = closed_form_counts(spec);
  AbstractWorkflow wf(spec_name(spec));
  // Ids average well under 24 bytes across every shape; the estimate only
  // sizes the interner's arena, overshoot is harmless.
  wf.reserve(counts.jobs, counts.jobs * 24);
  Builder b{wf, model};
  // Patterns reference dst handles, so each is recorded after every job of
  // its family exists.

  switch (spec.shape) {
    case Shape::kChain: {
      for (std::size_t i = 0; i < n; ++i) {
        std::vector<FileUse> uses;
        if (i == 0) {
          uses.push_back({"chain_input.dat", LinkType::kInput});
        } else {
          uses.push_back({"chain_" + tag(i - 1, n) + ".dat", LinkType::kInput});
        }
        if (i + 1 == n) {
          uses.push_back({"chain_result.dat", LinkType::kOutput});
        } else {
          uses.push_back({"chain_" + tag(i, n) + ".dat", LinkType::kOutput});
        }
        b.add("step_" + tag(i, n), "chain_step", std::move(uses));
      }
      if (n > 1) {
        wf.add_edge_pattern({.src_begin = 0,
                             .dst_begin = 1,
                             .count = static_cast<std::uint32_t>(n - 1),
                             .src_stride = 1,
                             .dst_stride = 1});
      }
      break;
    }

    case Shape::kFan: {
      const std::size_t step = spec.fan_arity_step;
      const std::uint32_t source =
          b.add("source", "fan_source",
                {{"fan_input.dat", LinkType::kInput},
                 {"fanned.dat", LinkType::kOutput}});
      std::vector<FileUse> sink_uses;
      std::vector<std::uint32_t> leaves;
      for (std::size_t i = 0; i < n; ++i) {
        const std::string gateway_out = "gate_" + tag(i, n) + ".dat";
        const std::uint32_t gateway = b.add(
            (step == 0 ? "worker_" : "gateway_") + tag(i, n),
            step == 0 ? "fan_worker" : "fan_gateway",
            {{"fanned.dat", LinkType::kInput}, {gateway_out, LinkType::kOutput}});
        if (step == 0) {
          sink_uses.push_back({gateway_out, LinkType::kInput});
          continue;
        }
        wf.add_dependency(source, gateway);
        const std::size_t arity = 1 + i * step;
        for (std::size_t j = 0; j < arity; ++j) {
          const std::string leaf_out =
              "leaf_" + tag(i, n) + "_" + tag(j, arity) + ".dat";
          const std::uint32_t leaf =
              b.add("leaf_" + tag(i, n) + "_" + tag(j, arity), "fan_leaf",
                    {{gateway_out, LinkType::kInput},
                     {leaf_out, LinkType::kOutput}});
          wf.add_dependency(gateway, leaf);
          sink_uses.push_back({leaf_out, LinkType::kInput});
          leaves.push_back(leaf);
        }
      }
      sink_uses.push_back({"fan_result.dat", LinkType::kOutput});
      const std::uint32_t sink = b.add("sink", "fan_sink", std::move(sink_uses));
      if (step == 0) {
        // source -> workers 1..n, workers -> sink; the fan-heavy variant
        // (step > 0) keeps explicit edges — its leaf arities are irregular.
        const auto count = static_cast<std::uint32_t>(n);
        wf.add_edge_pattern({.src_begin = source,
                             .dst_begin = 1,
                             .count = count,
                             .src_stride = 0,
                             .dst_stride = 1});
        wf.add_edge_pattern({.src_begin = 1,
                             .dst_begin = sink,
                             .count = count,
                             .src_stride = 1,
                             .dst_stride = 0});
      } else {
        for (const std::uint32_t leaf : leaves) wf.add_dependency(leaf, sink);
      }
      break;
    }

    case Shape::kDiamond: {
      const std::size_t stages = spec.diamond_stages;
      // Two patterns per stage; past the pattern cap (very deep diamonds)
      // the explicit path takes over transparently.
      const bool stage_patterns = 2 * stages <= wms::WorkflowGraph::kMaxPatterns;
      const std::uint32_t source =
          b.add("source", "diamond_source",
                {{"diamond_input.dat", LinkType::kInput},
                 {"stage_" + tag(0, stages + 1) + ".dat", LinkType::kOutput}});
      std::uint32_t gate = source;
      for (std::size_t t = 0; t < stages; ++t) {
        const std::string stage_in = "stage_" + tag(t, stages + 1) + ".dat";
        std::vector<FileUse> join_uses;
        std::vector<std::uint32_t> mids;
        for (std::size_t j = 0; j < n; ++j) {
          const std::string mid_out =
              "mid_" + tag(t, stages) + "_" + tag(j, n) + ".dat";
          const std::uint32_t mid =
              b.add("mid_" + tag(t, stages) + "_" + tag(j, n), "diamond_work",
                    {{stage_in, LinkType::kInput}, {mid_out, LinkType::kOutput}});
          if (!stage_patterns) wf.add_dependency(gate, mid);
          join_uses.push_back({mid_out, LinkType::kInput});
          mids.push_back(mid);
        }
        join_uses.push_back(
            {t + 1 == stages ? "diamond_result.dat"
                             : "stage_" + tag(t + 1, stages + 1) + ".dat",
             LinkType::kOutput});
        const std::uint32_t join =
            b.add("join_" + tag(t, stages), "diamond_join", std::move(join_uses));
        if (stage_patterns) {
          const auto count = static_cast<std::uint32_t>(n);
          wf.add_edge_pattern({.src_begin = gate,
                               .dst_begin = mids.front(),
                               .count = count,
                               .src_stride = 0,
                               .dst_stride = 1});
          wf.add_edge_pattern({.src_begin = mids.front(),
                               .dst_begin = join,
                               .count = count,
                               .src_stride = 1,
                               .dst_stride = 0});
        } else {
          for (const std::uint32_t mid : mids) wf.add_dependency(mid, join);
        }
        gate = join;
      }
      break;
    }

    case Shape::kMontage: {
      std::vector<std::uint32_t> projects;
      for (std::size_t i = 0; i < n; ++i) {
        projects.push_back(b.add(
            "project_" + tag(i, n), "m_project",
            {{"raw_" + tag(i, n) + ".fits", LinkType::kInput},
             {"proj_" + tag(i, n) + ".fits", LinkType::kOutput}}));
      }
      std::vector<FileUse> concat_uses;
      std::vector<std::uint32_t> diffs;
      for (std::size_t i = 0; i + 1 < n; ++i) {
        const std::string fit = "fit_" + tag(i, n - 1) + ".txt";
        const std::uint32_t diff = b.add(
            "diff_" + tag(i, n - 1), "m_diff_fit",
            {{"proj_" + tag(i, n) + ".fits", LinkType::kInput},
             {"proj_" + tag(i + 1, n) + ".fits", LinkType::kInput},
             {fit, LinkType::kOutput}});
        wf.add_dependency(projects[i], diff);
        wf.add_dependency(projects[i + 1], diff);
        concat_uses.push_back({fit, LinkType::kInput});
        diffs.push_back(diff);
      }
      concat_uses.push_back({"fits.tbl", LinkType::kOutput});
      const std::uint32_t concat =
          b.add("concat_fit", "m_concat_fit", std::move(concat_uses));
      for (const std::uint32_t diff : diffs) wf.add_dependency(diff, concat);
      const std::uint32_t bg_model =
          b.add("bg_model", "m_bg_model",
                {{"fits.tbl", LinkType::kInput},
                 {"corrections.tbl", LinkType::kOutput}});
      wf.add_dependency(concat, bg_model);
      std::vector<FileUse> tbl_uses;
      std::vector<std::uint32_t> backgrounds;
      for (std::size_t i = 0; i < n; ++i) {
        const std::string corr = "corr_" + tag(i, n) + ".fits";
        const std::uint32_t background = b.add(
            "background_" + tag(i, n), "m_background",
            {{"proj_" + tag(i, n) + ".fits", LinkType::kInput},
             {"corrections.tbl", LinkType::kInput},
             {corr, LinkType::kOutput}});
        wf.add_dependency(bg_model, background);
        wf.add_dependency(projects[i], background);
        tbl_uses.push_back({corr, LinkType::kInput});
        backgrounds.push_back(background);
      }
      tbl_uses.push_back({"images.tbl", LinkType::kOutput});
      const std::uint32_t img_tbl =
          b.add("img_tbl", "m_img_tbl", std::move(tbl_uses));
      for (const std::uint32_t background : backgrounds) {
        wf.add_dependency(background, img_tbl);
      }
      const std::uint32_t m_add = b.add("m_add", "m_add",
                                        {{"images.tbl", LinkType::kInput},
                                         {"mosaic.fits", LinkType::kOutput}});
      wf.add_dependency(img_tbl, m_add);
      const std::uint32_t shrink =
          b.add("m_shrink", "m_shrink",
                {{"mosaic.fits", LinkType::kInput},
                 {"mosaic_small.fits", LinkType::kOutput}});
      wf.add_dependency(m_add, shrink);
      const std::uint32_t jpeg = b.add("m_jpeg", "m_jpeg",
                                       {{"mosaic_small.fits", LinkType::kInput},
                                        {"mosaic.jpg", LinkType::kOutput}});
      wf.add_dependency(shrink, jpeg);
      break;
    }

    case Shape::kNgsPipeline: {
      std::vector<FileUse> joint_uses;
      std::vector<std::uint32_t> calls;
      for (std::size_t i = 0; i < n; ++i) {
        const std::string s = tag(i, n);
        const std::uint32_t align = b.add(
            "align_" + s, "ngs_align",
            {{"reads_" + s + ".fastq", LinkType::kInput},
             {"reference.fasta", LinkType::kInput},
             {"aligned_" + s + ".bam", LinkType::kOutput}});
        const std::uint32_t sort = b.add(
            "sort_" + s, "ngs_sort",
            {{"aligned_" + s + ".bam", LinkType::kInput},
             {"sorted_" + s + ".bam", LinkType::kOutput}});
        const std::uint32_t dedup = b.add(
            "dedup_" + s, "ngs_dedup",
            {{"sorted_" + s + ".bam", LinkType::kInput},
             {"dedup_" + s + ".bam", LinkType::kOutput}});
        const std::uint32_t call = b.add(
            "call_" + s, "ngs_call",
            {{"dedup_" + s + ".bam", LinkType::kInput},
             {"variants_" + s + ".vcf", LinkType::kOutput}});
        wf.add_dependency(align, sort);
        wf.add_dependency(sort, dedup);
        wf.add_dependency(dedup, call);
        joint_uses.push_back({"variants_" + s + ".vcf", LinkType::kInput});
        calls.push_back(call);
      }
      joint_uses.push_back({"cohort.vcf", LinkType::kOutput});
      const std::uint32_t joint =
          b.add("joint_genotype", "ngs_joint_genotype", std::move(joint_uses));
      for (const std::uint32_t call : calls) wf.add_dependency(call, joint);
      const std::uint32_t report =
          b.add("report", "ngs_report",
                {{"cohort.vcf", LinkType::kInput},
                 {"cohort_report.txt", LinkType::kOutput}});
      wf.add_dependency(joint, report);
      break;
    }

    case Shape::kBlast2cap3: {
      const std::uint32_t transcripts = b.add(
          "create_transcripts_list", "create_list",
          {{"transcripts.fasta", LinkType::kInput},
           {"transcripts_dict.txt", LinkType::kOutput}});
      const std::uint32_t alignments = b.add(
          "create_alignments_list", "create_list",
          {{"alignments.out", LinkType::kInput},
           {"alignments_list.txt", LinkType::kOutput}});
      std::vector<FileUse> split_uses{{"alignments_list.txt", LinkType::kInput}};
      for (std::size_t i = 0; i < n; ++i) {
        split_uses.push_back({"protein_" + tag(i, n) + ".txt", LinkType::kOutput});
      }
      const std::uint32_t split =
          b.add("split", "split_alignments", std::move(split_uses));
      wf.add_dependency(alignments, split);
      std::vector<FileUse> merge_uses;
      std::vector<FileUse> unjoined_uses{{"transcripts_dict.txt", LinkType::kInput}};
      const std::uint32_t first_worker = split + 1;  // workers follow split
      for (std::size_t i = 0; i < n; ++i) {
        const std::string s = tag(i, n);
        b.add("run_cap3_" + s, "run_cap3",
              {{"transcripts_dict.txt", LinkType::kInput},
               {"protein_" + s + ".txt", LinkType::kInput},
               {"joined_" + s + ".fasta", LinkType::kOutput},
               {"members_" + s + ".txt", LinkType::kOutput}});
        merge_uses.push_back({"joined_" + s + ".fasta", LinkType::kInput});
        unjoined_uses.push_back({"members_" + s + ".txt", LinkType::kInput});
      }
      merge_uses.push_back({"joined.fasta", LinkType::kOutput});
      const std::uint32_t merge =
          b.add("merge_joined", "merge_joined", std::move(merge_uses));
      unjoined_uses.push_back({"unjoined.fasta", LinkType::kOutput});
      const std::uint32_t unjoined =
          b.add("find_unjoined", "find_unjoined", std::move(unjoined_uses));
      wf.add_dependency(transcripts, unjoined);
      // The 4n regular edges as 4 patterns: {split, transcripts} fan out
      // to the workers, the workers fan in to {merge, unjoined}.
      const auto count = static_cast<std::uint32_t>(n);
      wf.add_edge_pattern({.src_begin = split,
                           .dst_begin = first_worker,
                           .count = count,
                           .src_stride = 0,
                           .dst_stride = 1});
      wf.add_edge_pattern({.src_begin = transcripts,
                           .dst_begin = first_worker,
                           .count = count,
                           .src_stride = 0,
                           .dst_stride = 1});
      wf.add_edge_pattern({.src_begin = first_worker,
                           .dst_begin = merge,
                           .count = count,
                           .src_stride = 1,
                           .dst_stride = 0});
      wf.add_edge_pattern({.src_begin = first_worker,
                           .dst_begin = unjoined,
                           .count = count,
                           .src_stride = 1,
                           .dst_stride = 0});
      const std::uint32_t final_merge =
          b.add("final_merge", "final_merge",
                {{"joined.fasta", LinkType::kInput},
                 {"unjoined.fasta", LinkType::kInput},
                 {"assembly.fasta", LinkType::kOutput}});
      wf.add_dependency(merge, final_merge);
      wf.add_dependency(unjoined, final_merge);
      break;
    }
  }

  wf.validate();
  return wf;
}

wms::SiteCatalog generator_site_catalog() {
  wms::SiteCatalog sites;
  // Campus scratch filesystems sustain ~100 MB/s; wide-area transfers into
  // opportunistic OSG sites run an order of magnitude slower.
  sites.add({"sandhills", 64, /*software_preinstalled=*/true,
             "/work/group/scratch", /*stage_bandwidth_bps=*/100e6});
  sites.add({"osg", 150, /*software_preinstalled=*/false, "/tmp/osg-scratch",
             /*stage_bandwidth_bps=*/10e6});
  return sites;
}

wms::TransformationCatalog generator_transformation_catalog(
    const wms::AbstractWorkflow& workflow) {
  wms::TransformationCatalog tc;
  // The OSG bundle is the whole Python/Biopython/CAP3 stack each modified
  // blast2cap3 task downloads (§IV.B); ~350 MB is what the 180–600 s
  // install window implies at the paper-era stage bandwidths.
  const std::uint64_t osg_bundle_bytes = 350ull * 1024 * 1024;
  std::vector<std::string> seen;
  for (const auto& job : workflow.jobs()) {
    if (std::find(seen.begin(), seen.end(), job.transformation) != seen.end()) {
      continue;
    }
    seen.push_back(job.transformation);
    tc.add(job.transformation, "sandhills",
           {"/util/opt/" + job.transformation, /*installed=*/true});
    tc.add(job.transformation, "osg",
           {"http://stash/workload/" + job.transformation + ".tar.gz",
            /*installed=*/false, osg_bundle_bytes});
  }
  return tc;
}

wms::ReplicaCatalog generator_replica_catalog(const wms::AbstractWorkflow& workflow,
                                              const ShapeSpec& spec) {
  const CostModel model = cost_model_for(spec);
  wms::ReplicaCatalog rc;
  std::size_t rank = 0;
  for (const auto& lfn : workflow.workflow_inputs()) {
    rc.add(lfn, {"/data/" + lfn, "local", model.file_bytes(rank++)});
  }
  return rc;
}

std::uint64_t expected_output_bytes(const ShapeSpec& spec) {
  const ShapeCounts counts = closed_form_counts(spec);
  const CostModel model = cost_model_for(spec);
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < counts.outputs; ++i) {
    bytes += model.file_bytes(counts.inputs + i);
  }
  return bytes;
}

wms::ConcreteWorkflow plan_shape(const ShapeSpec& spec, const std::string& site,
                                 std::size_t cluster_factor) {
  const auto workflow = build_workflow(spec);
  wms::PlannerOptions options;
  options.target_site = site;
  options.cluster_factor = cluster_factor;
  options.expected_output_bytes = expected_output_bytes(spec);
  return wms::plan(workflow, generator_site_catalog(),
                   generator_transformation_catalog(workflow),
                   generator_replica_catalog(workflow, spec), options);
}

}  // namespace pga::workload
