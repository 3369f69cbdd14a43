#include "workload/streamed.hpp"

#include <chrono>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace pga::workload {

using common::InvalidArgument;
using common::WorkflowError;

namespace {

using Clock = std::chrono::steady_clock;

/// Seconds since `mark`, advancing `mark` to now.
double lap(Clock::time_point& mark) {
  const auto now = Clock::now();
  const double s = std::chrono::duration<double>(now - mark).count();
  mark = now;
  return s;
}

std::uint32_t u32(std::size_t v) { return static_cast<std::uint32_t>(v); }

}  // namespace

bool streamed_build_supported(const ShapeSpec& spec) {
  return spec.shape == Shape::kBlast2cap3;
}

wms::ConcreteWorkflow build_concrete_streamed(const ShapeSpec& spec,
                                              const StreamedBuildOptions& options,
                                              StreamedBuildStats* stats) {
  if (!streamed_build_supported(spec)) {
    throw InvalidArgument(std::string("no streamed closed form for shape ") +
                          shape_name(spec.shape));
  }
  if (options.cluster_size == 0) {
    throw InvalidArgument("cluster_size must be >= 1");
  }
  const wms::SiteCatalog sites = generator_site_catalog();
  if (!sites.has(options.site)) {
    throw WorkflowError("unknown target site: " + options.site);
  }
  StreamedBuildStats local;
  StreamedBuildStats& out = stats != nullptr ? *stats : local;
  out = {};
  if (options.cluster_size > 1) {
    return plan_shape(spec, options.site, options.cluster_size);
  }
  const wms::SiteEntry& site = sites.site(options.site);

  Clock::time_point mark = Clock::now();
  const std::size_t n = spec.size;
  const CostModel model = cost_model_for(spec);
  out.model_seconds = lap(mark);

  // Everything below bakes in the generator catalogs' shape, so the result
  // matches plan_shape() exactly: transformations are installed wherever
  // software is preinstalled and a ~350 MB stageable bundle elsewhere; the
  // replica catalog holds one local copy per input, sized by IO rank.
  const bool needs_setup = !site.software_preinstalled;
  const std::uint64_t software_bytes =
      needs_setup ? 350ull * 1024 * 1024 : 0;
  // File ranks follow sorted workflow_inputs() then outputs():
  // alignments.out=0, transcripts.fasta=1, assembly.fasta=2.
  const std::uint64_t in_bytes = model.file_bytes(0) + model.file_bytes(1);
  const std::uint64_t out_bytes = model.file_bytes(2);

  const auto fill_compute = [&](wms::ConcreteJob& job, std::string id,
                                const char* transformation, std::size_t rank) {
    job.id = std::move(id);
    job.transformation = transformation;
    job.cpu_seconds_hint = model.task_seconds(rank);
    job.needs_software_setup = needs_setup;
    job.software_bytes = software_bytes;
  };
  const std::size_t width = std::to_string(n - 1).size();

  // Concrete handle layout (== plan()'s add order): transcripts=0,
  // alignments=1, split=2, workers 3..n+2, merge=n+3, unjoined=n+4,
  // final=n+5, stage_in_0=n+6, stage_out_0=n+7.
  const std::size_t jobs = n + 8;
  wms::ConcreteWorkflow concrete(spec_name(spec), site.name);
  concrete.reserve(jobs, n * (10 + width) + 160);
  wms::ConcreteJob* arr = concrete.begin_bulk(jobs);
  fill_compute(arr[0], "create_transcripts_list", "create_list", 0);
  fill_compute(arr[1], "create_alignments_list", "create_list", 1);
  fill_compute(arr[2], "split", "split_alignments", 2);
  const auto fill_workers = [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) {
      fill_compute(arr[3 + i], "run_cap3_" + tag(i, n), "run_cap3", 3 + i);
    }
  };
  if (options.pool != nullptr && n > kStreamedFillChunk) {
    options.pool->parallel_for(n, kStreamedFillChunk, fill_workers);
  } else {
    fill_workers(0, n, 0);
  }
  fill_compute(arr[n + 3], "merge_joined", "merge_joined", n + 3);
  fill_compute(arr[n + 4], "find_unjoined", "find_unjoined", n + 4);
  fill_compute(arr[n + 5], "final_merge", "final_merge", n + 5);
  arr[n + 6] = wms::stage_job(wms::JobKind::kStageIn,
                              {"alignments.out", "transcripts.fasta"}, in_bytes, site);
  arr[n + 7] =
      wms::stage_job(wms::JobKind::kStageOut, {"assembly.fasta"}, out_bytes, site);
  out.fill_seconds = lap(mark);

  concrete.finish_bulk();
  out.intern_seconds = lap(mark);

  // Same pattern order plan() propagates from the abstract workflow.
  concrete.add_edge_pattern({.src_begin = 2,
                             .dst_begin = 3,
                             .count = u32(n),
                             .src_stride = 0,
                             .dst_stride = 1});
  concrete.add_edge_pattern({.src_begin = 0,
                             .dst_begin = 3,
                             .count = u32(n),
                             .src_stride = 0,
                             .dst_stride = 1});
  concrete.add_edge_pattern({.src_begin = 3,
                             .dst_begin = u32(n + 3),
                             .count = u32(n),
                             .src_stride = 1,
                             .dst_stride = 0});
  concrete.add_edge_pattern({.src_begin = 3,
                             .dst_begin = u32(n + 4),
                             .count = u32(n),
                             .src_stride = 1,
                             .dst_stride = 0});
  out.pattern_edges = 4 * n;
  concrete.add_dependency(1, 2);                    // alignments -> split
  concrete.add_dependency(0, u32(n + 4));           // transcripts -> unjoined
  concrete.add_dependency(u32(n + 3), u32(n + 5));  // merge -> final
  concrete.add_dependency(u32(n + 4), u32(n + 5));  // unjoined -> final
  concrete.add_dependency(u32(n + 6), 0);           // stage_in -> transcripts
  concrete.add_dependency(u32(n + 6), 1);           // stage_in -> alignments
  concrete.add_dependency(u32(n + 5), u32(n + 7));  // final -> stage_out
  out.wire_seconds = lap(mark);
  out.jobs = jobs;
  out.explicit_edges = concrete.edge_count() - out.pattern_edges;
  return concrete;
}

}  // namespace pga::workload
