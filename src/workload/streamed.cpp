#include "workload/streamed.hpp"

#include <algorithm>
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

/// generator.cpp's zero-padded tag: sort order == build order at any size.
std::string tag(std::size_t i, std::size_t count) {
  std::string digits = std::to_string(i);
  const std::size_t width = std::to_string(count > 0 ? count - 1 : 0).size();
  if (digits.size() < width) digits.insert(0, width - digits.size(), '0');
  return digits;
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
  const wms::SiteEntry& site = sites.site(options.site);

  Clock::time_point mark = Clock::now();
  const std::size_t n = spec.size;
  const CostModel model = cost_model_for(spec);
  StreamedBuildStats local;
  StreamedBuildStats& out = stats != nullptr ? *stats : local;
  out = {};
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
  const wms::PlannerOptions defaults;
  const double stage_in_hint =
      wms::stage_job_seconds(defaults.stage_in_seconds, in_bytes, site);
  const double stage_out_hint =
      wms::stage_job_seconds(defaults.stage_out_seconds, out_bytes, site);

  const auto fill_compute = [&](wms::ConcreteJob& job, std::string id,
                                const char* transformation, std::size_t rank) {
    job.id = std::move(id);
    job.transformation = transformation;
    job.cpu_seconds_hint = model.task_seconds(rank);
    job.needs_software_setup = needs_setup;
    job.software_bytes = software_bytes;
  };
  const auto fill_stage_in = [&](wms::ConcreteJob& job) {
    job.id = "stage_in_0";
    job.transformation = "pegasus::transfer";
    job.kind = wms::JobKind::kStageIn;
    job.args = {"alignments.out", "transcripts.fasta"};
    job.staged_bytes = in_bytes;
    job.cpu_seconds_hint = stage_in_hint;
  };
  const auto fill_stage_out = [&](wms::ConcreteJob& job) {
    job.id = "stage_out_0";
    job.transformation = "pegasus::transfer";
    job.kind = wms::JobKind::kStageOut;
    job.args = {"assembly.fasta"};
    job.staged_bytes = out_bytes;
    job.cpu_seconds_hint = stage_out_hint;
  };
  const std::size_t width = std::to_string(n - 1).size();

  if (options.cluster_size == 1) {
    // ------------------------------------------------- unclustered stream
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
    const auto fill_workers = [&](std::size_t begin, std::size_t end,
                                  std::size_t) {
      for (std::size_t i = begin; i < end; ++i) {
        fill_compute(arr[3 + i], "run_cap3_" + tag(i, n), "run_cap3", 3 + i);
      }
    };
    if (options.pool != nullptr && n > options.chunk) {
      options.pool->parallel_for(n, options.chunk, fill_workers);
    } else {
      fill_workers(0, n, 0);
    }
    fill_compute(arr[n + 3], "merge_joined", "merge_joined", n + 3);
    fill_compute(arr[n + 4], "find_unjoined", "find_unjoined", n + 4);
    fill_compute(arr[n + 5], "final_merge", "final_merge", n + 5);
    fill_stage_in(arr[n + 6]);
    fill_stage_out(arr[n + 7]);
    out.fill_seconds = lap(mark);

    concrete.finish_bulk();
    out.intern_seconds = lap(mark);

    if (options.edge_patterns) {
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
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t worker = u32(3 + i);
        concrete.add_dependency(2, worker);
        concrete.add_dependency(0, worker);
        concrete.add_dependency(worker, u32(n + 3));
        concrete.add_dependency(worker, u32(n + 4));
      }
    }
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

  // --------------------------------------------------- clustered stream
  // plan()'s grouping for blast2cap3: {create_transcripts_list,
  // create_alignments_list} share signature "create_list|" -> cluster_0;
  // split/merge/unjoined/final are lone in their groups; the workers chunk
  // into cluster_1.. with a trailing lone member (n % k == 1) staying an
  // ordinary compute job. Cluster ids are not zero-padded, so this path
  // wires explicit cluster-level edges only (4W + 6 of them).
  const std::size_t k = options.cluster_size;
  const std::size_t chunks = (n + k - 1) / k;  // worker chunks (W)
  const std::size_t jobs = chunks + 7;
  wms::ConcreteWorkflow concrete(spec_name(spec), site.name);
  concrete.reserve(jobs, chunks * 12 + 160);
  wms::ConcreteJob* arr = concrete.begin_bulk(jobs);

  arr[0].id = "cluster_0";
  arr[0].transformation = "create_list";
  arr[0].kind = wms::JobKind::kClustered;
  arr[0].cpu_seconds_hint = model.task_seconds(0) + model.task_seconds(1);
  arr[0].needs_software_setup = needs_setup;
  arr[0].software_bytes = software_bytes;
  fill_compute(arr[1], "split", "split_alignments", 2);
  const auto fill_chunks = [&](std::size_t begin, std::size_t end,
                               std::size_t) {
    for (std::size_t c = begin; c < end; ++c) {
      const std::size_t start = c * k;
      const std::size_t stop = std::min(n, start + k);
      wms::ConcreteJob& job = arr[2 + c];
      if (stop - start == 1) {
        fill_compute(job, "run_cap3_" + tag(start, n), "run_cap3", 3 + start);
        continue;
      }
      job.id = "cluster_" + std::to_string(1 + c);
      job.transformation = "run_cap3";
      job.kind = wms::JobKind::kClustered;
      job.needs_software_setup = needs_setup;
      job.software_bytes = software_bytes;
      // Ascending member order, like plan()'s += over the group slice.
      double hint = 0;
      for (std::size_t i = start; i < stop; ++i) hint += model.task_seconds(3 + i);
      job.cpu_seconds_hint = hint;
    }
  };
  const std::size_t chunk_jobs = std::max<std::size_t>(1, options.chunk / k);
  if (options.pool != nullptr && chunks > chunk_jobs) {
    options.pool->parallel_for(chunks, chunk_jobs, fill_chunks);
  } else {
    fill_chunks(0, chunks, 0);
  }
  fill_compute(arr[2 + chunks], "merge_joined", "merge_joined", n + 3);
  fill_compute(arr[3 + chunks], "find_unjoined", "find_unjoined", n + 4);
  fill_compute(arr[4 + chunks], "final_merge", "final_merge", n + 5);
  fill_stage_in(arr[5 + chunks]);
  fill_stage_out(arr[6 + chunks]);
  out.fill_seconds = lap(mark);

  concrete.finish_bulk();
  concrete.set_constituents(
      0, {"create_transcripts_list", "create_alignments_list"});
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t start = c * k;
    const std::size_t stop = std::min(n, start + k);
    if (stop - start > 1) {
      concrete.set_cluster_range(
          u32(2 + c), {"run_cap3_", start, stop - start, n});
    }
  }
  out.intern_seconds = lap(mark);

  concrete.add_dependency(0, 1);  // cluster_0 -> split
  concrete.add_dependency(0, u32(3 + chunks));  // cluster_0 -> unjoined
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::uint32_t worker = u32(2 + c);
    concrete.add_dependency(0, worker);
    concrete.add_dependency(1, worker);
    concrete.add_dependency(worker, u32(2 + chunks));  // -> merge
    concrete.add_dependency(worker, u32(3 + chunks));  // -> unjoined
  }
  concrete.add_dependency(u32(2 + chunks), u32(4 + chunks));  // merge -> final
  concrete.add_dependency(u32(3 + chunks), u32(4 + chunks));  // unjoined -> final
  concrete.add_dependency(u32(5 + chunks), 0);  // stage_in -> cluster_0
  concrete.add_dependency(u32(4 + chunks), u32(6 + chunks));  // final -> out
  out.wire_seconds = lap(mark);
  out.jobs = jobs;
  out.explicit_edges = concrete.edge_count();
  return concrete;
}

}  // namespace pga::workload
