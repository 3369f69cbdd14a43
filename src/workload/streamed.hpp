// Streamed, pattern-compressed materialization of generated concrete
// workflows — the n=10^7 build path.
//
// plan_shape() is general but strings its way through an AbstractWorkflow:
// file-use lists, workflow_inputs scans, per-edge id lookups. For the
// unclustered blast2cap3 shape the whole concrete workflow is a closed
// form, so this builder emits it directly: begin_bulk() hands out the
// pre-sized job array, a ThreadPool::parallel_for fills the worker span in
// fixed chunks (plain field writes into disjoint slots, so the result does
// not depend on the chunking), finish_bulk() interns ids sequentially, and
// the 4n regular edges land as 4 EdgePatterns. The result is
// byte-identical to plan_shape(spec, site) — the identity tests in
// tests/wms_golden_log_test.cpp pin jobs, edges, adjacency and engine logs
// against the planner path. Clustered builds are plan()'s grouping, so
// they go through plan_shape itself.
#pragma once

#include <cstddef>
#include <cstdint>

#include "wms/planner.hpp"
#include "workload/generator.hpp"

namespace pga::common {
class ThreadPool;
}

namespace pga::workload {

/// Worker jobs per parallel_for chunk of the streamed fill; builds of at
/// most this many workers fill sequentially.
inline constexpr std::size_t kStreamedFillChunk = 65536;

/// Knobs for build_concrete_streamed.
struct StreamedBuildOptions {
  std::string site;  ///< "sandhills" or "osg" (generator_site_catalog)
  /// >1: horizontally cluster the worker span, cluster_size per concrete
  /// job — plan_shape(spec, site, cluster_size), plan()'s grouping.
  std::size_t cluster_size = 1;
  /// Fills the worker span in parallel when set; sequential when null.
  common::ThreadPool* pool = nullptr;
};

/// Build-phase timing/shape breakdown of the unclustered closed form, for
/// the scale bench's JSON (all zero after a clustered build).
struct StreamedBuildStats {
  double model_seconds = 0;   ///< cost-model construction
  double fill_seconds = 0;    ///< bulk struct fill (the parallel span)
  double intern_seconds = 0;  ///< sequential id interning (finish_bulk)
  double wire_seconds = 0;    ///< edges/patterns + stage-job pricing
  std::size_t jobs = 0;
  std::size_t explicit_edges = 0;
  std::size_t pattern_edges = 0;
};

/// True when `spec` has a streamed closed form (currently blast2cap3,
/// the scale bench's shape). Unsupported specs fall back to plan_shape.
[[nodiscard]] bool streamed_build_supported(const ShapeSpec& spec);

/// plan_shape(spec, options.site, options.cluster_size), byte for byte;
/// unclustered builds skip the abstract intermediate. Throws
/// InvalidArgument for unsupported specs and a zero cluster_size, and
/// WorkflowError for an unknown site.
[[nodiscard]] wms::ConcreteWorkflow build_concrete_streamed(
    const ShapeSpec& spec, const StreamedBuildOptions& options,
    StreamedBuildStats* stats = nullptr);

}  // namespace pga::workload
