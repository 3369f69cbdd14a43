// Parameterized workflow-topology generator, in the spirit of WfBench
// (Coleman et al., PAPERS.md): every scheduler and data-layer claim in this
// repo was demonstrated on one DAG shape — the paper's blast2cap3
// split/merge pipeline — so this module generates *families* of shapes
// through one API to test whether those claims generalize.
//
// Six topologies, every one emitted through the PR-4 handle-indexed fast
// path (handle-returning add_job + add_dependency(u32,u32), no string
// lookups on edges), with per-task CPU hints and per-file bytes drawn from
// a CostModel so the planner prices stage-in/out realistically and the
// PR-3 data layer sees genuine transfer volumes:
//
//   chain       t0 -> t1 -> ... -> t_{n-1}
//   fan         source -> n gateways -> (arity_i leaves each) -> sink;
//               arity_i = 1 + i*fan_arity_step (step 0: the classic
//               fan-out/fan-in with no leaf level)
//   diamond     source -> [n mids -> join] x diamond_stages
//   montage     Montage-like level structure (Berriman et al.):
//               n mProject -> n-1 mDiffFit -> mConcatFit -> mBgModel ->
//               n mBackground -> mImgtbl -> mAdd -> mShrink -> mJPEG
//   ngs         NGS-pipeline-like per-sample chains (Schiefer et al.):
//               n x (align -> sort -> dedup -> call) -> joint_genotype ->
//               report — "chain-heavy"
//   blast2cap3  the paper's pipeline expressed through this API
//
// Node/edge/input/output counts have closed forms (closed_form_counts) so
// property tests can assert structure exactly for any (shape, size, seed).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "wms/catalog.hpp"
#include "wms/dax.hpp"
#include "wms/planner.hpp"
#include "workload/cost_model.hpp"

namespace pga::workload {

/// The generator's shape taxonomy.
enum class Shape { kChain, kFan, kDiamond, kMontage, kNgsPipeline, kBlast2cap3 };

[[nodiscard]] const char* shape_name(Shape shape);
/// Inverse of shape_name; throws InvalidArgument on unknown names.
[[nodiscard]] Shape parse_shape(const std::string& name);
/// Every shape, in a fixed sweep order.
[[nodiscard]] std::vector<Shape> all_shapes();

/// One generated-workflow request: a shape, its scale knob and cost model.
struct ShapeSpec {
  Shape shape = Shape::kDiamond;
  /// The scale knob ("n"): workers per level (fan/diamond), tiles
  /// (montage), samples (ngs), chunks (blast2cap3), chain length.
  std::size_t size = 100;
  std::size_t diamond_stages = 2;  ///< parallel stages in the diamond
  /// Fan: gateway i carries 1 + i*step leaf tasks. 0 = plain
  /// fan-out/fan-in; >0 = "fan-heavy" with ascending widths, the
  /// adversarial layout for width-blind release order.
  std::size_t fan_arity_step = 0;
  /// Instance seed, folded into the cost model's stream so two specs
  /// differing only in seed share topology but not costs.
  std::uint64_t seed = 42;
  CostModelParams cost{};
};

/// Zero-padded index: `i` with as many digits as `count - 1`, so id sort
/// order == build order at any size (job ids order release and adjacency
/// iteration; unpadded "10" < "2" would make orderings size-dependent, and
/// EdgePatterns need name-monotonic handle runs).
[[nodiscard]] std::string tag(std::size_t i, std::size_t count);

/// Closed-form structure of build_workflow(spec)'s result.
struct ShapeCounts {
  std::size_t jobs = 0;
  std::size_t edges = 0;
  std::size_t inputs = 0;   ///< external inputs (need replicas)
  std::size_t outputs = 0;  ///< final outputs (stage-out targets)
};
/// Throws InvalidArgument when `spec.size` is below the shape's minimum
/// (montage needs >= 2, everything else >= 1).
[[nodiscard]] ShapeCounts closed_form_counts(const ShapeSpec& spec);

/// "<shape>-n<size>-s<seed>", the generated workflow's name.
[[nodiscard]] std::string spec_name(const ShapeSpec& spec);

/// The spec's cost model, sized from the closed forms with the instance
/// seed folded in. Task ranks follow DAG build order; file ranks follow
/// workflow_inputs() then workflow_outputs().
[[nodiscard]] CostModel cost_model_for(const ShapeSpec& spec);

/// Builds the abstract workflow: topology via the handle fast path, file
/// uses for planner staging, CPU hints from the cost model. The regular
/// fan-out/fan-in families are stored as EdgePatterns (O(1) storage per
/// family): chain, fan (step 0), diamond (up to kMaxPatterns / 2 stages)
/// and blast2cap3; montage, ngs, fan-heavy and deeper diamonds keep
/// explicit edges. Validated and acyclic by construction.
[[nodiscard]] wms::AbstractWorkflow build_workflow(const ShapeSpec& spec);

/// The paper's two sites (campus cluster with preinstalled software at
/// 100 MB/s; opportunistic grid staging at 10 MB/s): the one site catalog
/// that generated shapes, core::plan_for_site's blast2cap3 plans and the
/// storage-element wiring (data::add_site_elements) all use.
[[nodiscard]] wms::SiteCatalog generator_site_catalog();

/// Every transformation of `workflow` on both sites: installed on
/// sandhills, a stageable ~350 MB bundle on osg (the Fig. 3 overhead).
/// core::plan_for_site and examples/dax_generator plan blast2cap3 with it.
[[nodiscard]] wms::TransformationCatalog generator_transformation_catalog(
    const wms::AbstractWorkflow& workflow);

/// One "local" (submit-host) replica per external input, sized from the
/// spec's IO model — this is where the data layer gets its stage-in bytes.
[[nodiscard]] wms::ReplicaCatalog generator_replica_catalog(
    const wms::AbstractWorkflow& workflow, const ShapeSpec& spec);

/// Expected bytes of the final outputs (the IO model's output ranks);
/// plumbed into PlannerOptions::expected_output_bytes so stage-out is
/// priced like stage-in.
[[nodiscard]] std::uint64_t expected_output_bytes(const ShapeSpec& spec);

/// Convenience: build + catalogs + plan for `site` ("sandhills"/"osg").
[[nodiscard]] wms::ConcreteWorkflow plan_shape(const ShapeSpec& spec,
                                               const std::string& site,
                                               std::size_t cluster_factor = 1);

}  // namespace pga::workload
