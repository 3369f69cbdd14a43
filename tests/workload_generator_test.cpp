// Property tests for the workload generator (src/workload/): every
// (shape, size, seed) must yield an acyclic DAG matching the closed-form
// node/edge/input/output counts, double-generation with one seed must be
// byte-identical, different seeds must redistribute costs, and the cost /
// arrival models must honor their calibration and determinism contracts.
#include "workload/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "wms/dax_xml.hpp"
#include "workload/arrival.hpp"
#include "workload/cost_model.hpp"

namespace pga::workload {
namespace {

/// The sweep grid the structural properties quantify over.
std::vector<ShapeSpec> property_grid() {
  std::vector<ShapeSpec> specs;
  for (const Shape shape : all_shapes()) {
    for (const std::size_t size : {std::size_t{2}, std::size_t{3},
                                   std::size_t{8}, std::size_t{17}}) {
      for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{9}}) {
        ShapeSpec spec;
        spec.shape = shape;
        spec.size = size;
        spec.seed = seed;
        specs.push_back(spec);
        if (shape == Shape::kFan) {
          spec.fan_arity_step = 2;
          specs.push_back(spec);
        }
        if (shape == Shape::kDiamond) {
          spec.diamond_stages = 3;
          specs.push_back(spec);
        }
      }
    }
  }
  return specs;
}

// ------------------------------------------------------------- structure

TEST(ShapeTaxonomy, NamesRoundTripAndUnknownNamesThrow) {
  for (const Shape shape : all_shapes()) {
    EXPECT_EQ(parse_shape(shape_name(shape)), shape);
  }
  EXPECT_EQ(all_shapes().size(), 6u);
  EXPECT_THROW((void)parse_shape("helix"), common::InvalidArgument);
  EXPECT_THROW((void)parse_shape(""), common::InvalidArgument);
}

TEST(ShapeTaxonomy, SizesBelowTheShapeMinimumThrow) {
  ShapeSpec montage;
  montage.shape = Shape::kMontage;
  montage.size = 1;
  EXPECT_THROW((void)closed_form_counts(montage), common::InvalidArgument);
  EXPECT_THROW(build_workflow(montage), common::InvalidArgument);
  ShapeSpec diamond;
  diamond.shape = Shape::kDiamond;
  diamond.diamond_stages = 0;
  EXPECT_THROW((void)closed_form_counts(diamond), common::InvalidArgument);
}

TEST(ShapeProperties, EveryGridPointMatchesItsClosedFormCounts) {
  for (const ShapeSpec& spec : property_grid()) {
    const ShapeCounts counts = closed_form_counts(spec);
    const auto wf = build_workflow(spec);
    EXPECT_EQ(wf.jobs().size(), counts.jobs) << spec_name(spec);
    EXPECT_EQ(wf.edge_count(), counts.edges) << spec_name(spec);
    EXPECT_EQ(wf.workflow_inputs().size(), counts.inputs) << spec_name(spec);
    EXPECT_EQ(wf.workflow_outputs().size(), counts.outputs) << spec_name(spec);
  }
}

TEST(ShapeProperties, EveryGridPointIsAcyclicWithUniqueJobIds) {
  for (const ShapeSpec& spec : property_grid()) {
    const auto wf = build_workflow(spec);
    // add_dependency rejects cycles; a full Kahn order over every node is
    // the independent confirmation.
    EXPECT_EQ(wf.topological_order_indices().size(), wf.jobs().size())
        << spec_name(spec);
    std::set<std::string> ids;
    for (const auto& job : wf.jobs()) ids.insert(job.id);
    EXPECT_EQ(ids.size(), wf.jobs().size()) << spec_name(spec);
  }
}

TEST(ShapeProperties, JobIdSortOrderEqualsBuildOrder) {
  // Zero-padded numeric suffixes keep lexicographic id order == handle
  // order at any size; FIFO release order and adjacency iteration (both
  // id-sorted) then never depend on the instance size.
  for (const ShapeSpec& spec : property_grid()) {
    const auto wf = build_workflow(spec);
    for (std::uint32_t h = 0; h < wf.jobs().size(); ++h) {
      EXPECT_EQ(wf.job_index(wf.jobs()[h].id), h) << spec_name(spec);
    }
  }
}

TEST(ShapeProperties, DoubleGenerationWithOneSeedIsByteIdentical) {
  for (const Shape shape : all_shapes()) {
    ShapeSpec spec;
    spec.shape = shape;
    spec.size = 8;
    spec.seed = 77;
    EXPECT_EQ(wms::to_dax_xml(build_workflow(spec)),
              wms::to_dax_xml(build_workflow(spec)))
        << shape_name(shape);
  }
}

TEST(ShapeProperties, DifferentSeedsShareTopologyButReorderCosts) {
  for (const Shape shape : all_shapes()) {
    ShapeSpec a;
    a.shape = shape;
    a.size = 12;
    a.seed = 1;
    ShapeSpec b = a;
    b.seed = 2;
    const auto wa = build_workflow(a);
    const auto wb = build_workflow(b);
    ASSERT_EQ(wa.jobs().size(), wb.jobs().size());
    EXPECT_EQ(wa.edge_count(), wb.edge_count());
    std::vector<double> costs_a, costs_b;
    bool same_ids = true;
    for (std::size_t i = 0; i < wa.jobs().size(); ++i) {
      same_ids = same_ids && wa.jobs()[i].id == wb.jobs()[i].id;
      costs_a.push_back(wa.jobs()[i].cpu_seconds_hint);
      costs_b.push_back(wb.jobs()[i].cpu_seconds_hint);
    }
    EXPECT_TRUE(same_ids) << shape_name(shape);
    // The shuffled Zipf assignment maps costs to different jobs per seed.
    EXPECT_NE(costs_a, costs_b) << shape_name(shape);
  }
}

TEST(ShapeProperties, SpecNameEncodesShapeSizeAndSeed) {
  ShapeSpec spec;
  spec.shape = Shape::kMontage;
  spec.size = 40;
  spec.seed = 9;
  EXPECT_EQ(spec_name(spec), "montage-n40-s9");
}

// ------------------------------------------------------------ cost model

TEST(CostModel, ZipfCalibrationHitsTheMeanTimesCountTarget) {
  CostModelParams params;
  params.cpu = CostDistribution::kZipf;
  params.cpu_mean_seconds = 300;
  const CostModel model(params, 200, 4);
  EXPECT_NEAR(model.total_task_seconds(), 300.0 * 200, 1e-6 * 300 * 200);
}

TEST(CostModel, ConstantAndUniformDistributionsHonorTheirBounds) {
  CostModelParams params;
  params.cpu = CostDistribution::kConstant;
  params.cpu_mean_seconds = 42;
  const CostModel constant(params, 10, 2);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(constant.task_seconds(i), 42.0);
  }
  params.cpu = CostDistribution::kUniform;
  params.cpu_min_seconds = 60;
  params.cpu_max_seconds = 600;
  const CostModel uniform(params, 50, 2);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_GE(uniform.task_seconds(i), 60.0);
    EXPECT_LE(uniform.task_seconds(i), 600.0);
  }
}

TEST(CostModel, AscendingOrderSortsCostsOverRanks) {
  CostModelParams params;
  params.cpu_order = CostOrder::kAscending;
  const CostModel model(params, 30, 2);
  for (std::size_t i = 1; i < 30; ++i) {
    EXPECT_LE(model.task_seconds(i - 1), model.task_seconds(i));
  }
  params.cpu_order = CostOrder::kDescending;
  const CostModel desc(params, 30, 2);
  for (std::size_t i = 1; i < 30; ++i) {
    EXPECT_GE(desc.task_seconds(i - 1), desc.task_seconds(i));
  }
}

TEST(CostModel, IoZipfCalibratesWithinIntegerRounding) {
  CostModelParams params;
  params.io = CostDistribution::kZipf;
  params.io_mean_bytes = 64ull * 1024 * 1024;
  const CostModel model(params, 4, 100);
  const std::uint64_t target = 64ull * 1024 * 1024 * 100;
  EXPECT_LE(model.total_file_bytes(), target);
  EXPECT_GE(model.total_file_bytes(), target - 100);  // one floor per file
  // Rank law: earlier ranks are at least as large.
  for (std::size_t i = 1; i < 100; ++i) {
    EXPECT_GE(model.file_bytes(i - 1), model.file_bytes(i));
  }
}

TEST(CostModel, InvalidParametersAndRanksThrow) {
  CostModelParams params;
  params.cpu_mean_seconds = 0;
  EXPECT_THROW(CostModel(params, 4, 4), common::InvalidArgument);
  params = {};
  params.cpu_min_seconds = 10;
  params.cpu_max_seconds = 1;
  EXPECT_THROW(CostModel(params, 4, 4), common::InvalidArgument);
  params = {};
  params.cpu_beta = 0.5;
  EXPECT_THROW(CostModel(params, 4, 4), common::InvalidArgument);
  const CostModel model(CostModelParams{}, 4, 2);
  EXPECT_THROW((void)model.task_seconds(4), common::InvalidArgument);
  EXPECT_THROW((void)model.file_bytes(2), common::InvalidArgument);
}

TEST(CostModel, NonFiniteOrNegativeKnobsThrow) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double CostModelParams::*field :
       {&CostModelParams::cpu_mean_seconds, &CostModelParams::cpu_min_seconds,
        &CostModelParams::cpu_max_seconds, &CostModelParams::cpu_zipf_s,
        &CostModelParams::cpu_beta, &CostModelParams::cpu_noise_sigma,
        &CostModelParams::io_zipf_s}) {
    for (const double bad : {nan, inf, -1.0}) {
      CostModelParams params;
      params.*field = bad;
      EXPECT_THROW(CostModel(params, 4, 4), common::InvalidArgument) << bad;
    }
  }
}

TEST(CostModel, TaskAndFileStreamsAreIndependent) {
  const CostModelParams params;
  const CostModel narrow(params, 20, 2);
  const CostModel wide(params, 20, 50);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(narrow.task_seconds(i), wide.task_seconds(i)) << i;
  }
}

// ------------------------------------------------- planner/catalog wiring

TEST(ShapePlanning, StageInBytesComeFromTheIoModel) {
  // The byte chain generator -> replica catalog -> planner: stage_in_0
  // must be priced from exactly the model's input ranks, stage_out_0 from
  // the output ranks.
  ShapeSpec spec;
  spec.shape = Shape::kNgsPipeline;
  spec.size = 5;
  spec.seed = 3;
  const CostModel model = cost_model_for(spec);
  const auto counts = closed_form_counts(spec);
  std::uint64_t input_bytes = 0;
  for (std::size_t i = 0; i < counts.inputs; ++i) input_bytes += model.file_bytes(i);

  for (const std::string site : {"sandhills", "osg"}) {
    const auto concrete = plan_shape(spec, site);
    EXPECT_EQ(concrete.jobs().size(), counts.jobs + 2) << site;
    EXPECT_EQ(concrete.job("stage_in_0").staged_bytes, input_bytes) << site;
    EXPECT_EQ(concrete.job("stage_out_0").staged_bytes,
              expected_output_bytes(spec))
        << site;
  }
}

TEST(ShapePlanning, OsgPlansNeedSetupAndSandhillsDoesNot) {
  ShapeSpec spec;
  spec.shape = Shape::kDiamond;
  spec.size = 4;
  const auto osg = plan_shape(spec, "osg");
  const auto campus = plan_shape(spec, "sandhills");
  std::size_t setup_flagged = 0;
  for (const auto& job : osg.jobs()) {
    if (job.needs_software_setup) ++setup_flagged;
  }
  EXPECT_GT(setup_flagged, 0u);
  for (const auto& job : campus.jobs()) {
    EXPECT_FALSE(job.needs_software_setup) << job.id;
  }
}

TEST(ShapePlanning, ReplicaCatalogCoversExactlyTheWorkflowInputs) {
  for (const Shape shape : all_shapes()) {
    ShapeSpec spec;
    spec.shape = shape;
    spec.size = 6;
    const auto wf = build_workflow(spec);
    const auto replicas = generator_replica_catalog(wf, spec);
    const auto inputs = wf.workflow_inputs();
    EXPECT_EQ(replicas.size(), inputs.size()) << shape_name(shape);
    for (const auto& lfn : inputs) {
      EXPECT_TRUE(replicas.has(lfn)) << lfn;
    }
  }
}

// -------------------------------------------------------- arrival process

TEST(ArrivalProcess, StreamsAreDeterministicAndNondecreasing) {
  ArrivalParams params;
  params.count = 64;
  params.tenants = 3;
  const auto first = generate_arrivals(params);
  const auto second = generate_arrivals(params);
  ASSERT_EQ(first.size(), 64u);
  double previous = 0;
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].index, i);
    EXPECT_EQ(first[i].tenant, i % 3);
    EXPECT_GE(first[i].arrival_seconds, previous);
    previous = first[i].arrival_seconds;
    EXPECT_DOUBLE_EQ(first[i].arrival_seconds, second[i].arrival_seconds);
    EXPECT_EQ(first[i].spec.seed, second[i].spec.seed);
  }
}

TEST(ArrivalProcess, PerRequestSeedsDifferWithinOneStream) {
  ArrivalParams params;
  params.count = 32;
  const auto stream = generate_arrivals(params);
  std::set<std::uint64_t> seeds;
  for (const auto& request : stream) seeds.insert(request.spec.seed);
  EXPECT_EQ(seeds.size(), stream.size());
}

TEST(ArrivalProcess, BurstyStreamsClusterTighterThanPoisson) {
  ArrivalParams poisson;
  poisson.count = 200;
  poisson.mean_interarrival_seconds = 600;
  ArrivalParams bursty = poisson;
  bursty.process = ArrivalProcess::kBursty;
  bursty.burst_size = 10;
  bursty.burst_gap_seconds = 6000;
  bursty.intra_burst_seconds = 5;
  const auto p = generate_arrivals(poisson);
  const auto b = generate_arrivals(bursty);
  // Median gap: tiny within bursts, exponential(600) for Poisson.
  const auto median_gap = [](const std::vector<WorkflowRequest>& stream) {
    std::vector<double> gaps;
    for (std::size_t i = 1; i < stream.size(); ++i) {
      gaps.push_back(stream[i].arrival_seconds - stream[i - 1].arrival_seconds);
    }
    std::sort(gaps.begin(), gaps.end());
    return gaps[gaps.size() / 2];
  };
  EXPECT_LT(median_gap(b), median_gap(p));
}

TEST(ArrivalProcess, ShapesCycleRoundRobinAndBadParamsThrow) {
  ArrivalParams params;
  params.count = 6;
  ShapeSpec chain;
  chain.shape = Shape::kChain;
  ShapeSpec fan;
  fan.shape = Shape::kFan;
  params.shapes = {chain, fan};
  const auto stream = generate_arrivals(params);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i].spec.shape, i % 2 == 0 ? Shape::kChain : Shape::kFan);
  }
  params.shapes.clear();
  EXPECT_THROW(generate_arrivals(params), common::InvalidArgument);
  params = {};
  params.tenants = 0;
  EXPECT_THROW(generate_arrivals(params), common::InvalidArgument);
  params = {};
  params.mean_interarrival_seconds = 0;
  EXPECT_THROW(generate_arrivals(params), common::InvalidArgument);
  params = {};
  params.process = ArrivalProcess::kBursty;
  params.burst_size = 0;
  EXPECT_THROW(generate_arrivals(params), common::InvalidArgument);
}

TEST(ArrivalProcess, EveryRequestSpecBuildsAValidWorkflow) {
  ArrivalParams params;
  params.count = 8;
  ShapeSpec diamond;
  diamond.shape = Shape::kDiamond;
  diamond.size = 3;
  params.shapes = {diamond};
  for (const auto& request : generate_arrivals(params)) {
    const auto wf = build_workflow(request.spec);
    EXPECT_EQ(wf.jobs().size(), closed_form_counts(request.spec).jobs);
  }
}

}  // namespace
}  // namespace pga::workload
