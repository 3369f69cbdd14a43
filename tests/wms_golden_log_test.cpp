// Golden-log equivalence suite: the refactored event-driven engine under
// its default FIFO policy must reproduce the pre-refactor engine's
// jobstate logs byte for byte. The fixtures in tests/golden/ were recorded
// against the engine as of the commit preceding the scheduler-core
// refactor; the scenarios are rebuilt here from the same shared builders
// (tests/wms_test_dags.hpp), so any drift — event order, timestamps,
// formatting — fails line-by-line with context.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/digest.hpp"
#include "common/error.hpp"
#include "common/fsutil.hpp"
#include "common/thread_pool.hpp"
#include "core/b2c3_workflow.hpp"
#include "sim/campus_cluster.hpp"
#include "sim/osg.hpp"
#include "wms/analyzer.hpp"
#include "wms/dax_xml.hpp"
#include "wms/dot.hpp"
#include "wms/engine.hpp"
#include "wms/exec_service.hpp"
#include "wms/fault_injection.hpp"
#include "wms/statistics.hpp"
#include "workload/generator.hpp"
#include "workload/plan_template.hpp"
#include "workload/streamed.hpp"
#include "shape_golden_shared.hpp"
#include "wms_test_dags.hpp"

namespace pga::wms {
namespace {

std::filesystem::path golden_path(const std::string& name) {
  return std::filesystem::path(PGA_GOLDEN_DIR) / name;
}

/// Line-by-line comparison with readable context on the first divergence.
void expect_matches_golden(const RunReport& report, const std::string& name) {
  const auto expected = common::read_lines(golden_path(name));
  ASSERT_FALSE(expected.empty()) << "missing or empty fixture: " << name;
  for (std::size_t i = 0; i < std::min(expected.size(), report.jobstate_log.size());
       ++i) {
    ASSERT_EQ(report.jobstate_log[i], expected[i])
        << name << " diverges at line " << i + 1;
  }
  EXPECT_EQ(report.jobstate_log.size(), expected.size()) << name;
  // The report's streamed fingerprint is the digest of the stored log.
  EXPECT_EQ(report.jobstate_digest, common::lines_digest(report.jobstate_log)) << name;
  EXPECT_EQ(report.jobstate_lines, report.jobstate_log.size()) << name;
}

TEST(GoldenLog, SandhillsN10MatchesPreRefactorEngine) {
  const core::WorkloadModel workload;
  const core::B2c3WorkflowSpec spec{.n = 10};
  const auto dax = core::build_blast2cap3_dax(spec, &workload);
  const auto concrete = core::plan_for_site(dax, "sandhills", spec);
  sim::EventQueue queue;
  sim::CampusClusterConfig config;
  config.allocated_slots = 16;
  config.seed = 11;
  sim::CampusClusterPlatform platform(queue, config);
  SimService service(queue, platform);
  DagmanEngine engine;
  const auto report = engine.run(concrete, service);
  ASSERT_TRUE(report.success);
  expect_matches_golden(report, "sandhills_n10.log");
}

TEST(GoldenLog, OsgN10MatchesPreRefactorEngine) {
  const core::WorkloadModel workload;
  const core::B2c3WorkflowSpec spec{.n = 10};
  const auto dax = core::build_blast2cap3_dax(spec, &workload);
  const auto concrete = core::plan_for_site(dax, "osg", spec);
  sim::EventQueue queue;
  sim::OsgConfig config;
  config.seed = 11;
  sim::OsgPlatform platform(queue, config);
  SimService service(queue, platform);
  EngineOptions options;
  options.retries = 100;
  DagmanEngine engine(std::move(options));
  const auto report = engine.run(concrete, service);
  ASSERT_TRUE(report.success);
  expect_matches_golden(report, "osg_n10.log");
}

/// Paper-scale scenario: plans blast2cap3 at `n` for `site` and runs it on
/// the platform the pre-PR fixtures were recorded with. Checks the
/// jobstate log byte-for-byte and the rendered statistics against the
/// .stats fixture.
void run_paper_scale_scenario(const std::string& site, std::size_t n) {
  const core::WorkloadModel workload;
  const core::B2c3WorkflowSpec spec{.n = n};
  const auto dax = core::build_blast2cap3_dax(spec, &workload);
  const auto concrete = core::plan_for_site(dax, site, spec);

  // Interning round-trip over the whole planned DAX: every id maps to a
  // dense handle that names back to the same spelling, and handles equal
  // the job's position in jobs().
  const IdTable& ids = concrete.ids();
  ASSERT_EQ(ids.size(), concrete.jobs().size());
  for (std::uint32_t i = 0; i < concrete.jobs().size(); ++i) {
    const auto& job = concrete.jobs()[i];
    EXPECT_EQ(concrete.job_index(job.id), i);
    EXPECT_EQ(ids.name(i), job.id);
    EXPECT_EQ(ids.find(job.id), i);
    EXPECT_EQ(job.index, i);
  }

  sim::EventQueue queue;
  std::unique_ptr<sim::ExecutionPlatform> platform;
  EngineOptions options;
  if (site == "sandhills") {
    sim::CampusClusterConfig config;
    config.allocated_slots = 16;
    config.seed = 11;
    platform = std::make_unique<sim::CampusClusterPlatform>(queue, config);
  } else {
    sim::OsgConfig config;
    config.seed = 11;
    platform = std::make_unique<sim::OsgPlatform>(queue, config);
    options.retries = 100;
  }
  SimService service(queue, *platform);
  DagmanEngine engine(std::move(options));
  const auto report = engine.run(concrete, service);
  ASSERT_TRUE(report.success);

  const std::string stem = site + "_n" + std::to_string(n);
  expect_matches_golden(report, stem + ".log");
  EXPECT_EQ(WorkflowStatistics::from_run(report).render("golden"),
            common::read_file(golden_path(stem + ".stats")))
      << stem << ".stats";
}

TEST(GoldenLog, SandhillsN100MatchesPreReworkEngine) {
  run_paper_scale_scenario("sandhills", 100);
}

TEST(GoldenLog, OsgN100MatchesPreReworkEngine) {
  run_paper_scale_scenario("osg", 100);
}

TEST(GoldenLog, SandhillsN300MatchesPreReworkEngine) {
  run_paper_scale_scenario("sandhills", 300);
}

TEST(GoldenLog, OsgN300MatchesPreReworkEngine) {
  run_paper_scale_scenario("osg", 300);
}

TEST(GoldenLog, ChaosSeed42MatchesPreRefactorEngine) {
  // The chaos suite's seed-42 run: injected failures, hangs, delays and
  // corruption with every hardening feature on — the densest event stream
  // (RETRY, BACKOFF, TIMEOUT, BLACKLIST) the engine produces.
  sim::EventQueue queue;
  sim::CampusClusterConfig config;
  config.allocated_slots = 4;
  config.seed = 42;
  sim::CampusClusterPlatform platform(queue, config);
  SimService sim_service(queue, platform);
  FaultyService faulty(sim_service, FaultPlan().chaos(testing::chaos_for(42)));
  DagmanEngine engine(testing::hardened_options());
  const auto report = engine.run(testing::random_dag(42), faulty);
  expect_matches_golden(report, "chaos_42.log");
  // The same run's per-attempt trace (retries and timeouts included),
  // pinned by its FNV-1a digest.
  EXPECT_EQ(common::fnv1a(attempts_csv(report)), 9519693816167169647ULL);
}

TEST(GoldenLog, ExplicitFifoAndNullPolicyAreIdentical) {
  // EngineOptions.policy = nullptr must mean exactly fifo_policy(), and a
  // zero-priority workflow must make the priority policy degenerate to it.
  const auto wf = testing::random_dag(7);
  const auto run_with = [&](std::shared_ptr<SchedulingPolicy> policy) {
    sim::EventQueue queue;
    sim::CampusClusterConfig config;
    config.allocated_slots = 4;
    config.seed = 7;
    sim::CampusClusterPlatform platform(queue, config);
    SimService service(queue, platform);
    EngineOptions options;
    options.max_jobs_in_flight = 3;  // make the pick order decisive
    options.policy = std::move(policy);
    DagmanEngine engine(std::move(options));
    return engine.run(wf, service).jobstate_log;
  };
  const auto baseline = run_with(nullptr);
  EXPECT_EQ(run_with(fifo_policy()), baseline);
  EXPECT_EQ(run_with(job_priority_policy()), baseline);
}

// ------------------------------------------------- generated-shape goldens
//
// PR 6: the generator -> planner -> engine byte chain, pinned end-to-end on
// the diamond n=100 scenario shared with bench/shape_ablation --golden
// (which regenerates the fixtures after intentional changes).

void expect_matches_shape_golden(const std::string& site) {
  const auto report = golden_shapes::run_diamond(site);
  ASSERT_TRUE(report.success) << site;
  const std::string stem = golden_shapes::fixture_stem(site);
  expect_matches_golden(report, stem + ".log");
  EXPECT_EQ(WorkflowStatistics::from_run(report).render("golden"),
            common::read_file(golden_path(stem + ".stats")))
      << stem;
}

TEST(GoldenLog, ShapeDiamondSandhillsN100MatchesFixture) {
  expect_matches_shape_golden("sandhills");
}

TEST(GoldenLog, ShapeDiamondOsgN100MatchesFixture) {
  expect_matches_shape_golden("osg");
}

// ------------------------------------------- pattern-compressed identity
//
// PR 10: pattern-compressed and streamed DAG materialization must be
// invisible to every consumer — same jobs, same adjacency, same engine
// bytes as the materialized planner path.

/// Runs `concrete` on its platform (fixture seeds) and returns the report;
/// `policy` names a make_policy scheduling policy (null = the default).
RunReport run_concrete(const ConcreteWorkflow& concrete, bool lean = false,
                       const char* policy = nullptr) {
  sim::EventQueue queue;
  std::unique_ptr<sim::ExecutionPlatform> platform;
  EngineOptions options;
  options.lean_report = lean;
  if (policy != nullptr) options.policy = make_policy(policy);
  if (concrete.site() == "sandhills") {
    sim::CampusClusterConfig config;
    config.allocated_slots = 16;
    config.seed = 11;
    platform = std::make_unique<sim::CampusClusterPlatform>(queue, config);
  } else {
    sim::OsgConfig config;
    config.seed = 11;
    platform = std::make_unique<sim::OsgPlatform>(queue, config);
    options.retries = 100;
  }
  SimService service(queue, *platform);
  DagmanEngine engine(std::move(options));
  return engine.run(concrete, service);
}

workload::ShapeSpec b2c3_spec(std::size_t n) {
  workload::ShapeSpec spec;
  spec.shape = workload::Shape::kBlast2cap3;
  spec.size = n;
  return spec;
}

/// `workflow` with every edge stored explicitly: its adjacency, patterns
/// included, copied edge by edge through add_dependency — the reference
/// the generator's pattern-stored families are checked against.
AbstractWorkflow with_explicit_edges(const AbstractWorkflow& workflow) {
  AbstractWorkflow copy(workflow.name());
  for (const AbstractJob& job : workflow.jobs()) copy.add_job(job);
  for (std::uint32_t i = 0; i < workflow.jobs().size(); ++i) {
    workflow.for_each_child(i,
                            [&](std::uint32_t child) { copy.add_dependency(i, child); });
  }
  return copy;
}

/// plan_shape(spec, site), planned from with_explicit_edges of the
/// generated abstract workflow.
ConcreteWorkflow plan_with_explicit_edges(const workload::ShapeSpec& spec,
                                          const std::string& site) {
  const AbstractWorkflow abstract = with_explicit_edges(workload::build_workflow(spec));
  PlannerOptions options;
  options.target_site = site;
  options.expected_output_bytes = workload::expected_output_bytes(spec);
  return plan(abstract, workload::generator_site_catalog(),
              workload::generator_transformation_catalog(abstract),
              workload::generator_replica_catalog(abstract, spec), options);
}

/// Every JobDag graph read, compared on two workflows: per-job counts,
/// visit orders and id shims, the bulk parent counts and the edge count.
/// Comparing two stores (shared frozen vs owned, patterned vs explicit)
/// checks both branches of each read.
void expect_same_reads(const JobDag& a, const JobDag& b) {
  ASSERT_EQ(a.ids().size(), b.ids().size());
  EXPECT_EQ(a.edge_count(), b.edge_count());
  std::vector<std::uint32_t> counts_a;
  std::vector<std::uint32_t> counts_b;
  a.fill_parent_counts(counts_a);
  b.fill_parent_counts(counts_b);
  ASSERT_EQ(counts_a.size(), a.ids().size());
  EXPECT_EQ(counts_a, counts_b);
  const auto visit = [](const JobDag& dag, std::uint32_t i, bool children) {
    std::vector<std::uint32_t> seen;
    const auto push = [&seen](std::uint32_t h) { seen.push_back(h); };
    if (children) {
      dag.for_each_child(i, push);
    } else {
      dag.for_each_parent(i, push);
    }
    return seen;
  };
  for (std::uint32_t i = 0; i < a.ids().size(); ++i) {
    const std::string id(a.ids().name(i));
    EXPECT_EQ(a.parent_count(i), b.parent_count(i)) << id;
    EXPECT_EQ(a.child_count(i), b.child_count(i)) << id;
    EXPECT_EQ(counts_a[i], a.parent_count(i)) << id;
    EXPECT_EQ(visit(a, i, true), visit(b, i, true)) << id;
    EXPECT_EQ(visit(a, i, false), visit(b, i, false)) << id;
    EXPECT_EQ(visit(a, i, true), a.children_of(i)) << id;
    EXPECT_EQ(visit(a, i, false), a.parents_of(i)) << id;
    EXPECT_EQ(a.children(id), b.children(id)) << id;
    EXPECT_EQ(a.parents(id), b.parents(id)) << id;
  }
  EXPECT_EQ(a.topological_order_indices(), b.topological_order_indices());
}

/// Field-level equality of two concrete workflows: jobs in order, every
/// adjacency list, cluster metadata — the planner-vs-streamed contract.
void expect_same_concrete(const ConcreteWorkflow& a, const ConcreteWorkflow& b) {
  EXPECT_EQ(a.name(), b.name());
  EXPECT_EQ(a.site(), b.site());
  ASSERT_EQ(a.jobs().size(), b.jobs().size());
  EXPECT_EQ(a.edge_count(), b.edge_count());
  for (std::uint32_t i = 0; i < a.jobs().size(); ++i) {
    const ConcreteJob& x = a.jobs()[i];
    const ConcreteJob& y = b.jobs()[i];
    ASSERT_EQ(x.id, y.id);
    EXPECT_EQ(x.transformation, y.transformation);
    EXPECT_EQ(x.args, y.args);
    EXPECT_DOUBLE_EQ(x.cpu_seconds_hint, y.cpu_seconds_hint);
    EXPECT_EQ(x.software_bytes, y.software_bytes);
    EXPECT_EQ(x.staged_bytes, y.staged_bytes);
    EXPECT_EQ(x.priority, y.priority);
    EXPECT_EQ(x.index, y.index);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.needs_software_setup, y.needs_software_setup);
    EXPECT_EQ(a.children_of(i), b.children_of(i)) << x.id;
    EXPECT_EQ(a.parents_of(i), b.parents_of(i)) << x.id;
    EXPECT_EQ(a.constituents_of(i), b.constituents_of(i)) << x.id;
    EXPECT_EQ(a.abstract_id_of(i), b.abstract_id_of(i)) << x.id;
  }
  EXPECT_EQ(a.topological_order(), b.topological_order());
  expect_same_reads(a, b);
}

TEST(PatternedDag, PlannedWorkflowIsBytewiseIndependentOfEdgeStorage) {
  // Pattern-stored vs explicit copies through the generator -> planner ->
  // emitters chain: identical structure, identical bytes.
  for (const std::size_t n : {100u, 300u}) {
    const auto compressed = workload::plan_shape(b2c3_spec(n), "sandhills");
    const auto materialized = plan_with_explicit_edges(b2c3_spec(n), "sandhills");
    ASSERT_EQ(compressed.edge_count(), 4 * n + 7);
    EXPECT_EQ(compressed.edge_count() - compressed.graph().explicit_edge_count(),
              4 * n);
    EXPECT_EQ(materialized.graph().pattern_edge_count(), 0u);
    expect_same_concrete(compressed, materialized);
    EXPECT_EQ(to_dot(compressed), to_dot(materialized));

    const auto abstract_on = workload::build_workflow(b2c3_spec(n));
    const auto abstract_off = with_explicit_edges(abstract_on);
    EXPECT_EQ(abstract_on.edge_count(), abstract_off.edge_count());
    EXPECT_EQ(abstract_off.graph().pattern_edge_count(), 0u);
    expect_same_reads(abstract_on, abstract_off);
    EXPECT_EQ(to_dax_xml(abstract_on), to_dax_xml(abstract_off));
    EXPECT_EQ(to_dot(abstract_on), to_dot(abstract_off));
  }
}

TEST(PatternedDag, EngineLogsAreByteIdenticalAcrossEdgeStorageOnBothSites) {
  for (const std::string site : {"sandhills", "osg"}) {
    for (const std::size_t n : {100u, 300u}) {
      const auto on = run_concrete(workload::plan_shape(b2c3_spec(n), site));
      const auto off = run_concrete(plan_with_explicit_edges(b2c3_spec(n), site));
      ASSERT_TRUE(on.success) << site << " n=" << n;
      EXPECT_EQ(on.jobstate_log, off.jobstate_log) << site << " n=" << n;
    }
  }
}

TEST(PatternedDag, StreamedBuildMatchesPlannerPath) {
  common::ThreadPool pool(4);
  for (const std::string site : {"sandhills", "osg"}) {
    // One past the fill chunk runs the multi-chunk parallel fill.
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{100},
                                std::size_t{257}, workload::kStreamedFillChunk + 1}) {
      const auto spec = b2c3_spec(n);
      workload::StreamedBuildOptions options;
      options.site = site;
      options.pool = &pool;
      workload::StreamedBuildStats stats;
      const auto streamed =
          workload::build_concrete_streamed(spec, options, &stats);
      const auto planned = workload::plan_shape(spec, site);
      expect_same_concrete(streamed, planned);
      EXPECT_EQ(stats.jobs, n + 8) << site << " n=" << n;
      EXPECT_EQ(stats.pattern_edges + stats.explicit_edges, 4 * n + 7);
      // Explicit edge storage must stay O(1) when patterns are on.
      EXPECT_EQ(stats.explicit_edges, 7u);
    }
  }
}

/// Per-LFN equality of two replica catalogs (entries() is LFN-ordered).
void expect_same_replicas(const ReplicaCatalog& a, const ReplicaCatalog& b) {
  const auto x = a.entries();
  const auto y = b.entries();
  ASSERT_EQ(x.size(), y.size());
  for (auto i = x.begin(), j = y.begin(); i != x.end(); ++i, ++j) {
    ASSERT_EQ(i->first, j->first);
    ASSERT_EQ(i->second.size(), j->second.size()) << i->first;
    for (std::size_t r = 0; r < i->second.size(); ++r) {
      EXPECT_EQ(i->second[r].pfn, j->second[r].pfn) << i->first;
      EXPECT_EQ(i->second[r].site, j->second[r].site) << i->first;
      EXPECT_EQ(i->second[r].size_bytes, j->second[r].size_bytes) << i->first;
    }
  }
}

TEST(PatternedDag, PlanTemplateReplayMatchesPlannerPath) {
  // One recorded plan per topology, replayed for requests that differ in
  // seed: every shape (fan-heavy included), both sites,
  // clustered or not — field for field what plan_shape returns, with the
  // replica catalog generator_replica_catalog builds.
  std::vector<workload::ShapeSpec> topologies;
  for (const auto shape : workload::all_shapes()) {
    workload::ShapeSpec spec;
    spec.shape = shape;
    spec.size = 10;
    topologies.push_back(spec);
  }
  workload::ShapeSpec heavy;
  heavy.shape = workload::Shape::kFan;
  heavy.size = 5;
  heavy.fan_arity_step = 2;
  topologies.push_back(heavy);

  for (const std::string site : {"sandhills", "osg"}) {
    for (const std::size_t k : {1u, 2u, 8u}) {
      for (const auto& topology : topologies) {
        std::optional<workload::PlanTemplate::Instance> first;
        const workload::PlanTemplate plan(topology, site, k, &first);
        const std::string what = workload::spec_name(topology) + "@" + site +
                                 " k=" + std::to_string(k);
        // The recording request keeps the plan it was recorded from.
        ASSERT_TRUE(first.has_value()) << what;
        expect_same_concrete(first->workflow, workload::plan_shape(topology, site, k));
        expect_same_replicas(first->replicas,
                             workload::generator_replica_catalog(
                                 workload::build_workflow(topology), topology));
        std::vector<std::vector<double>> hints;  // per seed
        for (const std::uint64_t seed : {7u, 8u}) {
          workload::ShapeSpec spec = topology;
          spec.seed = seed;
          const auto replayed = plan.instantiate(spec);
          expect_same_concrete(replayed.workflow, workload::plan_shape(spec, site, k));
          expect_same_replicas(replayed.replicas,
                               workload::generator_replica_catalog(
                                   workload::build_workflow(spec), spec));
          hints.emplace_back();
          for (const ConcreteJob& job : replayed.workflow.jobs()) {
            hints.back().push_back(job.cpu_seconds_hint);
          }
        }
        // Same template, different seed: same DAG, different prices.
        ASSERT_EQ(hints.size(), 2u);
        EXPECT_NE(hints[0], hints[1]) << what;
      }
    }
  }
}

TEST(PatternedDag, PlanTemplateRejectsAnotherTopology) {
  workload::ShapeSpec spec = b2c3_spec(16);
  const workload::PlanTemplate plan(spec, "osg", 1);
  spec.size = 17;
  EXPECT_THROW((void)plan.instantiate(spec), common::InvalidArgument);
  spec = b2c3_spec(16);
  spec.shape = workload::Shape::kFan;
  EXPECT_THROW((void)plan.instantiate(spec), common::InvalidArgument);
}

TEST(PatternedDag, PlanTemplateReplaysShareOneFrozenGraph) {
  const workload::ShapeSpec spec = b2c3_spec(16);
  std::optional<workload::PlanTemplate::Instance> first;
  const workload::PlanTemplate plan(spec, "osg", 1, &first);
  ASSERT_NE(plan.graph(), nullptr);
  // The recording request keeps the plan it was recorded from, edges and
  // all; every replay shares the template's one frozen graph.
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->workflow.frozen_graph(), nullptr);
  workload::ShapeSpec other = spec;
  other.seed = 99;
  const auto a = plan.instantiate(spec);
  const auto b = plan.instantiate(other);
  EXPECT_EQ(a.workflow.frozen_graph(), plan.graph());
  EXPECT_EQ(b.workflow.frozen_graph(), plan.graph());
  EXPECT_EQ(plan.graph().use_count(), 3);  // the template and two replays
  EXPECT_EQ(a.workflow.edge_count(), first->workflow.edge_count());
  EXPECT_EQ(plan.graph()->node_count(), first->workflow.jobs().size());
}

TEST(PatternedDag, ReplayedPlanRejectsNewEdges) {
  const workload::ShapeSpec spec = b2c3_spec(16);
  const workload::PlanTemplate plan(spec, "sandhills", 1);
  auto replayed = plan.instantiate(spec);
  ConcreteWorkflow& workflow = replayed.workflow;
  const auto last = static_cast<std::uint32_t>(workflow.jobs().size() - 1);
  const std::string first_id = workflow.jobs().front().id;
  const std::string last_id = workflow.jobs().back().id;
  const std::size_t edges = workflow.edge_count();
  EXPECT_THROW(workflow.add_dependency(last, 0u), common::InvalidArgument);
  EXPECT_THROW(workflow.add_dependency(last_id, first_id), common::InvalidArgument);
  EXPECT_THROW(workflow.add_edge_pattern(EdgePattern{.src_begin = last,
                                                     .dst_begin = 0,
                                                     .count = 1}),
               common::InvalidArgument);
  ConcreteJob extra;
  extra.id = "extra";
  EXPECT_THROW(workflow.add_job(extra), common::InvalidArgument);
  EXPECT_THROW((void)workflow.graph(), common::InvalidArgument);
  // Nothing leaked into the shared graph.
  EXPECT_EQ(workflow.edge_count(), edges);
  EXPECT_EQ(plan.graph()->edge_count(), edges);
  EXPECT_EQ(workflow.jobs().size(), plan.graph()->node_count());
}

TEST(PatternedDag, EngineOnReplayedPlanMatchesPlanShape) {
  // The engine, its state machine and the policies read topological
  // order, parent counts and children from the frozen graph of a replayed
  // plan: every shape, both sites, clustered or not, under policies that
  // read the graph differently — the lean jobstate digest is the one a
  // freshly planned workflow gives.
  for (const std::string site : {"sandhills", "osg"}) {
    for (const std::size_t k : {1u, 8u}) {
      for (const auto shape : workload::all_shapes()) {
        workload::ShapeSpec topology;
        topology.shape = shape;
        topology.size = 10;
        topology.seed = 1;
        const workload::PlanTemplate plan(topology, site, k);
        workload::ShapeSpec spec = topology;
        spec.seed = 7;
        const auto replayed = plan.instantiate(spec);
        const auto reference = workload::plan_shape(spec, site, k);
        ASSERT_NE(replayed.workflow.frozen_graph(), nullptr);
        for (const char* policy : {"fifo", "critical-path", "widest-branch"}) {
          const std::string what = workload::spec_name(spec) + "@" + site +
                                   " k=" + std::to_string(k) + " " + policy;
          const RunReport want = run_concrete(reference, /*lean=*/true, policy);
          const RunReport got = run_concrete(replayed.workflow, /*lean=*/true, policy);
          EXPECT_TRUE(got.success) << what;
          EXPECT_EQ(got.jobstate_lines, want.jobstate_lines) << what;
          EXPECT_EQ(got.jobstate_digest, want.jobstate_digest) << what;
        }
      }
    }
  }
}

TEST(PatternedDag, ClusteredStreamMatchesPlannerClustering) {
  // Streamed clustering must replicate plan()'s grouping exactly: ids,
  // order, summed hints, constituents, edges.
  // n % k == 1 leaves a lone trailing worker; n % k == 0 is exact.
  for (const std::string site : {"sandhills", "osg"}) {
    for (const auto& [n, k] : {std::pair<std::size_t, std::size_t>{100, 10},
                              {101, 10},
                              {7, 3},
                              {5, 8}}) {
      const auto spec = b2c3_spec(n);
      workload::StreamedBuildOptions options;
      options.site = site;
      options.cluster_size = k;
      const auto streamed = workload::build_concrete_streamed(spec, options);
      const auto planned = workload::plan_shape(spec, site, k);
      expect_same_concrete(streamed, planned);

      // The clustered job set covers exactly the unclustered compute ids.
      const auto unclustered = workload::plan_shape(spec, site);
      std::set<std::string> covered;
      for (std::uint32_t i = 0; i < streamed.jobs().size(); ++i) {
        const ConcreteJob& job = streamed.jobs()[i];
        if (job.kind == JobKind::kCompute) covered.insert(job.id);
        for (const auto& member : streamed.constituents_of(i)) {
          EXPECT_TRUE(covered.insert(member).second) << member;
        }
      }
      std::set<std::string> expected;
      for (const ConcreteJob& job : unclustered.jobs()) {
        if (job.kind == JobKind::kCompute) expected.insert(job.id);
      }
      EXPECT_EQ(covered, expected) << site << " n=" << n << " k=" << k;
    }
  }
}

TEST(PatternedDag, LeanReportStreamsTheSameDigestAndCounters) {
  for (const std::string site : {"sandhills", "osg"}) {
    const auto concrete = workload::plan_shape(b2c3_spec(100), site);
    const auto full = run_concrete(concrete, /*lean=*/false);
    const auto lean = run_concrete(concrete, /*lean=*/true);
    ASSERT_TRUE(full.success);
    EXPECT_TRUE(lean.jobstate_log.empty());
    EXPECT_TRUE(lean.runs.empty());
    EXPECT_EQ(full.jobstate_digest, common::lines_digest(full.jobstate_log));
    EXPECT_EQ(lean.jobstate_digest, full.jobstate_digest) << site;
    EXPECT_EQ(lean.jobstate_lines, full.jobstate_log.size());
    EXPECT_EQ(lean.jobs_total, full.jobs_total);
    EXPECT_EQ(lean.jobs_succeeded, full.jobs_succeeded);
    EXPECT_EQ(lean.total_attempts, full.total_attempts);
    EXPECT_EQ(lean.total_retries, full.total_retries);
    EXPECT_DOUBLE_EQ(lean.end_time, full.end_time);
    EXPECT_EQ(lean.success, full.success);
  }
}

TEST(GoldenLog, ShapeDiamondPlansPinTheCostModelBytes) {
  // The stage jobs' byte prices must come from exactly the spec's IO
  // model, on both platforms — the planner half of the golden scenario.
  const auto spec = golden_shapes::diamond_n100_spec();
  const auto model = workload::cost_model_for(spec);
  const auto counts = workload::closed_form_counts(spec);
  std::uint64_t input_bytes = 0;
  for (std::size_t i = 0; i < counts.inputs; ++i) {
    input_bytes += model.file_bytes(i);
  }
  for (const std::string site : {"sandhills", "osg"}) {
    const auto concrete = golden_shapes::plan_diamond(site);
    ASSERT_EQ(concrete.jobs().size(), counts.jobs + 2) << site;
    EXPECT_EQ(concrete.job("stage_in_0").staged_bytes, input_bytes) << site;
    EXPECT_EQ(concrete.job("stage_out_0").staged_bytes,
              workload::expected_output_bytes(spec))
        << site;
  }
}

}  // namespace
}  // namespace pga::wms
