#include "wms/planner.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"

namespace pga::wms {
namespace {

/// A split + 4 cap3 + merge abstract workflow, with the catalogs both
/// sites need.
struct Fixture {
  AbstractWorkflow wf{"b2c3"};
  SiteCatalog sites;
  TransformationCatalog transformations;
  ReplicaCatalog replicas;

  Fixture() {
    AbstractJob split;
    split.id = "split";
    split.transformation = "split_alignments";
    split.uses = {{"alignments.out", LinkType::kInput}};
    split.cpu_seconds_hint = 60;
    for (int i = 0; i < 4; ++i) {
      split.uses.push_back({"protein_" + std::to_string(i) + ".txt", LinkType::kOutput});
    }
    wf.add_job(split);
    for (int i = 0; i < 4; ++i) {
      AbstractJob cap3;
      cap3.id = "run_cap3_" + std::to_string(i);
      cap3.transformation = "run_cap3";
      cap3.cpu_seconds_hint = 1'000;
      cap3.uses = {{"protein_" + std::to_string(i) + ".txt", LinkType::kInput},
                   {"joined_" + std::to_string(i) + ".fasta", LinkType::kOutput}};
      wf.add_job(cap3);
    }
    AbstractJob merge;
    merge.id = "merge";
    merge.transformation = "merge_joined";
    merge.cpu_seconds_hint = 30;
    for (int i = 0; i < 4; ++i) {
      merge.uses.push_back({"joined_" + std::to_string(i) + ".fasta", LinkType::kInput});
    }
    merge.uses.push_back({"assembly.fasta", LinkType::kOutput});
    wf.add_job(merge);
    wf.infer_dependencies_from_files();

    sites.add({"sandhills", 64, /*software_preinstalled=*/true, "/work"});
    sites.add({"osg", 150, /*software_preinstalled=*/false, "/tmp"});
    for (const auto* tf : {"split_alignments", "run_cap3", "merge_joined"}) {
      transformations.add(tf, "sandhills", {"/usr/bin/x", true});
      transformations.add(tf, "osg", {"http://repo/x.tar.gz", false});
    }
    replicas.add("alignments.out", {"/data/alignments.out", "local"});
  }
};

PlannerOptions opts(const std::string& site) {
  PlannerOptions o;
  o.target_site = site;
  return o;
}

TEST(Planner, SandhillsPlanHasNoSetupFlags) {
  Fixture fx;
  const auto concrete =
      plan(fx.wf, fx.sites, fx.transformations, fx.replicas, opts("sandhills"));
  EXPECT_EQ(concrete.site(), "sandhills");
  for (const auto& job : concrete.jobs()) {
    EXPECT_FALSE(job.needs_software_setup) << job.id;
  }
  // 6 compute + stage_in + stage_out
  EXPECT_EQ(concrete.jobs().size(), 8u);
  EXPECT_EQ(concrete.count(JobKind::kCompute), 6u);
  EXPECT_EQ(concrete.count(JobKind::kStageIn), 1u);
  EXPECT_EQ(concrete.count(JobKind::kStageOut), 1u);
}

TEST(Planner, OsgPlanFlagsEveryComputeJob) {
  Fixture fx;
  const auto concrete =
      plan(fx.wf, fx.sites, fx.transformations, fx.replicas, opts("osg"));
  // The Fig. 3 "red rectangle" shape: every compute task carries the
  // download/install step.
  for (const auto& job : concrete.jobs()) {
    if (job.kind == JobKind::kCompute) {
      EXPECT_TRUE(job.needs_software_setup) << job.id;
    } else {
      EXPECT_FALSE(job.needs_software_setup) << job.id;
    }
  }
}

TEST(Planner, ExplicitSetupJobsMode) {
  Fixture fx;
  auto o = opts("osg");
  o.explicit_setup_jobs = true;
  const auto concrete = plan(fx.wf, fx.sites, fx.transformations, fx.replicas, o);
  EXPECT_EQ(concrete.count(JobKind::kSetup), 6u);
  for (const auto& job : concrete.jobs()) {
    EXPECT_FALSE(job.needs_software_setup) << job.id;  // cost moved to setup nodes
    if (job.kind == JobKind::kSetup) {
      const auto kids = concrete.children(job.id);
      ASSERT_EQ(kids.size(), 1u);
      EXPECT_EQ("setup_" + kids[0], job.id);
    }
  }
}

TEST(Planner, StageInFeedsConsumersOfExternalInputs) {
  Fixture fx;
  const auto concrete =
      plan(fx.wf, fx.sites, fx.transformations, fx.replicas, opts("sandhills"));
  const auto kids = concrete.children("stage_in_0");
  EXPECT_EQ(kids, (std::vector<std::string>{"split"}));
  const auto parents = concrete.parents("stage_out_0");
  EXPECT_EQ(parents, (std::vector<std::string>{"merge"}));
}

TEST(Planner, MissingReplicaRejected) {
  Fixture fx;
  ReplicaCatalog empty;
  EXPECT_THROW(plan(fx.wf, fx.sites, fx.transformations, empty, opts("sandhills")),
               common::WorkflowError);
}

TEST(Planner, MissingTransformationRejected) {
  Fixture fx;
  TransformationCatalog missing;
  missing.add("split_alignments", "sandhills", {"/x", true});
  EXPECT_THROW(plan(fx.wf, fx.sites, missing, fx.replicas, opts("sandhills")),
               common::WorkflowError);
}

TEST(Planner, UnknownSiteRejected) {
  Fixture fx;
  EXPECT_THROW(plan(fx.wf, fx.sites, fx.transformations, fx.replicas, opts("xsede")),
               common::WorkflowError);
}

TEST(Planner, HorizontalClusteringPacksCap3Jobs) {
  Fixture fx;
  auto o = opts("sandhills");
  o.cluster_factor = 2;
  const auto concrete = plan(fx.wf, fx.sites, fx.transformations, fx.replicas, o);
  // 4 cap3 jobs with identical parents pack into 2 clustered jobs.
  EXPECT_EQ(concrete.count(JobKind::kClustered), 2u);
  double clustered_cost = 0;
  for (const auto& job : concrete.jobs()) {
    if (job.kind == JobKind::kClustered) {
      EXPECT_EQ(concrete.constituents_of(concrete.job_index(job.id)).size(), 2u);
      EXPECT_EQ(job.transformation, "run_cap3");
      clustered_cost += job.cpu_seconds_hint;
      // Cluster edges: split -> cluster -> merge (no external inputs, so
      // stage_in_0 is not a parent).
      EXPECT_EQ(concrete.parents(job.id), (std::vector<std::string>{"split"}));
      EXPECT_EQ(concrete.children(job.id), (std::vector<std::string>{"merge"}));
    }
  }
  EXPECT_DOUBLE_EQ(clustered_cost, 4'000.0);
}

TEST(Planner, ClusterFactorOneKeepsJobsSeparate) {
  Fixture fx;
  const auto concrete =
      plan(fx.wf, fx.sites, fx.transformations, fx.replicas, opts("sandhills"));
  EXPECT_EQ(concrete.count(JobKind::kClustered), 0u);
}

TEST(Planner, ZeroClusterFactorRejected) {
  Fixture fx;
  auto o = opts("sandhills");
  o.cluster_factor = 0;
  EXPECT_THROW(plan(fx.wf, fx.sites, fx.transformations, fx.replicas, o),
               common::InvalidArgument);
}

TEST(Planner, TopologicalOrderValidOnPlan) {
  Fixture fx;
  auto o = opts("osg");
  o.cluster_factor = 3;
  o.explicit_setup_jobs = true;
  const auto concrete = plan(fx.wf, fx.sites, fx.transformations, fx.replicas, o);
  const auto order = concrete.topological_order();
  EXPECT_EQ(order.size(), concrete.jobs().size());
  // Every parent appears before its child.
  std::map<std::string, std::size_t> pos;
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (const auto& job : concrete.jobs()) {
    for (const auto& parent : concrete.parents(job.id)) {
      EXPECT_LT(pos[parent], pos[job.id]) << parent << " -> " << job.id;
    }
  }
}

TEST(Planner, StageInCostScalesWithReplicaSizes) {
  Fixture fx;
  // 500 MB input at 10 MB/s -> ~50 s on top of the base cost.
  ReplicaCatalog sized;
  sized.add("alignments.out", {"/data/alignments.out", "local", 500'000'000});
  SiteCatalog slow_sites;
  slow_sites.add({"sandhills", 64, true, "/work", /*stage_bandwidth_bps=*/10e6});
  const auto concrete =
      plan(fx.wf, slow_sites, fx.transformations, sized, opts("sandhills"));
  const auto& stage_in = concrete.job("stage_in_0");
  EXPECT_EQ(stage_in.staged_bytes, 500'000'000u);
  EXPECT_NEAR(stage_in.cpu_seconds_hint, kStageJobSeconds + 50.0, 0.5);
}

TEST(Planner, UnknownSizesFallBackToBaseCost) {
  Fixture fx;
  const auto concrete =
      plan(fx.wf, fx.sites, fx.transformations, fx.replicas, opts("sandhills"));
  const auto& stage_in = concrete.job("stage_in_0");
  EXPECT_EQ(stage_in.staged_bytes, 0u);
  EXPECT_DOUBLE_EQ(stage_in.cpu_seconds_hint, kStageJobSeconds);
}

TEST(Planner, AbstractIdCarriedThrough) {
  Fixture fx;
  const auto concrete =
      plan(fx.wf, fx.sites, fx.transformations, fx.replicas, opts("sandhills"));
  EXPECT_EQ(concrete.abstract_id_of(concrete.job_index("split")), "split");
  EXPECT_EQ(concrete.abstract_id_of(concrete.job_index("stage_in_0")), "");
}

}  // namespace
}  // namespace pga::wms
