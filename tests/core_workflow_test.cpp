#include "core/b2c3_workflow.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "wms/dax_xml.hpp"
#include "workload/generator.hpp"

namespace pga::core {
namespace {

TEST(B2c3Dax, StructureMatchesFig2) {
  const B2c3WorkflowSpec spec{.n = 5};
  const auto wf = build_blast2cap3_dax(spec);
  // 2 list tasks + split + 5 cap3 + merge_joined + find_unjoined + final.
  EXPECT_EQ(wf.jobs().size(), 2u + 1u + 5u + 3u);
  EXPECT_TRUE(wf.has_job("create_transcripts_list"));
  EXPECT_TRUE(wf.has_job("create_alignments_list"));
  EXPECT_TRUE(wf.has_job("split"));
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(wf.has_job("run_cap3_" + std::to_string(i)));
  }
  EXPECT_TRUE(wf.has_job("merge_joined"));
  EXPECT_TRUE(wf.has_job("find_unjoined"));
  EXPECT_TRUE(wf.has_job("final_merge"));
}

TEST(B2c3Dax, DependenciesMatchFig2) {
  const auto wf = build_blast2cap3_dax(B2c3WorkflowSpec{.n = 3});
  // split consumes the alignments list only.
  EXPECT_EQ(wf.parents("split"),
            (std::vector<std::string>{"create_alignments_list"}));
  // Every run_cap3 needs the transcript dict and its protein chunk.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(wf.parents("run_cap3_" + std::to_string(i)),
              (std::vector<std::string>{"create_transcripts_list", "split"}));
  }
  // merge_joined waits on all cap3 tasks.
  EXPECT_EQ(wf.parents("merge_joined"),
            (std::vector<std::string>{"run_cap3_0", "run_cap3_1", "run_cap3_2"}));
  // find_unjoined needs the dict and every members file.
  const auto unjoined_parents = wf.parents("find_unjoined");
  EXPECT_EQ(unjoined_parents.size(), 4u);
  // final merge joins both streams.
  EXPECT_EQ(wf.parents("final_merge"),
            (std::vector<std::string>{"find_unjoined", "merge_joined"}));
}

TEST(B2c3Dax, TheTwoListTasksAreIndependent) {
  // §V.C: "These two tasks are independent of each other, and can be run
  // at the same time."
  const auto wf = build_blast2cap3_dax(B2c3WorkflowSpec{.n = 2});
  EXPECT_TRUE(wf.parents("create_transcripts_list").empty());
  EXPECT_TRUE(wf.parents("create_alignments_list").empty());
}

TEST(B2c3Dax, InputsAndOutputs) {
  const auto wf = build_blast2cap3_dax(B2c3WorkflowSpec{.n = 2});
  EXPECT_EQ(wf.workflow_inputs(),
            (std::vector<std::string>{"alignments.out", "transcripts.fasta"}));
  EXPECT_EQ(wf.workflow_outputs(), (std::vector<std::string>{"assembly.fasta"}));
}

TEST(B2c3Dax, CostHintsComeFromWorkload) {
  const WorkloadModel workload;
  const auto with = build_blast2cap3_dax(B2c3WorkflowSpec{.n = 10}, &workload);
  const auto without = build_blast2cap3_dax(B2c3WorkflowSpec{.n = 10});
  double hinted = 0, unhinted = 0;
  for (const auto& job : with.jobs()) hinted += job.cpu_seconds_hint;
  for (const auto& job : without.jobs()) unhinted += job.cpu_seconds_hint;
  EXPECT_GT(hinted, workload.total_cap3_seconds());
  EXPECT_DOUBLE_EQ(unhinted, 0.0);
}

TEST(B2c3Dax, ZeroNRejected) {
  EXPECT_THROW(build_blast2cap3_dax(B2c3WorkflowSpec{.n = 0}),
               common::InvalidArgument);
}

TEST(B2c3Dax, SerializesToDaxXml) {
  const auto wf = build_blast2cap3_dax(B2c3WorkflowSpec{.n = 4});
  const auto parsed = wms::from_dax_xml(wms::to_dax_xml(wf));
  EXPECT_EQ(parsed.jobs().size(), wf.jobs().size());
  EXPECT_EQ(parsed.edge_count(), wf.edge_count());
}

TEST(PaperCatalogs, SitesMatchPaperDescription) {
  const auto sites = workload::generator_site_catalog();
  EXPECT_TRUE(sites.site("sandhills").software_preinstalled);
  EXPECT_FALSE(sites.site("osg").software_preinstalled);
}

TEST(PaperCatalogs, TransformationsResolvableOnBothSites) {
  const auto tc = workload::generator_transformation_catalog(build_blast2cap3_dax({}));
  for (const auto* tf : {"create_list", "split_alignments", "run_cap3",
                         "merge_joined", "find_unjoined", "final_merge"}) {
    EXPECT_TRUE(tc.available(tf, "sandhills")) << tf;
    EXPECT_TRUE(tc.available(tf, "osg")) << tf;
    EXPECT_TRUE(tc.lookup(tf, "sandhills")->installed) << tf;
    EXPECT_FALSE(tc.lookup(tf, "osg")->installed) << tf;
  }
}

TEST(PlanForSite, SandhillsVersusOsgSetupFlags) {
  const B2c3WorkflowSpec spec{.n = 4};
  const auto dax = build_blast2cap3_dax(spec);
  const auto sandhills = plan_for_site(dax, "sandhills", spec);
  const auto osg = plan_for_site(dax, "osg", spec);
  std::size_t sandhills_setup = 0, osg_setup = 0;
  for (const auto& job : sandhills.jobs()) {
    if (job.needs_software_setup) ++sandhills_setup;
  }
  for (const auto& job : osg.jobs()) {
    if (job.needs_software_setup) ++osg_setup;
  }
  EXPECT_EQ(sandhills_setup, 0u);
  // Every compute task carries the install step (Fig. 3 red rectangles):
  // 2 lists + split + 4 cap3 + merge_joined + find_unjoined + final_merge.
  EXPECT_EQ(osg_setup, 10u);
}

TEST(PlanForSite, ClusteringReducesCap3JobCount) {
  const B2c3WorkflowSpec spec{.n = 8};
  const WorkloadModel workload;
  const auto dax = build_blast2cap3_dax(spec, &workload);
  const auto plain = plan_for_site(dax, "sandhills", spec, /*cluster_factor=*/1);
  const auto clustered = plan_for_site(dax, "sandhills", spec, /*cluster_factor=*/4);
  EXPECT_GT(plain.jobs().size(), clustered.jobs().size());
  // 8 cap3 jobs pack into 2 clustered jobs; the two independent
  // create_list jobs share a transformation and empty parent set, so the
  // planner legitimately clusters them too.
  EXPECT_EQ(clustered.count(wms::JobKind::kClustered), 3u);
}

}  // namespace
}  // namespace pga::core
