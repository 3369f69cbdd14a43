#include "wms/dax.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"

namespace pga::wms {
namespace {

AbstractJob make_job(const std::string& id, const std::string& tf,
                     std::vector<FileUse> uses = {}) {
  AbstractJob job;
  job.id = id;
  job.transformation = tf;
  job.uses = std::move(uses);
  return job;
}

/// A miniature blast2cap3-shaped workflow: two list tasks, a split, two
/// cap3 tasks, a merge.
AbstractWorkflow mini_workflow() {
  AbstractWorkflow wf("mini");
  wf.add_job(make_job("list_t", "create_list",
                      {{"transcripts.fasta", LinkType::kInput},
                       {"transcripts_dict.txt", LinkType::kOutput}}));
  wf.add_job(make_job("list_a", "create_list",
                      {{"alignments.out", LinkType::kInput},
                       {"alignments_list.txt", LinkType::kOutput}}));
  wf.add_job(make_job("split", "split_alignments",
                      {{"alignments_list.txt", LinkType::kInput},
                       {"protein_0.txt", LinkType::kOutput},
                       {"protein_1.txt", LinkType::kOutput}}));
  wf.add_job(make_job("cap3_0", "run_cap3",
                      {{"transcripts_dict.txt", LinkType::kInput},
                       {"protein_0.txt", LinkType::kInput},
                       {"joined_0.fasta", LinkType::kOutput}}));
  wf.add_job(make_job("cap3_1", "run_cap3",
                      {{"transcripts_dict.txt", LinkType::kInput},
                       {"protein_1.txt", LinkType::kInput},
                       {"joined_1.fasta", LinkType::kOutput}}));
  wf.add_job(make_job("merge", "merge_joined",
                      {{"joined_0.fasta", LinkType::kInput},
                       {"joined_1.fasta", LinkType::kInput},
                       {"assembly.fasta", LinkType::kOutput}}));
  wf.infer_dependencies_from_files();
  return wf;
}

TEST(Dax, RejectsBadJobs) {
  AbstractWorkflow wf("w");
  EXPECT_THROW(wf.add_job(make_job("", "tf")), common::InvalidArgument);
  EXPECT_THROW(wf.add_job(make_job("a", "")), common::InvalidArgument);
  wf.add_job(make_job("a", "tf"));
  EXPECT_THROW(wf.add_job(make_job("a", "tf")), common::InvalidArgument);
}

TEST(Dax, EmptyNameRejected) {
  EXPECT_THROW(AbstractWorkflow(""), common::InvalidArgument);
}

TEST(Dax, DependencyValidation) {
  AbstractWorkflow wf("w");
  wf.add_job(make_job("a", "tf"));
  wf.add_job(make_job("b", "tf"));
  EXPECT_THROW(wf.add_dependency("a", "nope"), common::InvalidArgument);
  EXPECT_THROW(wf.add_dependency("nope", "b"), common::InvalidArgument);
  EXPECT_THROW(wf.add_dependency("a", "a"), common::WorkflowError);
  wf.add_dependency("a", "b");
  wf.add_dependency("a", "b");  // duplicate ok
  EXPECT_EQ(wf.edge_count(), 1u);
}

TEST(Dax, CycleRejected) {
  AbstractWorkflow wf("w");
  wf.add_job(make_job("a", "tf"));
  wf.add_job(make_job("b", "tf"));
  wf.add_job(make_job("c", "tf"));
  wf.add_dependency("a", "b");
  wf.add_dependency("b", "c");
  EXPECT_THROW(wf.add_dependency("c", "a"), common::WorkflowError);
}

TEST(Dax, InferredDependenciesMatchFig2Shape) {
  const auto wf = mini_workflow();
  EXPECT_EQ(wf.parents("split"), (std::vector<std::string>{"list_a"}));
  const auto cap3_parents = wf.parents("cap3_0");
  EXPECT_EQ(cap3_parents, (std::vector<std::string>{"list_t", "split"}));
  EXPECT_EQ(wf.parents("merge"), (std::vector<std::string>{"cap3_0", "cap3_1"}));
  EXPECT_TRUE(wf.parents("list_t").empty());
  EXPECT_TRUE(wf.parents("list_a").empty());
}

TEST(Dax, DoubleProducerRejected) {
  AbstractWorkflow wf("w");
  wf.add_job(make_job("a", "tf", {{"f", LinkType::kOutput}}));
  wf.add_job(make_job("b", "tf", {{"f", LinkType::kOutput}}));
  EXPECT_THROW(wf.infer_dependencies_from_files(), common::WorkflowError);
  EXPECT_THROW(wf.validate(), common::WorkflowError);
}

TEST(Dax, TopologicalOrderRespectsEdges) {
  const auto wf = mini_workflow();
  const auto order = wf.topological_order();
  ASSERT_EQ(order.size(), wf.jobs().size());
  const auto pos = [&](const std::string& id) {
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  EXPECT_LT(pos("list_a"), pos("split"));
  EXPECT_LT(pos("split"), pos("cap3_0"));
  EXPECT_LT(pos("list_t"), pos("cap3_1"));
  EXPECT_LT(pos("cap3_0"), pos("merge"));
  EXPECT_LT(pos("cap3_1"), pos("merge"));
}

TEST(Dax, WorkflowInputsAndOutputs) {
  const auto wf = mini_workflow();
  EXPECT_EQ(wf.workflow_inputs(),
            (std::vector<std::string>{"alignments.out", "transcripts.fasta"}));
  EXPECT_EQ(wf.workflow_outputs(), (std::vector<std::string>{"assembly.fasta"}));
}

TEST(Dax, JobAccessors) {
  const auto wf = mini_workflow();
  EXPECT_TRUE(wf.has_job("split"));
  EXPECT_FALSE(wf.has_job("nope"));
  EXPECT_EQ(wf.job("split").transformation, "split_alignments");
  EXPECT_THROW((void)wf.job("nope"), common::InvalidArgument);
  EXPECT_THROW(wf.parents("nope"), common::InvalidArgument);
  const auto inputs = wf.job("cap3_0").inputs();
  EXPECT_EQ(inputs.size(), 2u);
  const auto outputs = wf.job("cap3_0").outputs();
  EXPECT_EQ(outputs, (std::vector<std::string>{"joined_0.fasta"}));
}

TEST(Dax, ChildrenAccessor) {
  const auto wf = mini_workflow();
  const auto kids = wf.children("split");
  EXPECT_EQ(kids, (std::vector<std::string>{"cap3_0", "cap3_1"}));
}

TEST(Dax, ValidatePassesOnSaneWorkflow) {
  EXPECT_NO_THROW(mini_workflow().validate());
}

}  // namespace
}  // namespace pga::wms
