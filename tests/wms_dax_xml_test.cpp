#include "wms/dax_xml.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/fsutil.hpp"

namespace pga::wms {
namespace {

AbstractWorkflow sample() {
  AbstractWorkflow wf("blast2cap3");
  AbstractJob split;
  split.id = "split";
  split.transformation = "split_alignments";
  split.args = {"-n", "300"};
  split.cpu_seconds_hint = 120.5;
  split.uses = {{"alignments_list.txt", LinkType::kInput},
                {"protein_0.txt", LinkType::kOutput}};
  wf.add_job(split);

  AbstractJob cap3;
  cap3.id = "run_cap3_0";
  cap3.transformation = "run_cap3";
  cap3.uses = {{"protein_0.txt", LinkType::kInput},
               {"joined_0.fasta", LinkType::kOutput}};
  wf.add_job(cap3);
  wf.add_dependency("split", "run_cap3_0");
  return wf;
}

TEST(DaxXml, WriterEmitsExpectedStructure) {
  const std::string xml = to_dax_xml(sample());
  EXPECT_NE(xml.find("<adag name=\"blast2cap3\">"), std::string::npos);
  EXPECT_NE(xml.find("<job id=\"split\" name=\"split_alignments\""), std::string::npos);
  EXPECT_NE(xml.find("<argument>-n 300</argument>"), std::string::npos);
  EXPECT_NE(xml.find("<uses file=\"protein_0.txt\" link=\"output\"/>"),
            std::string::npos);
  EXPECT_NE(xml.find("<child ref=\"run_cap3_0\">"), std::string::npos);
  EXPECT_NE(xml.find("<parent ref=\"split\"/>"), std::string::npos);
}

TEST(DaxXml, RoundTripPreservesEverything) {
  const auto original = sample();
  const auto parsed = from_dax_xml(to_dax_xml(original));
  EXPECT_EQ(parsed.name(), original.name());
  ASSERT_EQ(parsed.jobs().size(), original.jobs().size());
  for (std::size_t i = 0; i < original.jobs().size(); ++i) {
    const auto& a = original.jobs()[i];
    const auto& b = parsed.jobs()[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.transformation, b.transformation);
    EXPECT_EQ(a.args, b.args);
    EXPECT_EQ(a.uses, b.uses);
    EXPECT_NEAR(a.cpu_seconds_hint, b.cpu_seconds_hint, 1e-3);
  }
  EXPECT_EQ(parsed.parents("run_cap3_0"), original.parents("run_cap3_0"));
  EXPECT_EQ(parsed.edge_count(), original.edge_count());
}

TEST(DaxXml, EscapesSpecialCharacters) {
  AbstractWorkflow wf("has <&> chars");
  AbstractJob job;
  job.id = "j";
  job.transformation = "tf";
  job.args = {"--flag=\"a&b\""};
  wf.add_job(job);
  const auto parsed = from_dax_xml(to_dax_xml(wf));
  EXPECT_EQ(parsed.name(), "has <&> chars");
  EXPECT_EQ(parsed.job("j").args, (std::vector<std::string>{"--flag=\"a&b\""}));
}

TEST(DaxXml, ParserRejectsMalformedDocuments) {
  EXPECT_THROW(from_dax_xml(""), common::ParseError);
  EXPECT_THROW(from_dax_xml("<notadag/>"), common::ParseError);
  EXPECT_THROW(from_dax_xml("<adag name=\"x\">"), common::ParseError);
  EXPECT_THROW(from_dax_xml("<adag name=\"x\"><job/></adag>"), common::ParseError);
  EXPECT_THROW(from_dax_xml("<adag name=\"x\"><job id=\"a\" name=\"t\">"
                            "<uses file=\"f\" link=\"sideways\"/></job></adag>"),
               common::ParseError);
  EXPECT_THROW(from_dax_xml("<adag name=\"x\"></wrong>"), common::ParseError);
}

TEST(DaxXml, ParserToleratesPrologAndWhitespace) {
  const std::string xml =
      "<?xml version=\"1.0\"?>\n<!-- comment -->\n"
      "<adag name=\"w\">\n  <job id=\"a\" name=\"t\"/>\n</adag>\n";
  const auto wf = from_dax_xml(xml);
  EXPECT_EQ(wf.name(), "w");
  EXPECT_TRUE(wf.has_job("a"));
}

TEST(DaxXml, ParserRejectsNonFiniteOrNegativeRuntime) {
  const auto doc = [](const std::string& runtime) {
    return "<adag name=\"w\"><job id=\"a\" name=\"t\" runtime=\"" + runtime +
           "\"/></adag>";
  };
  EXPECT_DOUBLE_EQ(from_dax_xml(doc("0")).jobs().front().cpu_seconds_hint, 0.0);
  EXPECT_DOUBLE_EQ(from_dax_xml(doc("12.5")).jobs().front().cpu_seconds_hint, 12.5);
  for (const char* bad : {"nan", "-nan", "inf", "-inf", "-1"}) {
    EXPECT_THROW(from_dax_xml(doc(bad)), common::ParseError) << bad;
  }
}

TEST(DaxXml, DependenciesOnUnknownJobsRejected) {
  const std::string xml =
      "<adag name=\"w\"><job id=\"a\" name=\"t\"/>"
      "<child ref=\"a\"><parent ref=\"ghost\"/></child></adag>";
  EXPECT_THROW(from_dax_xml(xml), common::InvalidArgument);
}

TEST(DaxXml, FileRoundTrip) {
  common::ScratchDir dir("dax-test");
  const auto path = dir.file("workflow.dax");
  write_dax_file(path, sample());
  const auto parsed = read_dax_file(path);
  EXPECT_EQ(parsed.name(), "blast2cap3");
  EXPECT_EQ(parsed.jobs().size(), 2u);
}

TEST(DaxXml, JobWithoutRuntimeHintOmitsAttribute) {
  AbstractWorkflow wf("w");
  AbstractJob job;
  job.id = "a";
  job.transformation = "t";
  wf.add_job(job);
  EXPECT_EQ(to_dax_xml(wf).find("runtime="), std::string::npos);
  const auto parsed = from_dax_xml(to_dax_xml(wf));
  EXPECT_DOUBLE_EQ(parsed.job("a").cpu_seconds_hint, 0.0);
}

}  // namespace
}  // namespace pga::wms
