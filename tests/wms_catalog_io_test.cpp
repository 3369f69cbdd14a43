#include "wms/catalog_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "common/error.hpp"
#include "common/fsutil.hpp"
#include "core/b2c3_workflow.hpp"
#include "workload/generator.hpp"

namespace pga::wms {
namespace {

TEST(ReplicaCatalogIo, RoundTrip) {
  ReplicaCatalog rc;
  rc.add("transcripts.fasta", {"/data/transcripts.fasta", "local", 423'624'704});
  rc.add("transcripts.fasta", {"/scratch/transcripts.fasta", "sandhills"});
  rc.add("alignments.out", {"/data/alignments.out", "local", 162'529'280});

  const auto parsed = parse_rc_text(to_rc_text(rc));
  EXPECT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed.lookup("transcripts.fasta").size(), 2u);
  const auto best = parsed.best_for_site("transcripts.fasta", "sandhills");
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->pfn, "/scratch/transcripts.fasta");
  EXPECT_EQ(best->size_bytes, 0u);  // no size recorded for that replica
  EXPECT_EQ(parsed.lookup("alignments.out")[0].size_bytes, 162'529'280u);
}

TEST(ReplicaCatalogIo, ParseSkipsCommentsAndRejectsJunk) {
  const auto rc = parse_rc_text("# comment\n\nf /p site=\"local\"\n");
  EXPECT_TRUE(rc.has("f"));
  EXPECT_THROW(parse_rc_text("only_two fields\n"), common::ParseError);
  EXPECT_THROW(parse_rc_text("f /p nosite\n"), common::ParseError);
  EXPECT_THROW(parse_rc_text("f /p other=\"x\"\n"), common::ParseError);
}

TEST(ReplicaCatalogIo, SizeBytesSurviveEveryReplica) {
  // Sized and unsized replicas of one LFN round-trip independently: the
  // size attribute is per replica, and absence must parse back to 0.
  ReplicaCatalog rc;
  rc.add("f", {"/a/f", "local", 1'234});
  rc.add("f", {"/b/f", "osg"});
  rc.add("f", {"/c/f", "sandhills", 999'999'999'999ull});  // > 32-bit
  const auto parsed = parse_rc_text(to_rc_text(rc));
  const auto replicas = parsed.lookup("f");
  ASSERT_EQ(replicas.size(), 3u);
  std::map<std::string, std::uint64_t> sizes;
  for (const auto& replica : replicas) sizes[replica.pfn] = replica.size_bytes;
  EXPECT_EQ(sizes["/a/f"], 1'234u);
  EXPECT_EQ(sizes["/b/f"], 0u);
  EXPECT_EQ(sizes["/c/f"], 999'999'999'999ull);
}

TEST(TransformationCatalogIo, RoundTrip) {
  const auto tc = core::paper_transformation_catalog();
  const auto parsed = parse_tc_text(to_tc_text(tc));
  for (const auto& [key, entry] : tc.entries()) {
    const auto round = parsed.lookup(key.first, key.second);
    ASSERT_TRUE(round.has_value()) << key.first << "@" << key.second;
    EXPECT_EQ(round->pfn, entry.pfn);
    EXPECT_EQ(round->installed, entry.installed);
    EXPECT_EQ(round->size_bytes, entry.size_bytes);
  }
  // The paper catalog mixes both flavors, so the loop above genuinely
  // exercises INSTALLED and STAGEABLE (sized) entries.
  EXPECT_TRUE(parsed.lookup("run_cap3", "sandhills")->installed);
  EXPECT_FALSE(parsed.lookup("run_cap3", "osg")->installed);
  EXPECT_GT(parsed.lookup("run_cap3", "osg")->size_bytes, 0u);
}

TEST(TransformationCatalogIo, InstalledAndSizeFieldsRoundTrip) {
  TransformationCatalog tc;
  tc.add("t", "a", {"/p/a", /*installed=*/true});
  tc.add("t", "b", {"http://stash/t.tgz", /*installed=*/false, 350'000'000});
  const std::string text = to_tc_text(tc);
  // Size lines are only emitted when known — the installed entry stays
  // two-line, byte-compatible with pre-size catalogs.
  const auto site_b = text.find("site b");
  ASSERT_NE(site_b, std::string::npos);
  EXPECT_EQ(text.substr(0, site_b).find("size"), std::string::npos);
  EXPECT_NE(text.find("size", site_b), std::string::npos);
  const auto parsed = parse_tc_text(text);
  EXPECT_TRUE(parsed.lookup("t", "a")->installed);
  EXPECT_EQ(parsed.lookup("t", "a")->size_bytes, 0u);
  EXPECT_FALSE(parsed.lookup("t", "b")->installed);
  EXPECT_EQ(parsed.lookup("t", "b")->size_bytes, 350'000'000u);
}

TEST(TransformationCatalogIo, ParseErrors) {
  EXPECT_THROW(parse_tc_text("tr x {\n"), common::ParseError);  // unterminated
  EXPECT_THROW(parse_tc_text("site s {\n}\n"), common::ParseError);  // site w/o tr
  EXPECT_THROW(parse_tc_text("tr x {\n  site s {\n  }\n}\n"),
               common::ParseError);  // missing pfn
  EXPECT_THROW(parse_tc_text("tr x {\n  site s {\n    pfn \"/p\"\n"
                             "    type \"WEIRD\"\n  }\n}\n"),
               common::ParseError);
  EXPECT_THROW(parse_tc_text("}\n"), common::ParseError);
}

TEST(SiteCatalogIo, RoundTrip) {
  const auto sites = workload::generator_site_catalog();
  const auto parsed = parse_site_xml(to_site_xml(sites));
  EXPECT_EQ(parsed.names(), sites.names());
  for (const auto& name : sites.names()) {
    const auto& a = sites.site(name);
    const auto& b = parsed.site(name);
    EXPECT_EQ(a.slots, b.slots);
    EXPECT_EQ(a.software_preinstalled, b.software_preinstalled);
    EXPECT_EQ(a.scratch_dir, b.scratch_dir);
    EXPECT_NEAR(a.stage_bandwidth_bps, b.stage_bandwidth_bps, 1.0);
  }
}

TEST(SiteCatalogIo, ParseErrors) {
  EXPECT_THROW(parse_site_xml("<wrong/>"), common::ParseError);
  EXPECT_THROW(parse_site_xml("<sitecatalog><site handle=\"x\" slots=\"4\" "
                              "preinstalled=\"maybe\" scratch=\"/s\" "
                              "bandwidth=\"1\"/></sitecatalog>"),
               common::ParseError);
  EXPECT_THROW(parse_site_xml("<sitecatalog><site handle=\"x\"/></sitecatalog>"),
               common::ParseError);
}

TEST(CatalogIo, FileRoundTripAndPlanFromFiles) {
  // Write the paper's catalogs to disk, read them back, and plan with the
  // loaded copies — the real Pegasus configuration path.
  common::ScratchDir dir("catalog-io");
  write_rc_file(dir.file("rc.txt"), core::paper_replica_catalog());
  write_tc_file(dir.file("tc.txt"), core::paper_transformation_catalog());
  write_site_file(dir.file("sites.xml"), workload::generator_site_catalog());

  const auto rc = read_rc_file(dir.file("rc.txt"));
  const auto tc = read_tc_file(dir.file("tc.txt"));
  const auto sites = read_site_file(dir.file("sites.xml"));

  const core::B2c3WorkflowSpec spec{.n = 4};
  const auto dax = core::build_blast2cap3_dax(spec);
  PlannerOptions options;
  options.target_site = "osg";
  const auto concrete = plan(dax, sites, tc, rc, options);
  EXPECT_EQ(concrete.jobs().size(), 4u + 6u + 2u);
  // The staged bytes came through the file round trip.
  EXPECT_EQ(concrete.job("stage_in_0").staged_bytes,
            (404ull + 155ull) * 1024 * 1024);
}

}  // namespace
}  // namespace pga::wms
