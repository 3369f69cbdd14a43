#include "wms/catalog.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace pga::wms {
namespace {

TEST(ReplicaCatalog, AddLookup) {
  ReplicaCatalog rc;
  rc.add("transcripts.fasta", {"/data/transcripts.fasta", "local"});
  rc.add("transcripts.fasta", {"/scratch/transcripts.fasta", "sandhills"});
  EXPECT_TRUE(rc.has("transcripts.fasta"));
  EXPECT_FALSE(rc.has("nope"));
  EXPECT_EQ(rc.lookup("transcripts.fasta").size(), 2u);
  EXPECT_TRUE(rc.lookup("nope").empty());
  EXPECT_THROW(rc.add("", {"x", "y"}), common::InvalidArgument);
}

TEST(ReplicaCatalog, BestForSitePrefersLocalReplica) {
  ReplicaCatalog rc;
  rc.add("f", {"/a", "local"});
  rc.add("f", {"/b", "sandhills"});
  const auto at_sandhills = rc.best_for_site("f", "sandhills");
  ASSERT_TRUE(at_sandhills.has_value());
  EXPECT_EQ(at_sandhills->pfn, "/b");
  const auto at_osg = rc.best_for_site("f", "osg");
  ASSERT_TRUE(at_osg.has_value());
  EXPECT_EQ(at_osg->pfn, "/a");  // falls back to first
  EXPECT_FALSE(rc.best_for_site("ghost", "osg").has_value());
}

TEST(ReplicaCatalog, RemoveEmptiesAndReRegisters) {
  ReplicaCatalog rc;
  rc.add("f", {"/a", "local"});
  rc.add("f", {"/b", "osg"});
  rc.add("f", {"/c", "osg"});
  EXPECT_EQ(rc.size(), 1u);
  EXPECT_EQ(rc.remove("f", "osg"), 2u);   // drops both osg replicas
  EXPECT_EQ(rc.remove("f", "osg"), 0u);   // idempotent
  EXPECT_EQ(rc.remove("ghost", "osg"), 0u);
  EXPECT_TRUE(rc.has("f"));
  EXPECT_EQ(rc.lookup("f").size(), 1u);
  EXPECT_EQ(rc.remove("f", "local"), 1u);
  // Emptied: the LFN reads as absent everywhere a caller can observe it.
  EXPECT_FALSE(rc.has("f"));
  EXPECT_EQ(rc.size(), 0u);
  EXPECT_EQ(rc.find("f"), nullptr);
  EXPECT_FALSE(rc.best_for_site("f", "local").has_value());
  EXPECT_TRUE(rc.entries().empty());
  // Re-registration after eviction revives the interned slot.
  rc.add("f", {"/a2", "local"});
  EXPECT_TRUE(rc.has("f"));
  EXPECT_EQ(rc.size(), 1u);
  ASSERT_NE(rc.find("f"), nullptr);
  EXPECT_EQ(rc.find("f")->front().pfn, "/a2");
}

TEST(ReplicaCatalog, FindReturnsStableInsertionOrder) {
  ReplicaCatalog rc;
  rc.reserve(4);
  rc.add("f", {"/first", "a"});
  rc.add("f", {"/second", "b"});
  rc.add("f", {"/third", "c"});
  const auto* replicas = rc.find("f");
  ASSERT_NE(replicas, nullptr);
  ASSERT_EQ(replicas->size(), 3u);
  EXPECT_EQ((*replicas)[0].pfn, "/first");
  EXPECT_EQ((*replicas)[1].pfn, "/second");
  EXPECT_EQ((*replicas)[2].pfn, "/third");
  EXPECT_EQ(rc.find("absent"), nullptr);
}

TEST(ReplicaCatalog, ShardedMatchesReferenceMapAtScale) {
  // Model check against the legacy std::map semantics the sharded rewrite
  // must preserve: same membership, same per-LFN replica order, and
  // entries() still iterates in LFN-sorted order for serialization.
  ReplicaCatalog rc;
  std::map<std::string, std::vector<Replica>> reference;
  for (int i = 0; i < 500; ++i) {
    const std::string lfn = "chunk_" + std::to_string(i * 37 % 500) + ".fa";
    const std::string site = (i % 3 == 0) ? "local" : "osg";
    Replica replica{"/data/" + lfn + "@" + std::to_string(i), site, 0};
    rc.add(lfn, replica);
    reference[lfn].push_back(replica);
  }
  ASSERT_EQ(rc.size(), reference.size());
  const auto entries = rc.entries();
  ASSERT_EQ(entries.size(), reference.size());
  auto expected = reference.begin();
  for (const auto& [lfn, replicas] : entries) {
    EXPECT_EQ(lfn, expected->first);  // LFN-sorted order preserved
    ASSERT_EQ(replicas.size(), expected->second.size());
    for (std::size_t r = 0; r < replicas.size(); ++r) {
      EXPECT_EQ(replicas[r].pfn, expected->second[r].pfn);
      EXPECT_EQ(replicas[r].site, expected->second[r].site);
    }
    ++expected;
  }
}

TEST(ReplicaCatalog, IsMoveOnly) {
  static_assert(!std::is_copy_constructible_v<ReplicaCatalog>);
  static_assert(std::is_move_constructible_v<ReplicaCatalog>);
  ReplicaCatalog rc;
  rc.add("f", {"/a", "local"});
  ReplicaCatalog moved = std::move(rc);
  EXPECT_TRUE(moved.has("f"));
}

TEST(TransformationCatalog, LookupPerSite) {
  TransformationCatalog tc;
  tc.add("run_cap3", "sandhills", {"/usr/bin/cap3", true});
  tc.add("run_cap3", "osg", {"http://repo/cap3.tar.gz", false});
  EXPECT_TRUE(tc.available("run_cap3", "sandhills"));
  EXPECT_FALSE(tc.available("run_cap3", "cloud"));
  const auto osg = tc.lookup("run_cap3", "osg");
  ASSERT_TRUE(osg.has_value());
  EXPECT_FALSE(osg->installed);
  const auto sandhills = tc.lookup("run_cap3", "sandhills");
  ASSERT_TRUE(sandhills.has_value());
  EXPECT_TRUE(sandhills->installed);
  EXPECT_THROW(tc.add("", "s", {"p", true}), common::InvalidArgument);
}

TEST(SiteCatalog, AddAndQuery) {
  SiteCatalog sc;
  sc.add({"sandhills", 64, true, "/work"});
  sc.add({"osg", 150, false, "/tmp"});
  EXPECT_TRUE(sc.has("sandhills"));
  EXPECT_FALSE(sc.has("xsede"));
  EXPECT_EQ(sc.site("sandhills").slots, 64u);
  EXPECT_TRUE(sc.site("sandhills").software_preinstalled);
  EXPECT_FALSE(sc.site("osg").software_preinstalled);
  EXPECT_THROW((void)sc.site("xsede"), common::InvalidArgument);
  EXPECT_EQ(sc.names(), (std::vector<std::string>{"osg", "sandhills"}));
  EXPECT_THROW(sc.add({"", 1, true, ""}), common::InvalidArgument);
}

TEST(SiteCatalog, ReplaceUpdatesEntry) {
  SiteCatalog sc;
  sc.add({"s", 8, true, "/a"});
  sc.add({"s", 16, false, "/b"});
  EXPECT_EQ(sc.site("s").slots, 16u);
  EXPECT_FALSE(sc.site("s").software_preinstalled);
}

}  // namespace
}  // namespace pga::wms
