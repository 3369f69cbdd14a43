// Parameterized property tests (TEST_P) over seeds and sizes: invariants
// that must hold for *any* input the generators can produce.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "align/tabular.hpp"
#include "assembly/cap3.hpp"
#include "b2c3/cluster.hpp"
#include "b2c3/splitter.hpp"
#include "bio/fasta.hpp"
#include "bio/transcriptome.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/b2c3_workflow.hpp"
#include "core/workload.hpp"
#include "sim/campus_cluster.hpp"
#include "sim/osg.hpp"
#include "sim_test_sink.hpp"
#include "wms/dax_xml.hpp"

namespace pga {
namespace {

// ---------------------------------------------------------------- seeds

class SeedProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeedProperty,
                         ::testing::Values(1, 7, 42, 1234, 99991));

bio::Transcriptome small_txm(std::uint64_t seed) {
  bio::TranscriptomeParams params;
  params.families = 6;
  params.protein_min = 60;
  params.protein_max = 120;
  params.seed = seed;
  return bio::generate_transcriptome(params);
}

TEST_P(SeedProperty, FastaRoundTripIsIdentity) {
  const auto txm = small_txm(GetParam());
  const auto parsed = bio::parse_fasta(bio::format_fasta(txm.transcripts, 60));
  EXPECT_EQ(parsed, txm.transcripts);
  const auto proteins = bio::parse_fasta(bio::format_fasta(txm.proteins, 0));
  EXPECT_EQ(proteins, txm.proteins);
}

TEST_P(SeedProperty, TruthMapsCoverAllTranscripts) {
  const auto txm = small_txm(GetParam());
  EXPECT_EQ(txm.transcript_gene.size(), txm.transcripts.size());
  for (const auto& [tid, gid] : txm.transcript_gene) {
    EXPECT_TRUE(txm.gene_family.count(gid)) << tid;
  }
}

TEST_P(SeedProperty, ClusteringIsAlwaysAPartition) {
  common::Rng rng(GetParam());
  std::vector<align::TabularHit> hits;
  std::set<std::string> queries;
  for (int i = 0; i < 400; ++i) {
    align::TabularHit hit;
    hit.qseqid = "t" + std::to_string(rng.below(90));
    hit.sseqid = "p" + std::to_string(rng.below(12));
    hit.bitscore = static_cast<double>(rng.below(300));
    hit.evalue = 1e-10;
    queries.insert(hit.qseqid);
    hits.push_back(std::move(hit));
  }
  const auto set = b2c3::cluster_by_best_hit(hits);
  std::set<std::string> seen;
  for (const auto& cluster : set.clusters) {
    EXPECT_FALSE(cluster.transcripts.empty());
    for (const auto& t : cluster.transcripts) {
      EXPECT_TRUE(seen.insert(t).second) << t << " appears twice";
    }
  }
  EXPECT_EQ(seen, queries);
}

TEST_P(SeedProperty, AssemblyConservesMembership) {
  const auto txm = small_txm(GetParam());
  const auto result = assembly::assemble(txm.transcripts);
  std::size_t members = result.singlets.size();
  for (const auto& c : result.contigs) {
    members += c.members.size();
    // Consensus can never be shorter than its longest member (ungapped
    // layout) nor absurdly long.
    std::size_t longest = 0, total = 0;
    for (const auto& id : c.members) {
      for (const auto& t : txm.transcripts) {
        if (t.id == id) {
          longest = std::max(longest, t.seq.size());
          total += t.seq.size();
        }
      }
    }
    EXPECT_GE(c.consensus.size(), longest) << c.id;
    EXPECT_LE(c.consensus.size(), total) << c.id;
  }
  EXPECT_EQ(members, txm.transcripts.size());
}

TEST_P(SeedProperty, ParallelOverlapGraphMatchesSerial) {
  // The overlap phase promises bit-identical results for any worker
  // count; the greedy merge consumes overlap order, so this is what keeps
  // assemblies reproducible under parallelism.
  const auto txm = small_txm(GetParam());
  const auto serial = assembly::find_overlaps(txm.transcripts);
  common::ThreadPool pool(3);
  const auto parallel = assembly::find_overlaps(txm.transcripts, {}, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].a, parallel[i].a);
    EXPECT_EQ(serial[i].b, parallel[i].b);
    EXPECT_EQ(serial[i].kind, parallel[i].kind);
    EXPECT_EQ(serial[i].shift, parallel[i].shift);
    EXPECT_EQ(serial[i].flipped, parallel[i].flipped);
    EXPECT_EQ(serial[i].alignment.score, parallel[i].alignment.score);
    EXPECT_EQ(serial[i].alignment.q_begin, parallel[i].alignment.q_begin);
    EXPECT_EQ(serial[i].alignment.s_begin, parallel[i].alignment.s_begin);
  }
  // And the pooled assembler built on it returns the serial assembly.
  const auto a1 = assembly::assemble(txm.transcripts);
  const auto a2 = assembly::assemble(txm.transcripts, {}, &pool);
  ASSERT_EQ(a1.contigs.size(), a2.contigs.size());
  for (std::size_t i = 0; i < a1.contigs.size(); ++i) {
    EXPECT_EQ(a1.contigs[i].consensus, a2.contigs[i].consensus);
    EXPECT_EQ(a1.contigs[i].members, a2.contigs[i].members);
  }
}

TEST_P(SeedProperty, SimulatedAttemptTimingInvariants) {
  sim::EventQueue queue;
  sim::OsgConfig config;
  config.seed = GetParam();
  config.preempt_mean = 3'000;
  sim::OsgPlatform platform(queue, config);
  std::vector<sim::AttemptResult> attempts;
  sim::CallbackSink sink(platform,
                         [&attempts](const sim::AttemptResult& r) { attempts.push_back(r); });
  for (std::uint32_t i = 0; i < 40; ++i) {
    sink.submit({.job = i,
                 .transformation = "t",
                 .cpu_seconds = 2'000,
                 .needs_software_setup = true});
  }
  queue.run();
  ASSERT_EQ(attempts.size(), 40u);
  for (const auto& a : attempts) {
    EXPECT_GE(a.start_time, a.submit_time);
    EXPECT_GE(a.end_time, a.start_time);
    EXPECT_NEAR(a.wait_seconds, a.start_time - a.submit_time, 1e-9);
    EXPECT_GE(a.install_seconds, 0.0);
    EXPECT_GE(a.exec_seconds, 0.0);
    EXPECT_NEAR(a.end_time - a.start_time, a.install_seconds + a.exec_seconds, 1e-6);
  }
}

TEST_P(SeedProperty, CampusClusterNeverFails) {
  sim::EventQueue queue;
  sim::CampusClusterConfig config;
  config.seed = GetParam();
  config.allocated_slots = 8;
  sim::CampusClusterPlatform platform(queue, config);
  std::size_t successes = 0;
  sim::CallbackSink sink(platform, [&successes](const sim::AttemptResult& r) {
    if (r.success) ++successes;
  });
  for (std::uint32_t i = 0; i < 50; ++i) {
    sink.submit({.job = i, .transformation = "t", .cpu_seconds = 500});
  }
  queue.run();
  EXPECT_EQ(successes, 50u);
}

// ------------------------------------------------------------ (n, seed)

class SplitProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, SplitProperty,
    ::testing::Combine(::testing::Values(1, 3, 10, 50, 300),
                       ::testing::Values(5, 17, 23)));

TEST_P(SplitProperty, SplitIsLosslessAndProteinAtomic) {
  const auto [n, seed] = GetParam();
  common::Rng rng(seed);
  std::vector<align::TabularHit> hits;
  for (int i = 0; i < 600; ++i) {
    align::TabularHit hit;
    hit.qseqid = "t" + std::to_string(i);
    hit.sseqid = "p" + std::to_string(rng.zipf(40, 1.0));
    hit.bitscore = 100;
    hit.evalue = 1e-10;
    hits.push_back(std::move(hit));
  }
  const auto chunks = b2c3::split_hits(hits, n);
  ASSERT_EQ(chunks.size(), n);
  std::size_t total = 0;
  std::map<std::string, std::set<std::size_t>> protein_chunks;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    total += chunks[c].size();
    for (const auto& h : chunks[c]) protein_chunks[h.sseqid].insert(c);
  }
  EXPECT_EQ(total, hits.size());
  for (const auto& [protein, in] : protein_chunks) {
    EXPECT_EQ(in.size(), 1u) << protein;
  }
  // Clustering each chunk independently yields the same clusters as
  // clustering everything at once (the property that makes the parallel
  // decomposition exact).
  std::map<std::string, std::vector<std::string>> merged;
  for (const auto& chunk : chunks) {
    for (const auto& cluster : b2c3::cluster_by_best_hit(chunk).clusters) {
      auto& into = merged[cluster.protein_id];
      into.insert(into.end(), cluster.transcripts.begin(),
                  cluster.transcripts.end());
    }
  }
  std::map<std::string, std::vector<std::string>> whole;
  for (const auto& cluster : b2c3::cluster_by_best_hit(hits).clusters) {
    whole[cluster.protein_id] = cluster.transcripts;
  }
  for (auto& [protein, transcripts] : merged) std::sort(transcripts.begin(), transcripts.end());
  EXPECT_EQ(merged, whole);
}

// ------------------------------------------------------------------- n

class WorkflowWidth : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(Widths, WorkflowWidth,
                         ::testing::Values(1, 2, 10, 100, 500));

TEST_P(WorkflowWidth, DaxAlwaysValidAndRoundTrips) {
  const std::size_t n = GetParam();
  const auto wf = core::build_blast2cap3_dax(core::B2c3WorkflowSpec{.n = n});
  EXPECT_NO_THROW(wf.validate());
  EXPECT_EQ(wf.jobs().size(), n + 6);
  const auto parsed = wms::from_dax_xml(wms::to_dax_xml(wf));
  EXPECT_EQ(parsed.jobs().size(), wf.jobs().size());
  EXPECT_EQ(parsed.edge_count(), wf.edge_count());
  EXPECT_EQ(parsed.topological_order().size(), wf.jobs().size());
}

TEST_P(WorkflowWidth, ChunkCostsCoverAllWork) {
  const std::size_t n = GetParam();
  const core::WorkloadModel model;
  const auto chunks = model.chunk_costs(n);
  double sum = 0;
  for (const double c : chunks) sum += c;
  const double fixed = static_cast<double>(n) * model.params().run_cap3_fixed_seconds;
  EXPECT_NEAR(sum - fixed, model.total_cap3_seconds(),
              model.total_cap3_seconds() * 1e-9);
  // Max chunk never increases as n grows... within a single n it at least
  // bounds the mean.
  const double mx = *std::max_element(chunks.begin(), chunks.end());
  EXPECT_GE(mx, (sum / static_cast<double>(n)) - 1e-9);
}

}  // namespace
}  // namespace pga
