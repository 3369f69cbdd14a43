#include "bio/transcriptome.hpp"

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "bio/alphabet.hpp"
#include "bio/codon.hpp"
#include "bio/fastq.hpp"
#include "common/error.hpp"

namespace pga::bio {
namespace {

TranscriptomeParams small_params(std::uint64_t seed = 42) {
  TranscriptomeParams p;
  p.families = 10;
  p.protein_min = 60;
  p.protein_max = 120;
  p.seed = seed;
  return p;
}

TEST(Transcriptome, DeterministicForSeed) {
  const auto a = generate_transcriptome(small_params(7));
  const auto b = generate_transcriptome(small_params(7));
  ASSERT_EQ(a.transcripts.size(), b.transcripts.size());
  for (std::size_t i = 0; i < a.transcripts.size(); ++i) {
    EXPECT_EQ(a.transcripts[i], b.transcripts[i]);
  }
  ASSERT_EQ(a.proteins.size(), b.proteins.size());
  for (std::size_t i = 0; i < a.proteins.size(); ++i) {
    EXPECT_EQ(a.proteins[i], b.proteins[i]);
  }
}

TEST(Transcriptome, DifferentSeedsDiffer) {
  const auto a = generate_transcriptome(small_params(1));
  const auto b = generate_transcriptome(small_params(2));
  ASSERT_FALSE(a.proteins.empty());
  ASSERT_FALSE(b.proteins.empty());
  EXPECT_NE(a.proteins[0].seq, b.proteins[0].seq);
}

TEST(Transcriptome, OneProteinPerFamily) {
  const auto txm = generate_transcriptome(small_params());
  EXPECT_EQ(txm.proteins.size(), 10u);
  std::set<std::string> ids;
  for (const auto& p : txm.proteins) {
    ids.insert(p.id);
    EXPECT_TRUE(is_protein(p.seq)) << p.id;
  }
  EXPECT_EQ(ids.size(), 10u);
}

TEST(Transcriptome, GenesReferenceValidFamilies) {
  const auto txm = generate_transcriptome(small_params());
  std::set<std::string> families;
  for (const auto& p : txm.proteins) families.insert(p.id);
  for (const auto& g : txm.genes) {
    EXPECT_TRUE(families.count(g.family_id)) << g.id;
    EXPECT_EQ(txm.gene_family.at(g.id), g.family_id);
  }
}

TEST(Transcriptome, ParalogCountWithinBounds) {
  auto p = small_params();
  p.paralogs_min = 2;
  p.paralogs_max = 4;
  const auto txm = generate_transcriptome(p);
  std::map<std::string, int> per_family;
  for (const auto& g : txm.genes) ++per_family[g.family_id];
  for (const auto& [fam, n] : per_family) {
    EXPECT_GE(n, 2) << fam;
    EXPECT_LE(n, 4) << fam;
  }
}

TEST(Transcriptome, GeneMrnaEmbedsCds) {
  const auto txm = generate_transcriptome(small_params());
  for (const auto& g : txm.genes) {
    ASSERT_LE(g.cds_start + g.protein.size() * 3, g.mrna.size());
    const auto cds =
        std::string_view(g.mrna).substr(g.cds_start, g.protein.size() * 3);
    EXPECT_EQ(translate(cds, 0), g.protein) << g.id;
  }
}

TEST(Transcriptome, TranscriptsAreDnaAndMapped) {
  const auto txm = generate_transcriptome(small_params());
  EXPECT_FALSE(txm.transcripts.empty());
  std::unordered_set<std::string> gene_ids;
  for (const auto& g : txm.genes) gene_ids.insert(g.id);
  for (const auto& t : txm.transcripts) {
    EXPECT_TRUE(is_dna(t.seq)) << t.id;
    ASSERT_TRUE(txm.transcript_gene.count(t.id)) << t.id;
    EXPECT_TRUE(gene_ids.count(txm.transcript_gene.at(t.id))) << t.id;
  }
}

TEST(Transcriptome, TranscriptIdsUnique) {
  const auto txm = generate_transcriptome(small_params());
  std::set<std::string> ids;
  for (const auto& t : txm.transcripts) ids.insert(t.id);
  EXPECT_EQ(ids.size(), txm.transcripts.size());
}

TEST(Transcriptome, FragmentLengthsWithinFractionBounds) {
  auto p = small_params();
  p.error_rate = 0.0;
  const auto txm = generate_transcriptome(p);
  std::map<std::string, const Gene*> genes;
  for (const auto& g : txm.genes) genes[g.id] = &g;
  for (const auto& t : txm.transcripts) {
    const Gene* g = genes.at(txm.transcript_gene.at(t.id));
    const double frac =
        static_cast<double>(t.seq.size()) / static_cast<double>(g->mrna.size());
    EXPECT_GE(frac, p.fragment_min_frac - 0.02) << t.id;
    EXPECT_LE(frac, p.fragment_max_frac + 0.02) << t.id;
  }
}

TEST(Transcriptome, ZeroErrorFragmentsAreExactSubstrings) {
  auto p = small_params();
  p.error_rate = 0.0;
  const auto txm = generate_transcriptome(p);
  std::map<std::string, const Gene*> genes;
  for (const auto& g : txm.genes) genes[g.id] = &g;
  for (const auto& t : txm.transcripts) {
    const Gene* g = genes.at(txm.transcript_gene.at(t.id));
    EXPECT_NE(g->mrna.find(t.seq), std::string::npos) << t.id;
  }
}

TEST(Transcriptome, FusionPredicate) {
  const auto txm = generate_transcriptome(small_params());
  // Find two transcripts of the same gene and two of different genes.
  const std::string& g0 = txm.transcript_gene.at(txm.transcripts[0].id);
  std::string same, different;
  for (std::size_t i = 1; i < txm.transcripts.size(); ++i) {
    const auto& gid = txm.transcript_gene.at(txm.transcripts[i].id);
    if (gid == g0 && same.empty()) same = txm.transcripts[i].id;
    if (gid != g0 && different.empty()) different = txm.transcripts[i].id;
  }
  if (!same.empty()) {
    EXPECT_FALSE(txm.is_fusion(txm.transcripts[0].id, same));
  }
  ASSERT_FALSE(different.empty());
  EXPECT_TRUE(txm.is_fusion(txm.transcripts[0].id, different));
  EXPECT_THROW((void)txm.is_fusion("nope", txm.transcripts[0].id),
               common::InvalidArgument);
}

TEST(Transcriptome, FamilyOfTranscript) {
  const auto txm = generate_transcriptome(small_params());
  const auto& t = txm.transcripts.front();
  const auto& family = txm.family_of_transcript(t.id);
  EXPECT_EQ(family, txm.gene_family.at(txm.transcript_gene.at(t.id)));
  EXPECT_THROW((void)txm.family_of_transcript("missing"), common::InvalidArgument);
}

TEST(Transcriptome, RepeatGenesExist) {
  auto p = small_params();
  p.families = 40;
  p.repeat_gene_fraction = 0.5;
  const auto txm = generate_transcriptome(p);
  std::size_t with_repeat = 0;
  for (const auto& g : txm.genes) {
    if (g.has_repeat) ++with_repeat;
  }
  EXPECT_GT(with_repeat, 0u);
  EXPECT_LT(with_repeat, txm.genes.size());
}

TEST(Transcriptome, ValidationErrors) {
  auto p = small_params();
  p.families = 0;
  EXPECT_THROW(generate_transcriptome(p), common::InvalidArgument);
  p = small_params();
  p.paralogs_min = 3;
  p.paralogs_max = 2;
  EXPECT_THROW(generate_transcriptome(p), common::InvalidArgument);
  p = small_params();
  p.fragment_min_frac = 0.9;
  p.fragment_max_frac = 0.5;
  EXPECT_THROW(generate_transcriptome(p), common::InvalidArgument);
  p = small_params();
  p.protein_min = 10;  // below 30 aa floor
  EXPECT_THROW(generate_transcriptome(p), common::InvalidArgument);
}

TEST(SimulateReads, ProducesWellFormedFastq) {
  const auto txm = generate_transcriptome(small_params());
  common::Rng rng(1);
  const auto reads = simulate_reads(txm, 3, 100, rng);
  EXPECT_FALSE(reads.empty());
  for (const auto& r : reads) {
    EXPECT_EQ(r.seq.size(), 100u);
    EXPECT_EQ(r.qual.size(), 100u);
    for (std::size_t i = 0; i < r.qual.size(); ++i) {
      EXPECT_GE(r.phred(i), 2);
      EXPECT_LE(r.phred(i), 40);
    }
  }
}

TEST(SimulateReads, QualityDecaysTowardThreePrime) {
  const auto txm = generate_transcriptome(small_params());
  common::Rng rng(2);
  const auto reads = simulate_reads(txm, 5, 100, rng);
  double head = 0, tail = 0;
  for (const auto& r : reads) {
    for (std::size_t i = 0; i < 10; ++i) head += r.phred(i);
    for (std::size_t i = 90; i < 100; ++i) tail += r.phred(i);
  }
  EXPECT_GT(head, tail);
}

}  // namespace
}  // namespace pga::bio
