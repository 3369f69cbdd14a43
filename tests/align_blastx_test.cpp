#include "align/blastx.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "align/sw.hpp"
#include "bio/alphabet.hpp"
#include "bio/codon.hpp"
#include "bio/transcriptome.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace pga::align {
namespace {

/// A protein long enough to be unambiguous plus its reverse-translated CDS.
struct Fixture {
  std::vector<bio::SeqRecord> proteins;
  bio::SeqRecord transcript;
};

Fixture make_fixture(std::uint64_t seed = 3) {
  common::Rng rng(seed);
  std::string protein;
  const std::string_view aas = "ARNDCQEGHILKMFPSTWYV";
  for (int i = 0; i < 120; ++i) protein.push_back(aas[rng.below(20)]);
  std::string decoy;
  for (int i = 0; i < 120; ++i) decoy.push_back(aas[rng.below(20)]);
  Fixture fx;
  fx.proteins = {{"target", "", protein}, {"decoy", "", decoy}};
  fx.transcript = {"tx_1", "", bio::reverse_translate(protein, rng)};
  return fx;
}

TEST(Blastx, FindsForwardFrameHit) {
  auto fx = make_fixture();
  const BlastxSearch search(fx.proteins);
  const auto hits = search.search(fx.transcript);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].sseqid, "target");
  EXPECT_GT(hits[0].pident, 99.0);
  EXPECT_EQ(hits[0].length, 120);
  EXPECT_EQ(hits[0].qstart, 1);
  EXPECT_EQ(hits[0].qend, 360);
  EXPECT_EQ(hits[0].sstart, 1);
  EXPECT_EQ(hits[0].send, 120);
  EXPECT_LT(hits[0].evalue, 1e-20);
}

TEST(Blastx, FindsReverseStrandHitWithSwappedCoordinates) {
  auto fx = make_fixture(5);
  fx.transcript.seq = bio::reverse_complement(fx.transcript.seq);
  const BlastxSearch search(fx.proteins);
  const auto hits = search.search(fx.transcript);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].sseqid, "target");
  EXPECT_GT(hits[0].qstart, hits[0].qend);  // BLASTX minus-strand convention
  EXPECT_EQ(hits[0].qstart, 360);
  EXPECT_EQ(hits[0].qend, 1);
}

TEST(Blastx, FrameShiftedQueryStillFound) {
  auto fx = make_fixture(7);
  fx.transcript.seq = "GG" + fx.transcript.seq + "A";  // frame +3
  const BlastxSearch search(fx.proteins);
  const auto hits = search.search(fx.transcript);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].sseqid, "target");
  EXPECT_EQ(hits[0].qstart, 3);
  EXPECT_EQ(hits[0].length, 120);
}

TEST(Blastx, NoHitForUnrelatedQuery) {
  auto fx = make_fixture(9);
  common::Rng rng(1234);
  std::string random_dna;
  for (int i = 0; i < 200; ++i) random_dna.push_back(bio::kBases[rng.below(4)]);
  const BlastxSearch search(fx.proteins);
  const auto hits = search.search({"junk", "", random_dna});
  EXPECT_TRUE(hits.empty());
}

TEST(Blastx, BestHitPerSubjectCollapsesHsps) {
  auto fx = make_fixture(11);
  // Duplicate the CDS -> two HSPs against the same subject.
  fx.transcript.seq += "TTTTTTTTTT" + fx.transcript.seq;
  const BlastxSearch search(fx.proteins);
  const auto hits = search.search(fx.transcript);
  std::set<std::string> subjects;
  for (const auto& h : hits) {
    EXPECT_TRUE(subjects.insert(h.sseqid).second) << "duplicate subject " << h.sseqid;
  }
}

TEST(Blastx, MutatedQueryReportsReducedIdentity) {
  auto fx = make_fixture(13);
  common::Rng rng(55);
  // Mutate ~10% of codons to different amino acids.
  std::string protein = fx.proteins[0].seq;
  for (std::size_t i = 0; i < protein.size(); i += 10) {
    protein[i] = protein[i] == 'A' ? 'W' : 'A';
  }
  fx.transcript.seq = bio::reverse_translate(protein, rng);
  const BlastxSearch search(fx.proteins);
  const auto hits = search.search(fx.transcript);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].sseqid, "target");
  EXPECT_LT(hits[0].pident, 99.0);
  EXPECT_GT(hits[0].pident, 80.0);
}

TEST(Blastx, HitsSortedByBitscore) {
  auto fx = make_fixture(17);
  // Second subject = mutated copy of the target -> weaker hit.
  std::string weak = fx.proteins[0].seq;
  for (std::size_t i = 0; i < weak.size(); i += 4) weak[i] = weak[i] == 'G' ? 'P' : 'G';
  fx.proteins.push_back({"weak", "", weak});
  const BlastxSearch search(fx.proteins);
  const auto hits = search.search(fx.transcript);
  ASSERT_GE(hits.size(), 2u);
  for (std::size_t i = 1; i < hits.size(); ++i) {
    EXPECT_GE(hits[i - 1].bitscore, hits[i].bitscore);
  }
  EXPECT_EQ(hits[0].sseqid, "target");
}

TEST(Blastx, SearchAllSerialEqualsParallel) {
  auto fx = make_fixture(19);
  std::vector<bio::SeqRecord> queries;
  common::Rng rng(77);
  for (int i = 0; i < 8; ++i) {
    auto t = fx.transcript;
    t.id = "tx_" + std::to_string(i);
    queries.push_back(std::move(t));
  }
  const BlastxSearch search(fx.proteins);
  const auto serial = search.search_all(queries);
  common::ThreadPool pool(4);
  const auto parallel = search.search_all(queries, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]);
  }
}

TEST(Blastx, RecallOnSyntheticTranscriptome) {
  // Every transcript that covers a decent chunk of its CDS should hit its
  // own family protein.
  bio::TranscriptomeParams params;
  params.families = 8;
  params.protein_min = 100;
  params.protein_max = 200;
  params.fragment_min_frac = 0.6;
  params.seed = 23;
  const auto txm = bio::generate_transcriptome(params);
  const BlastxSearch search(txm.proteins);
  std::size_t found = 0, total = 0;
  for (const auto& t : txm.transcripts) {
    ++total;
    const auto hits = search.search(t);
    const auto& family = txm.family_of_transcript(t.id);
    for (const auto& h : hits) {
      if (h.sseqid == family) {
        ++found;
        break;
      }
    }
  }
  EXPECT_GT(total, 0u);
  EXPECT_GE(static_cast<double>(found) / static_cast<double>(total), 0.9)
      << found << "/" << total;
}

TEST(Blastx, ParameterValidation) {
  auto fx = make_fixture(29);
  BlastxParams p;
  p.min_seeds_per_diagonal = 0;
  EXPECT_THROW(BlastxSearch(fx.proteins, p), common::InvalidArgument);
  p = BlastxParams{};
  p.band = 0;
  EXPECT_THROW(BlastxSearch(fx.proteins, p), common::InvalidArgument);
}

TEST(Blastx, RejectsNonFiniteAndNegativeStatistics) {
  auto fx = make_fixture(29);
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double cutoff : {kNan, kInf, -kInf, -1e-6}) {
    BlastxParams p;
    p.evalue_cutoff = cutoff;
    EXPECT_THROW(BlastxSearch(fx.proteins, p), common::InvalidArgument) << cutoff;
  }
  for (const double bad : {kNan, kInf, 0.0, -0.267}) {
    BlastxParams p;
    p.ka.lambda = bad;
    EXPECT_THROW(BlastxSearch(fx.proteins, p), common::InvalidArgument) << bad;
    p = BlastxParams{};
    p.ka.k = bad;
    EXPECT_THROW(BlastxSearch(fx.proteins, p), common::InvalidArgument) << bad;
  }
  BlastxParams p;
  p.gaps.open = -1;
  EXPECT_THROW(BlastxSearch(fx.proteins, p), common::InvalidArgument);
  p = BlastxParams{};
  p.gaps.extend = -1;
  EXPECT_THROW(BlastxSearch(fx.proteins, p), common::InvalidArgument);
  // Boundary values stay accepted.
  p = BlastxParams{};
  p.evalue_cutoff = 0.0;
  p.gaps = {0, 0};
  EXPECT_NO_THROW(BlastxSearch(fx.proteins, p));
}

TEST(Blastx, MovedSearchGivesSameHits) {
  auto fx = make_fixture(31);
  BlastxSearch original(fx.proteins);
  const auto before = original.search(fx.transcript);
  const BlastxSearch moved(std::move(original));
  EXPECT_EQ(moved.search(fx.transcript), before);
  EXPECT_FALSE(before.empty());
}

TEST(Blastx, EqualScoreLaterFrameDoesNotReplaceEarlierHit) {
  // The CDS on the forward strand and again, reverse-complemented, after a
  // spacer: frame +1 and a minus frame both align the whole target with
  // the same score. The forward hit comes first and must be kept, and the
  // tied minus-frame winner must not pay for a traceback.
  auto fx = make_fixture(37);
  const std::string cds = fx.transcript.seq;
  fx.transcript.seq = cds + "TTTTTTTTTT" + bio::reverse_complement(cds);
  const BlastxSearch search(fx.proteins);
  reset_dp_counters();
  const auto hits = search.search(fx.transcript);
  const DpCounters counters = dp_counters();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].sseqid, "target");
  EXPECT_EQ(hits[0].qstart, 1);
  EXPECT_EQ(hits[0].qend, static_cast<long>(cds.size()));
  EXPECT_EQ(counters.tracebacks, 1u);

  // The minus-strand copy alone scores exactly the same.
  const auto minus_only =
      search.search({"rc", "", bio::reverse_complement(cds)});
  ASSERT_EQ(minus_only.size(), 1u);
  EXPECT_EQ(minus_only[0].bitscore, hits[0].bitscore);
  EXPECT_GT(minus_only[0].qstart, minus_only[0].qend);
}

/// Encodes a protein as DNA with one fixed codon per residue, so every
/// frame of the transcript is known exactly.
std::string fixed_codons(std::string_view protein) {
  static const std::map<char, std::string_view> kCodon = {
      {'A', "GCT"}, {'R', "CGT"}, {'N', "AAT"}, {'D', "GAT"}, {'C', "TGT"},
      {'Q', "CAA"}, {'E', "GAA"}, {'G', "GGT"}, {'H', "CAT"}, {'I', "ATT"},
      {'L', "CTT"}, {'K', "AAA"}, {'M', "ATG"}, {'F', "TTT"}, {'P', "CCT"},
      {'S', "TCT"}, {'T', "ACT"}, {'W', "TGG"}, {'Y', "TAT"}, {'V', "GTT"}};
  std::string dna;
  for (const char aa : protein) dna += kCodon.at(aa);
  return dna;
}

/// Score-only (gapped) extensions one search starts.
std::uint64_t extensions_started(const BlastxSearch& search, const std::string& dna) {
  reset_dp_counters();
  (void)search.search({"q", "", dna});
  return dp_counters().score_only;
}

TEST(BlastxTwoHit, ConsecutiveSeedsOnTheTrueDiagonalStillExtend) {
  // At 100% identity every query offset is a word hit on the true
  // diagonal, each overlapping the one before. The two-hit rule compares
  // a hit with the diagonal's last *recorded* hit, which an overlapping
  // hit does not replace; comparing with the previous hit instead would
  // never see two hits word_size apart and lose the alignment.
  common::Rng rng(41);
  std::string protein;
  for (int i = 0; i < 90; ++i) protein.push_back(bio::kAminoAcids[rng.below(20)]);
  const BlastxSearch search({{"target", "", protein}});
  reset_dp_counters();
  const auto hits = search.search({"tx", "", fixed_codons(protein)});
  const DpCounters counters = dp_counters();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].sseqid, "target");
  EXPECT_EQ(hits[0].length, 90);
  EXPECT_DOUBLE_EQ(hits[0].pident, 100.0);
  EXPECT_EQ(counters.score_only, 1u);
  EXPECT_EQ(counters.tracebacks, 1u);
}

TEST(BlastxTwoHit, MinSeedsPerDiagonalDropsTriggeredDiagonalsWithFewerHits) {
  // The 90-residue identity puts 88 word hits on the true diagonal of
  // frame +1, and a triggered diagonal needs min_seeds_per_diagonal of
  // them to reach the gapped DP.
  common::Rng rng(41);
  std::string protein;
  for (int i = 0; i < 90; ++i) protein.push_back(bio::kAminoAcids[rng.below(20)]);
  const std::string dna = fixed_codons(protein);
  for (const auto& [min_seeds, expected] :
       {std::pair<std::size_t, std::uint64_t>{88, 1}, {89, 0}}) {
    BlastxParams p;
    p.min_seeds_per_diagonal = min_seeds;
    const BlastxSearch search({{"target", "", protein}}, p);
    EXPECT_EQ(extensions_started(search, dna), expected) << "min seeds " << min_seeds;
  }
}

// The next two tests place two seed words on one diagonal of a subject
// whose background ('W') scores -4 against the query's ('P'). Each word
// yields three overlapping hits (the word and the two it straddles with
// the background), so the diagonal's first recorded hit sits one residue
// before word 1 and the two-hit pair is decided by the first hit of
// word 2. Residues placed right after word 1 replace background pairs;
// none of them forms a word that reaches the neighborhood threshold, so
// they change the ungapped score without adding hits.

/// Query frame-+1 protein and subject for seed words "CYC" and "CHC"
/// `distance` residues apart, with `query_fill` / `subject_fill` aligned
/// right after word 1 and background filling the rest.
std::pair<std::string, std::string> two_seed_diagonal(std::size_t distance,
                                                      std::string_view query_fill,
                                                      std::string_view subject_fill) {
  std::string query = std::string(10, 'P') + "CYCP";
  std::string subject = std::string(10, 'W') + "CYCW";
  query += query_fill;
  subject += subject_fill;
  const std::size_t word2 = 10 + distance;
  query += std::string(word2 - 1 - query.size(), 'P');
  subject += std::string(word2 - 1 - subject.size(), 'W');
  query += "PCHC" + std::string(10, 'P');
  subject += "WCHC" + std::string(10, 'W');
  return {query, subject};
}

TEST(BlastxTwoHit, HitsFartherApartThanTheWindowStartNoExtension) {
  // Within the window an I-against-V stretch (+3 per residue) carries
  // the ungapped extension from word 2 back to word 1, far past the
  // trigger; one more residue apart than the window, word 2 only
  // replaces the recorded hit.
  for (const auto& [distance, expected] :
       {std::pair<std::size_t, std::uint64_t>{30, 1}, {40, 1}, {41, 0}, {45, 0}}) {
    const std::string query_fill(distance - 5, 'I');
    const std::string subject_fill(distance - 5, 'V');
    const auto [query, subject] = two_seed_diagonal(distance, query_fill, subject_fill);
    const BlastxSearch search({{"s", "", subject}});
    EXPECT_EQ(extensions_started(search, fixed_codons(query)), expected)
        << "seed words " << distance << " apart";
  }
}

TEST(BlastxTwoHit, UngappedScoreBelowTheTriggerStartsNoExtension) {
  // Eight residues apart, the ungapped extension scores both words (25 +
  // 26) and the five background pairs between them (-20): 31. One
  // identical fill residue replaces a background pair: T-T (5) gives 40,
  // one short of the raw trigger 41; N-N (6) gives exactly 41.
  for (const auto& [fill, expected] :
       {std::pair<std::string_view, std::uint64_t>{"", 0}, {"T", 0}, {"N", 1}}) {
    const auto [query, subject] = two_seed_diagonal(8, fill, fill);
    const BlastxSearch search({{"s", "", subject}});
    EXPECT_EQ(extensions_started(search, fixed_codons(query)), expected)
        << "fill '" << fill << "'";
  }
}

/// Seeded transcriptome with the blastx golden fixtures' shape.
bio::Transcriptome golden_transcriptome(std::uint64_t seed, std::size_t families,
                                        std::size_t protein_max) {
  bio::TranscriptomeParams params;
  params.families = families;
  params.protein_min = 80;
  params.protein_max = protein_max;
  params.seed = seed;
  return bio::generate_transcriptome(params);
}

/// Hits of the search whose alignment is shorter than the default minimum
/// length: with min_alignment_length = 0 and one HSP per (frame, subject),
/// every winner that passes the E-value cutoff is reported, so these are
/// exactly the winners the default search rejects on length.
std::size_t short_winners(const bio::Transcriptome& txm) {
  BlastxParams all;
  all.best_hit_per_subject = false;
  all.min_alignment_length = 0;
  const long min_length = BlastxParams{}.min_alignment_length;
  std::size_t n = 0;
  for (const auto& h : BlastxSearch(txm.proteins, all).search_all(txm.transcripts)) {
    if (h.length < min_length) ++n;
  }
  return n;
}

TEST(Blastx, TracebacksOnlyForReportableHits) {
  const auto txm = golden_transcriptome(42, 8, 160);
  const std::size_t rejects = short_winners(txm);
  const BlastxSearch search(txm.proteins);
  reset_dp_counters();
  const auto hits = search.search_all(txm.transcripts);
  const DpCounters counters = dp_counters();
  ASSERT_FALSE(hits.empty());
  EXPECT_LE(counters.tracebacks, hits.size() + rejects);
  EXPECT_LT(counters.tracebacks, counters.score_only);
  // Same bytes as the committed golden fixture.
  std::string bytes;
  for (const auto& h : hits) bytes += format_tabular(h) + "\n";
  std::ifstream in(std::filesystem::path(PGA_GOLDEN_DIR) /
                       "blastx_tabular_default_seed42.txt",
                   std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(bytes, golden.str());
}

TEST(Blastx, MultiHspTracebacksAreHitsPlusLengthRejects) {
  // Without the per-subject collapse only the E-value gate applies: every
  // traceback yields a reported hit or a min_alignment_length reject.
  const auto txm = golden_transcriptome(7, 6, 140);
  const std::size_t rejects = short_winners(txm);
  BlastxParams p;
  p.best_hit_per_subject = false;
  const BlastxSearch search(txm.proteins, p);
  reset_dp_counters();
  const auto hits = search.search_all(txm.transcripts);
  const DpCounters counters = dp_counters();
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(counters.tracebacks, hits.size() + rejects);
}

}  // namespace
}  // namespace pga::align
