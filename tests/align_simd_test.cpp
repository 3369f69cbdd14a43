// SIMD == scalar properties for the banded Smith–Waterman kernels.
//
// The AVX2 kernels must be bit-equivalent to the scalar reference on every
// input: same scores, same end cells, same tracebacks (observed through
// the full LocalAlignment), same DpCounters. These tests force each
// dispatch level in turn over adversarial shapes — empty/tiny inputs,
// band-edge widths, vector-boundary lengths, lowercase/ambiguous DNA,
// near-sentinel gap penalties, scores past INT16_MAX, profiles outside
// int8 — and require exact equality, for the single-pair entry points,
// for banded_score_only_batch and for banded_align_batch.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "align/simd.hpp"
#include "align/sw.hpp"
#include "align/sw_internal.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace pga::align {
namespace {

std::string random_protein(std::size_t n, common::Rng& rng) {
  static constexpr std::string_view kAas = "ARNDCQEGHILKMFPSTWYVX*";
  std::string s;
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) s.push_back(kAas[rng.below(kAas.size())]);
  return s;
}

std::string random_dna(std::size_t n, common::Rng& rng) {
  // Includes lowercase and 'N': the encoder must behave identically on
  // both paths for every byte value the pipeline can feed it.
  static constexpr std::string_view kBases = "ACGTNacgtn";
  std::string s;
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) s.push_back(kBases[rng.below(kBases.size())]);
  return s;
}

void expect_same_alignment(const LocalAlignment& a, const LocalAlignment& b) {
  EXPECT_EQ(a.score, b.score);
  EXPECT_EQ(a.q_begin, b.q_begin);
  EXPECT_EQ(a.q_end, b.q_end);
  EXPECT_EQ(a.s_begin, b.s_begin);
  EXPECT_EQ(a.s_end, b.s_end);
  EXPECT_EQ(a.matches, b.matches);
  EXPECT_EQ(a.mismatches, b.mismatches);
  EXPECT_EQ(a.gap_opens, b.gap_opens);
  EXPECT_EQ(a.gap_residues, b.gap_residues);
}

/// Runs one (query, subject, diagonal, band, gaps) case on both dispatch
/// levels and requires identical score-only results, alignments and
/// DpCounters deltas.
void expect_paths_agree(const std::string& q, const std::string& s,
                        const ScoringProfile& profile, long diagonal,
                        std::size_t band, const GapPenalties& gaps) {
  set_simd_level(SimdLevel::kScalar);
  reset_dp_counters();
  const ScoreOnlyResult so_scalar =
      banded_score_only(q, s, profile, diagonal, band, gaps);
  const LocalAlignment aln_scalar =
      banded_align(q, s, profile, diagonal, band, gaps);
  const DpCounters c_scalar = dp_counters();

  set_simd_level(SimdLevel::kAvx2);
  reset_dp_counters();
  const ScoreOnlyResult so_simd =
      banded_score_only(q, s, profile, diagonal, band, gaps);
  const LocalAlignment aln_simd =
      banded_align(q, s, profile, diagonal, band, gaps);
  const DpCounters c_simd = dp_counters();
  reset_simd_level();

  EXPECT_EQ(so_scalar.score, so_simd.score);
  EXPECT_EQ(so_scalar.q_end, so_simd.q_end);
  EXPECT_EQ(so_scalar.s_end, so_simd.s_end);
  expect_same_alignment(aln_scalar, aln_simd);
  EXPECT_EQ(c_scalar.cells, c_simd.cells);
  EXPECT_EQ(c_scalar.tracebacks, c_simd.tracebacks);
  EXPECT_EQ(c_scalar.score_only, c_simd.score_only);
}

bool simd_available() { return cpu_supports_avx2(); }

TEST(SimdDispatch, LevelNamesAndOverride) {
  EXPECT_STREQ(simd_level_name(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(simd_level_name(SimdLevel::kAvx2), "avx2");
  set_simd_level(SimdLevel::kScalar);
  EXPECT_EQ(active_simd_level(), SimdLevel::kScalar);
  EXPECT_STREQ(active_simd_isa(), "scalar");
  if (simd_available()) {
    set_simd_level(SimdLevel::kAvx2);
    EXPECT_EQ(active_simd_level(), SimdLevel::kAvx2);
    EXPECT_STREQ(active_simd_isa(), "avx2");
  } else {
    // Requesting AVX2 without CPU support clamps to scalar, not a fault.
    set_simd_level(SimdLevel::kAvx2);
    EXPECT_EQ(active_simd_level(), SimdLevel::kScalar);
  }
  reset_simd_level();
}

TEST(SimdKernel, ProteinLengthSweep) {
  if (!simd_available()) GTEST_SKIP() << "CPU lacks AVX2";
  common::Rng rng(20260809);
  const ScoringProfile& profile = ScoringProfile::protein_blosum62();
  // Lengths straddling the vector width, the band width and the
  // band-vs-matrix clamp; 0/1 exercise the empty-input early-outs.
  const std::size_t lengths[] = {0, 1, 2, 7, 8, 9, 15, 16, 17, 24, 25, 300};
  const std::size_t bands[] = {1, 3, 4, 8, 12, 48};
  for (const std::size_t n : lengths) {
    for (const std::size_t m : lengths) {
      const std::string q = random_protein(n, rng);
      const std::string s = random_protein(m, rng);
      for (const std::size_t band : bands) {
        const long span = static_cast<long>(n) + static_cast<long>(m);
        const long diagonal =
            span == 0 ? 0
                      : static_cast<long>(rng.below(
                            static_cast<std::uint64_t>(span))) -
                            span / 2;
        expect_paths_agree(q, s, profile, diagonal, band, GapPenalties{11, 1});
      }
    }
  }
}

TEST(SimdKernel, DnaWithAmbiguityAndCase) {
  if (!simd_available()) GTEST_SKIP() << "CPU lacks AVX2";
  common::Rng rng(4242);
  const ScoringProfile profile = ScoringProfile::dna(1, -2);
  for (int round = 0; round < 40; ++round) {
    const std::string q = random_dna(20 + rng.below(200), rng);
    const std::string s = random_dna(20 + rng.below(200), rng);
    const long diagonal = static_cast<long>(rng.below(61)) - 30;
    expect_paths_agree(q, s, profile, diagonal, 48, GapPenalties{6, 1});
  }
}

TEST(SimdKernel, ExtremeGapPenaltiesNearSentinel) {
  if (!simd_available()) GTEST_SKIP() << "CPU lacks AVX2";
  common::Rng rng(777);
  const ScoringProfile& profile = ScoringProfile::protein_blosum62();
  const std::string q = random_protein(120, rng);
  const std::string s = random_protein(130, rng);
  // Huge open/extend costs drive X/Y scores deep toward kNegInf; both
  // kernels must handle the sentinel arithmetic identically.
  const GapPenalties extreme[] = {{1 << 20, 3}, {5, 1 << 16}, {1 << 20, 1 << 16}};
  for (const GapPenalties& gaps : extreme) {
    expect_paths_agree(q, s, profile, /*diagonal=*/-5, /*band=*/24, gaps);
  }
}

TEST(SimdKernel, LongSequences) {
  if (!simd_available()) GTEST_SKIP() << "CPU lacks AVX2";
  common::Rng rng(99);
  const ScoringProfile& profile = ScoringProfile::protein_blosum62();
  const std::string q = random_protein(4096, rng);
  // Embed a mutated copy of a query slice so the band contains a real
  // alignment, not just noise.
  std::string s = random_protein(1000, rng);
  s += q.substr(1000, 2000);
  s += random_protein(1000, rng);
  for (std::size_t i = 0; i < s.size(); i += 97) s[i] = 'A';
  expect_paths_agree(q, s, profile, /*diagonal=*/0, /*band=*/32,
                     GapPenalties{11, 1});
  expect_paths_agree(q, s, profile, /*diagonal=*/-40, /*band=*/64,
                     GapPenalties{11, 1});
}

// --- The 16-bit kernels' limits ------------------------------------------

TEST(SimdKernel16, IdenticalDnaPastInt16MaxRerunsOnScalar) {
  if (!simd_available()) GTEST_SKIP() << "CPU lacks AVX2";
  common::Rng rng(1616);
  const ScoringProfile profile = ScoringProfile::dna(1, -2);
  // At match = 1 an identical pair scores its length. 32'700 stays below
  // the rerun threshold INT16_MAX - max_score(); the longer ones cross it
  // (33'500 would saturate an M cell) and must come back from the scalar
  // kernel with the exact score.
  for (const std::size_t n : {32'700u, 32'770u, 33'500u}) {
    const std::string q = random_dna(n, rng);
    expect_paths_agree(q, q, profile, /*diagonal=*/0, /*band=*/8,
                       GapPenalties{6, 1});
    set_simd_level(SimdLevel::kAvx2);
    EXPECT_EQ(banded_score_only(q, q, profile, 0, 8, GapPenalties{6, 1}).score,
              static_cast<int>(n));
    reset_simd_level();
  }
}

TEST(SimdKernel16, IdenticalProteinPastInt16MaxRerunsOnScalar) {
  if (!simd_available()) GTEST_SKIP() << "CPU lacks AVX2";
  common::Rng rng(3600);
  const ScoringProfile& profile = ScoringProfile::protein_blosum62();
  // Three in four residues are W (self-score 11), so 3'600 residues
  // self-align well past INT16_MAX.
  std::string q = random_protein(3'600, rng);
  for (std::size_t i = 0; i < q.size(); ++i) {
    if (rng.below(4) != 0) q[i] = 'W';
  }
  set_simd_level(SimdLevel::kScalar);
  ASSERT_GT(banded_score_only(q, q, profile, 0, 12, GapPenalties{11, 1}).score,
            32'767);
  reset_simd_level();
  expect_paths_agree(q, q, profile, /*diagonal=*/0, /*band=*/12,
                     GapPenalties{11, 1});
  expect_paths_agree(q, q, profile, /*diagonal=*/3, /*band=*/24,
                     GapPenalties{11, 1});
}

TEST(SimdKernel16, ProfilesOutsideInt8UseScalar) {
  if (!simd_available()) GTEST_SKIP() << "CPU lacks AVX2";
  common::Rng rng(200);
  const ScoringProfile wide_match = ScoringProfile::dna(200, -2);
  const ScoringProfile wide_mismatch = ScoringProfile::dna(1, -200);
  ASSERT_FALSE(wide_match.fits_int8());
  ASSERT_FALSE(wide_mismatch.fits_int8());
  ASSERT_TRUE(ScoringProfile::dna(1, -2).fits_int8());
  ASSERT_TRUE(ScoringProfile::protein_blosum62().fits_int8());
  for (int round = 0; round < 10; ++round) {
    const std::string q = random_dna(100 + rng.below(300), rng);
    std::string s = q.substr(rng.below(50));
    for (std::size_t i = 0; i < s.size(); i += 13) s[i] = 'A';
    const long diagonal = static_cast<long>(rng.below(21)) - 10;
    expect_paths_agree(q, s, wide_match, diagonal, 48, GapPenalties{6, 1});
    expect_paths_agree(q, s, wide_mismatch, diagonal, 48, GapPenalties{6, 1});
  }
}

TEST(SimdKernel16, GapPenaltiesEitherSideOfTheSentinelHeadroom) {
  if (!simd_available()) GTEST_SKIP() << "CPU lacks AVX2";
  common::Rng rng(8192);
  const ScoringProfile& profile = ScoringProfile::protein_blosum62();
  const std::string q = random_protein(300, rng);
  std::string s = random_protein(20, rng) + q.substr(0, 150) +
                  random_protein(7, rng) + q.substr(150);
  for (std::size_t i = 0; i < s.size(); i += 9) s[i] = 'G';
  // The 16-bit kernels take open + 16 * extend < kGapLimit16; each pair
  // sits on the two sides of that limit, once through open and once
  // through extend.
  constexpr int kLimit = static_cast<int>(detail::kGapLimit16);
  const GapPenalties cases[] = {
      {kLimit - 17, 1}, {kLimit - 16, 1},
      {0, (kLimit - 1) / 16}, {0, kLimit / 16},
      {11, 1}, {0, 0}};
  for (const GapPenalties& gaps : cases) {
    for (const long diagonal : {-20L, -7L, 0L}) {
      expect_paths_agree(q, s, profile, diagonal, 24, gaps);
    }
  }
}

// --- Batched score-only passes -------------------------------------------

/// Subjects of mixed lengths: empty, shorter than a vector (< 8), and
/// longer than the query; related to the query so bands hold real scores.
std::vector<std::string> batch_subjects(const std::string& query,
                                        std::size_t count, bool dna,
                                        common::Rng& rng) {
  const auto random_seq = [&](std::size_t n) {
    return dna ? random_dna(n, rng) : random_protein(n, rng);
  };
  std::vector<std::string> subjects;
  for (std::size_t k = 0; k < count; ++k) {
    switch (k % 5) {
      case 0: subjects.push_back(""); break;
      case 1: subjects.push_back(random_seq(1 + rng.below(7))); break;
      case 2: subjects.push_back(random_seq(query.size() + 40)); break;
      default: {
        std::string s = random_seq(rng.below(30)) +
                        query.substr(rng.below(query.size() / 2)) +
                        random_seq(rng.below(60));
        for (std::size_t i = rng.below(5); i < s.size(); i += 11) {
          s[i] = dna ? 'A' : 'L';
        }
        subjects.push_back(std::move(s));
      }
    }
  }
  return subjects;
}

/// The batch must equal per-pair banded_score_only on every candidate, and
/// move the DpCounters exactly as the per-pair calls do, at both levels.
void expect_batch_matches_pairs(const std::string& query,
                                const std::vector<std::string>& subjects,
                                const std::vector<long>& diagonals,
                                const ScoringProfile& profile, std::size_t band,
                                const GapPenalties& gaps) {
  const PreparedSeq pq(query, profile);
  std::vector<PreparedSeq> prepared(subjects.size());
  std::vector<ScoreOnlyCandidate> candidates;
  for (std::size_t k = 0; k < subjects.size(); ++k) {
    prepared[k].assign(subjects[k], profile);
    candidates.push_back({&prepared[k], diagonals[k]});
  }

  set_simd_level(SimdLevel::kScalar);
  reset_dp_counters();
  std::vector<ScoreOnlyResult> reference;
  for (const ScoreOnlyCandidate& c : candidates) {
    reference.push_back(
        banded_score_only(pq, *c.subject, profile, c.diagonal, band, gaps));
  }
  const DpCounters ref_counters = dp_counters();

  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    set_simd_level(level);
    reset_dp_counters();
    std::vector<ScoreOnlyResult> batch(candidates.size());
    banded_score_only_batch(pq, candidates, profile, band, gaps, batch);
    const DpCounters counters = dp_counters();
    for (std::size_t k = 0; k < candidates.size(); ++k) {
      EXPECT_EQ(batch[k].score, reference[k].score) << "candidate " << k;
      EXPECT_EQ(batch[k].q_end, reference[k].q_end) << "candidate " << k;
      EXPECT_EQ(batch[k].s_end, reference[k].s_end) << "candidate " << k;
    }
    EXPECT_EQ(counters.cells, ref_counters.cells);
    EXPECT_EQ(counters.score_only, ref_counters.score_only);
    EXPECT_EQ(counters.tracebacks, 0u);
  }
  reset_simd_level();
}

TEST(BatchScoreOnly, MatchesPerPairCallsAcrossSizesAndBands) {
  common::Rng rng(1640);
  const ScoringProfile& profile = ScoringProfile::protein_blosum62();
  for (const std::size_t n : {20u, 150u}) {
    const std::string query = random_protein(n, rng);
    for (const std::size_t count : {0u, 1u, 15u, 16u, 17u, 40u}) {
      const auto subjects = batch_subjects(query, count, /*dna=*/false, rng);
      for (const std::size_t band : {1u, 12u, 24u, 48u}) {
        std::vector<long> diagonals;
        for (std::size_t k = 0; k < count; ++k) {
          const long m = static_cast<long>(subjects[k].size());
          const long b = static_cast<long>(band);
          // Every third diagonal lies far enough off the matrix that the
          // lane's band is empty; the rest are anywhere near it.
          if (k % 3 == 2) {
            diagonals.push_back(rng.below(2) == 0
                                    ? -(m + b + 1 + static_cast<long>(rng.below(5)))
                                    : static_cast<long>(n) + b +
                                          static_cast<long>(rng.below(5)));
          } else {
            diagonals.push_back(static_cast<long>(rng.below(
                                    static_cast<std::uint64_t>(n + m + 1))) -
                                m);
          }
        }
        expect_batch_matches_pairs(query, subjects, diagonals, profile, band,
                                   GapPenalties{11, 1});
      }
    }
  }
}

TEST(BatchScoreOnly, DnaAtTheOverlapBand) {
  common::Rng rng(48);
  const ScoringProfile profile = ScoringProfile::dna(1, -2);
  const std::string query = random_dna(400, rng);
  const auto subjects = batch_subjects(query, 33, /*dna=*/true, rng);
  std::vector<long> diagonals;
  for (std::size_t k = 0; k < subjects.size(); ++k) {
    diagonals.push_back(static_cast<long>(rng.below(121)) - 60);
  }
  expect_batch_matches_pairs(query, subjects, diagonals, profile, 48,
                             GapPenalties{6, 1});
}

TEST(BatchScoreOnly, GapsAndProfilesOutsideInt16RunPerPair) {
  common::Rng rng(77);
  const std::string query = random_protein(120, rng);
  const auto subjects = batch_subjects(query, 20, /*dna=*/false, rng);
  std::vector<long> diagonals;
  for (std::size_t k = 0; k < subjects.size(); ++k) {
    diagonals.push_back(static_cast<long>(rng.below(41)) - 20);
  }
  expect_batch_matches_pairs(query, subjects, diagonals,
                             ScoringProfile::protein_blosum62(), 12,
                             GapPenalties{1 << 20, 3});
  const std::string dna_query = random_dna(200, rng);
  const auto dna_subjects = batch_subjects(dna_query, 20, /*dna=*/true, rng);
  expect_batch_matches_pairs(dna_query, dna_subjects, diagonals,
                             ScoringProfile::dna(200, -2), 24, GapPenalties{6, 1});
}

TEST(BatchScoreOnly, ScoresPastInt16MaxRerunOnScalar) {
  common::Rng rng(32767);
  const ScoringProfile profile = ScoringProfile::dna(1, -2);
  const std::string query = random_dna(33'000, rng);
  // Lane 0 self-aligns to 33'000 (past INT16_MAX); the other lanes score
  // normally beside it.
  std::vector<std::string> subjects = {query, query.substr(100, 500),
                                       random_dna(300, rng), query.substr(0, 32'700)};
  expect_batch_matches_pairs(query, subjects, {0, 100, 5, 0}, profile, 8,
                             GapPenalties{6, 1});
}

TEST(BatchScoreOnly, MismatchedResultSpanThrows) {
  const ScoringProfile& profile = ScoringProfile::protein_blosum62();
  const PreparedSeq q("MKVLAAGIVG", profile);
  const ScoreOnlyCandidate candidates[2] = {{&q, 0}, {&q, 1}};
  std::vector<ScoreOnlyResult> results(1);
  EXPECT_THROW(banded_score_only_batch(q, candidates, profile, 12, GapPenalties{},
                                       results),
               common::InvalidArgument);
}

// --- Batched tracebacks of unrelated pairs --------------------------------

struct TextPair {
  std::string query, subject;
};

/// Two overlapping windows of one random gene, the subject with
/// substitutions and a short deletion. `alphabet` adds N, lowercase and
/// characters outside the DNA profile (the catch-all code, which must
/// never match, not even itself).
TextPair related_dna_pair(std::size_t q_len, std::size_t s_len, common::Rng& rng,
                          bool alphabet) {
  static constexpr std::string_view kOdd = "NnacgtX*-";
  std::string gene;
  for (std::size_t i = 0; i < q_len + s_len + 64; ++i) {
    gene.push_back(alphabet && rng.below(12) == 0 ? kOdd[rng.below(kOdd.size())]
                                                  : "ACGT"[rng.below(4)]);
  }
  TextPair p{gene.substr(rng.below(32), q_len), gene.substr(rng.below(32), s_len)};
  for (std::size_t i = rng.below(19); i < p.subject.size(); i += 13 + rng.below(9)) {
    p.subject[i] = "ACGTX"[rng.below(5)];
  }
  if (p.subject.size() > 20) p.subject.erase(rng.below(p.subject.size() - 8), rng.below(4));
  return p;
}

/// banded_align_batch must equal per-pair banded_align on every pair, in
/// every LocalAlignment field, and move the DpCounters exactly as the
/// per-pair calls do, at both dispatch levels.
void expect_pair_batch_matches(const std::vector<TextPair>& texts,
                               const std::vector<long>& diagonals,
                               const ScoringProfile& profile, std::size_t band,
                               const GapPenalties& gaps) {
  std::vector<PreparedSeq> queries(texts.size()), subjects(texts.size());
  std::vector<AlignmentPair> pairs;
  for (std::size_t k = 0; k < texts.size(); ++k) {
    queries[k].assign(texts[k].query, profile);
    subjects[k].assign(texts[k].subject, profile);
    pairs.push_back({&queries[k], &subjects[k], diagonals[k]});
  }

  set_simd_level(SimdLevel::kScalar);
  reset_dp_counters();
  std::vector<LocalAlignment> reference;
  for (const AlignmentPair& p : pairs) {
    reference.push_back(banded_align(*p.query, *p.subject, profile, p.diagonal, band, gaps));
  }
  const DpCounters ref_counters = dp_counters();

  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    set_simd_level(level);
    reset_dp_counters();
    std::vector<LocalAlignment> batch(pairs.size());
    banded_align_batch(pairs, profile, band, gaps, batch);
    const DpCounters counters = dp_counters();
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      SCOPED_TRACE("pair " + std::to_string(k) + " of " + std::to_string(pairs.size()));
      expect_same_alignment(batch[k], reference[k]);
    }
    EXPECT_EQ(counters.cells, ref_counters.cells);
    EXPECT_EQ(counters.tracebacks, ref_counters.tracebacks);
    EXPECT_EQ(counters.score_only, 0u);
  }
  reset_simd_level();
}

TEST(PairBatch, MatchesPerPairAcrossLaneCountsLengthsAndDiagonals) {
  common::Rng rng(2016);
  const ScoringProfile profile = ScoringProfile::dna(1, -2);
  std::vector<std::size_t> counts;
  for (std::size_t c = 1; c <= 16; ++c) counts.push_back(c);
  counts.push_back(17);
  counts.push_back(53);
  for (const std::size_t count : counts) {
    for (const std::size_t band : {3u, 17u, 48u}) {
      std::vector<TextPair> texts;
      std::vector<long> diagonals;
      for (std::size_t k = 0; k < count; ++k) {
        const std::size_t q_len = 8 + rng.below(k % 4 == 0 ? 40 : 420);
        const std::size_t s_len = 8 + rng.below(k % 3 == 0 ? 60 : 420);
        texts.push_back(related_dna_pair(q_len, s_len, rng, /*alphabet=*/k % 2 == 1));
        // Mostly near the main diagonal; every fifth far enough off it that
        // the band only grazes a corner of the matrix.
        const long reach = static_cast<long>(band) + 12;
        diagonals.push_back(
            k % 5 == 4
                ? (rng.below(2) == 0 ? static_cast<long>(q_len) + reach / 2
                                     : -static_cast<long>(s_len) - reach / 2)
                : static_cast<long>(rng.below(121)) - 60);
      }
      SCOPED_TRACE("count " + std::to_string(count) + ", band " + std::to_string(band));
      expect_pair_batch_matches(texts, diagonals, profile, band, GapPenalties{6, 1});
    }
  }
}

TEST(PairBatch, OtherScoresAndGapModels) {
  common::Rng rng(7);
  // Mismatches that do not lower the score ({1, 0}, {3, 2}) run per pair.
  for (const auto& [match, mismatch] : {std::pair{1, -1}, std::pair{2, -3},
                                        std::pair{5, -4}, std::pair{1, 0},
                                        std::pair{3, 2}}) {
    for (const GapPenalties gaps : {GapPenalties{0, 0}, GapPenalties{0, 2},
                                    GapPenalties{5, 0}, GapPenalties{11, 1}}) {
      std::vector<TextPair> texts;
      std::vector<long> diagonals;
      for (std::size_t k = 0; k < 24; ++k) {
        texts.push_back(related_dna_pair(100 + rng.below(200), 100 + rng.below(200), rng,
                                         /*alphabet=*/true));
        diagonals.push_back(static_cast<long>(rng.below(61)) - 30);
      }
      expect_pair_batch_matches(texts, diagonals, ScoringProfile::dna(match, mismatch),
                                24, gaps);
    }
  }
}

TEST(PairBatch, ClampedBandsNarrowRowsAndEmptyInputsRunPerPair) {
  common::Rng rng(8);
  const ScoringProfile profile = ScoringProfile::dna(1, -2);
  std::vector<TextPair> texts;
  std::vector<long> diagonals;
  for (std::size_t k = 0; k < 40; ++k) {
    switch (k % 4) {
      case 0:  // band 48 > n + m: the band is clamped
        texts.push_back(related_dna_pair(5 + rng.below(15), 5 + rng.below(15), rng, false));
        break;
      case 1:  // m < 8: a band row under 8 cells
        texts.push_back(related_dna_pair(60 + rng.below(100), 1 + rng.below(7), rng, false));
        break;
      case 2:  // an empty side
        texts.push_back(k % 8 == 2 ? TextPair{"", "ACGTACGTAC"} : TextPair{"ACGTACGTAC", ""});
        break;
      default:  // ordinary batch lanes beside them
        texts.push_back(related_dna_pair(200 + rng.below(100), 200 + rng.below(100), rng,
                                         false));
    }
    diagonals.push_back(static_cast<long>(rng.below(21)) - 10);
  }
  expect_pair_batch_matches(texts, diagonals, profile, 48, GapPenalties{6, 1});
}

TEST(PairBatch, ScoresNearInt16MaxRerunPerPair) {
  // With match 127 an identical pair of length L scores 127 * L: L = 257
  // stays below the rerun limit INT16_MAX - 127, L = 258 reaches it, and
  // L = 300 saturates, where the per-pair path reruns on scalar.
  common::Rng rng(32640);
  const ScoringProfile profile = ScoringProfile::dna(127, -1);
  std::vector<TextPair> texts;
  std::vector<long> diagonals;
  for (const std::size_t len : {257u, 258u, 300u, 120u, 257u, 300u, 90u, 255u, 258u}) {
    std::string s;
    for (std::size_t i = 0; i < len; ++i) s.push_back("ACGT"[rng.below(4)]);
    texts.push_back({s, s});
    diagonals.push_back(0);
  }
  ASSERT_FALSE(detail::needs_scalar_rerun(profile, 127 * 257));
  ASSERT_TRUE(detail::needs_scalar_rerun(profile, 127 * 258));
  expect_pair_batch_matches(texts, diagonals, profile, 8, GapPenalties{6, 1});
}

TEST(PairBatch, NonIdentityProfilesRunPerPair) {
  common::Rng rng(62);
  std::vector<TextPair> texts;
  std::vector<long> diagonals;
  for (std::size_t k = 0; k < 20; ++k) {
    const std::string q = random_protein(60 + rng.below(120), rng);
    texts.push_back({q, q.substr(rng.below(20))});
    diagonals.push_back(static_cast<long>(rng.below(21)) - 10);
  }
  expect_pair_batch_matches(texts, diagonals, ScoringProfile::protein_blosum62(), 12,
                            GapPenalties{11, 1});
}

TEST(PairBatch, MismatchedResultSpanThrows) {
  const ScoringProfile profile = ScoringProfile::dna(1, -2);
  const PreparedSeq q("ACGTACGTACGT", profile);
  const AlignmentPair pairs[2] = {{&q, &q, 0}, {&q, &q, 1}};
  std::vector<LocalAlignment> results(3);
  EXPECT_THROW(banded_align_batch(pairs, profile, 8, GapPenalties{6, 1}, results),
               common::InvalidArgument);
}

TEST(SimdKernel, PreparedSeqMatchesStringEntryPoints) {
  common::Rng rng(5150);
  const ScoringProfile& profile = ScoringProfile::protein_blosum62();
  for (int round = 0; round < 20; ++round) {
    const std::string q = random_protein(10 + rng.below(120), rng);
    const std::string s = random_protein(10 + rng.below(120), rng);
    const long diagonal = static_cast<long>(rng.below(21)) - 10;
    const PreparedSeq pq(q, profile);
    const PreparedSeq ps(s, profile);
    const GapPenalties gaps{11, 1};
    const ScoreOnlyResult so_str =
        banded_score_only(q, s, profile, diagonal, 12, gaps);
    const ScoreOnlyResult so_prep =
        banded_score_only(pq, ps, profile, diagonal, 12, gaps);
    EXPECT_EQ(so_str.score, so_prep.score);
    EXPECT_EQ(so_str.q_end, so_prep.q_end);
    EXPECT_EQ(so_str.s_end, so_prep.s_end);
    expect_same_alignment(banded_align(q, s, profile, diagonal, 12, gaps),
                          banded_align(pq, ps, profile, diagonal, 12, gaps));
  }
}

TEST(SimdKernel, CountersMergeAcrossThreads) {
  // Per-thread counter nodes must merge into one process-wide tally.
  common::Rng rng(31337);
  const ScoringProfile& profile = ScoringProfile::protein_blosum62();
  const std::string q = random_protein(200, rng);
  const std::string s = random_protein(210, rng);

  reset_dp_counters();
  banded_score_only(q, s, profile, 0, 16, GapPenalties{11, 1});
  const DpCounters one = dp_counters();
  ASSERT_GT(one.cells, 0u);
  ASSERT_EQ(one.score_only, 1u);

  reset_dp_counters();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 3; ++i) {
        banded_score_only(q, s, profile, 0, 16, GapPenalties{11, 1});
      }
    });
  }
  for (auto& t : threads) t.join();
  const DpCounters merged = dp_counters();
  EXPECT_EQ(merged.cells, 12 * one.cells);
  EXPECT_EQ(merged.score_only, 12u);
  EXPECT_EQ(merged.tracebacks, 0u);
}

}  // namespace
}  // namespace pga::align
