#include "assembly/overlap.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "align/simd.hpp"
#include "align/sw.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace pga::assembly {
namespace {

std::string random_dna(std::size_t n, common::Rng& rng) {
  static constexpr std::string_view kBases = "ACGT";
  std::string s;
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) s.push_back(kBases[rng.below(4)]);
  return s;
}

TEST(ClassifyOverlap, SuffixPrefix) {
  // a = [x][shared], b = [shared][y]; alignment covers `shared`.
  align::LocalAlignment aln;
  aln.q_begin = 60;
  aln.q_end = 110;  // a is 110 long: suffix aligned
  aln.s_begin = 0;
  aln.s_end = 50;  // b prefix aligned
  aln.matches = 50;
  OverlapParams params;
  OverlapKind kind;
  long shift = 0;
  ASSERT_TRUE(classify_overlap(aln, 110, 120, params, kind, shift));
  EXPECT_EQ(kind, OverlapKind::kSuffixPrefix);
  EXPECT_EQ(shift, 60);
}

TEST(ClassifyOverlap, PrefixSuffix) {
  align::LocalAlignment aln;
  aln.q_begin = 0;
  aln.q_end = 50;
  aln.s_begin = 70;
  aln.s_end = 120;
  aln.matches = 50;
  OverlapParams params;
  OverlapKind kind;
  long shift = 0;
  ASSERT_TRUE(classify_overlap(aln, 130, 120, params, kind, shift));
  EXPECT_EQ(kind, OverlapKind::kPrefixSuffix);
  EXPECT_EQ(shift, -70);
}

TEST(ClassifyOverlap, Containment) {
  align::LocalAlignment aln;
  aln.q_begin = 30;
  aln.q_end = 90;
  aln.s_begin = 0;
  aln.s_end = 60;  // all of b (length 60) inside a
  aln.matches = 60;
  OverlapParams params;
  OverlapKind kind;
  long shift = 0;
  ASSERT_TRUE(classify_overlap(aln, 200, 60, params, kind, shift));
  EXPECT_EQ(kind, OverlapKind::kAContainsB);
  EXPECT_EQ(shift, 30);
}

TEST(ClassifyOverlap, RejectsShortAlignment) {
  align::LocalAlignment aln;
  aln.q_begin = 80;
  aln.q_end = 110;
  aln.s_begin = 0;
  aln.s_end = 30;
  aln.matches = 30;  // < min_overlap 40
  OverlapParams params;
  OverlapKind kind;
  long shift = 0;
  EXPECT_FALSE(classify_overlap(aln, 110, 100, params, kind, shift));
}

TEST(ClassifyOverlap, RejectsLowIdentity) {
  align::LocalAlignment aln;
  aln.q_begin = 60;
  aln.q_end = 110;
  aln.s_begin = 0;
  aln.s_end = 50;
  aln.matches = 40;
  aln.mismatches = 10;  // 80% identity < 90
  OverlapParams params;
  OverlapKind kind;
  long shift = 0;
  EXPECT_FALSE(classify_overlap(aln, 110, 100, params, kind, shift));
}

TEST(ClassifyOverlap, RejectsInternalAlignment) {
  // Alignment in the middle of both sequences: no end reaches within slop.
  align::LocalAlignment aln;
  aln.q_begin = 50;
  aln.q_end = 100;
  aln.s_begin = 50;
  aln.s_end = 100;
  aln.matches = 50;
  OverlapParams params;
  OverlapKind kind;
  long shift = 0;
  EXPECT_FALSE(classify_overlap(aln, 200, 200, params, kind, shift));
}

TEST(FindOverlaps, DetectsSuffixPrefixPair) {
  common::Rng rng(41);
  const std::string shared = random_dna(80, rng);
  const std::string a = random_dna(100, rng) + shared;
  const std::string b = shared + random_dna(100, rng);
  const auto overlaps = find_overlaps({{"a", "", a}, {"b", "", b}});
  ASSERT_EQ(overlaps.size(), 1u);
  EXPECT_EQ(overlaps[0].a, 0u);
  EXPECT_EQ(overlaps[0].b, 1u);
  EXPECT_EQ(overlaps[0].kind, OverlapKind::kSuffixPrefix);
  EXPECT_EQ(overlaps[0].shift, 100);
  EXPECT_GE(overlaps[0].alignment.matches, 78u);
}

TEST(FindOverlaps, DetectsContainment) {
  common::Rng rng(43);
  const std::string big = random_dna(400, rng);
  const std::string inner = big.substr(100, 150);
  const auto overlaps = find_overlaps({{"big", "", big}, {"inner", "", inner}});
  ASSERT_EQ(overlaps.size(), 1u);
  EXPECT_EQ(overlaps[0].kind, OverlapKind::kAContainsB);
  EXPECT_EQ(overlaps[0].shift, 100);
}

TEST(FindOverlaps, NoOverlapBetweenUnrelated) {
  common::Rng rng(47);
  const auto overlaps = find_overlaps(
      {{"a", "", random_dna(300, rng)}, {"b", "", random_dna(300, rng)}});
  EXPECT_TRUE(overlaps.empty());
}

TEST(FindOverlaps, ToleratesSubstitutionErrors) {
  common::Rng rng(53);
  const std::string shared = random_dna(100, rng);
  std::string noisy = shared;
  for (std::size_t i = 10; i < noisy.size(); i += 25) {
    noisy[i] = noisy[i] == 'A' ? 'C' : 'A';  // 4 substitutions -> 96% id
  }
  const std::string a = random_dna(80, rng) + shared;
  const std::string b = noisy + random_dna(80, rng);
  const auto overlaps = find_overlaps({{"a", "", a}, {"b", "", b}});
  ASSERT_EQ(overlaps.size(), 1u);
  EXPECT_GE(overlaps[0].alignment.percent_identity(), 90.0);
}

TEST(FindOverlaps, RejectsBelowMinOverlap) {
  common::Rng rng(59);
  const std::string shared = random_dna(30, rng);  // < default min 40
  const std::string a = random_dna(150, rng) + shared;
  const std::string b = shared + random_dna(150, rng);
  OverlapParams params;
  params.kmer = 12;
  EXPECT_TRUE(find_overlaps({{"a", "", a}, {"b", "", b}}, params).empty());
}

TEST(FindOverlaps, MinOverlapParameterHonored) {
  common::Rng rng(59);
  const std::string shared = random_dna(30, rng);
  const std::string a = random_dna(150, rng) + shared;
  const std::string b = shared + random_dna(150, rng);
  OverlapParams params;
  params.kmer = 12;
  params.min_overlap = 25;
  EXPECT_EQ(find_overlaps({{"a", "", a}, {"b", "", b}}, params).size(), 1u);
}

TEST(FindOverlaps, SortedByScoreDescending) {
  common::Rng rng(61);
  const std::string s1 = random_dna(120, rng);
  const std::string s2 = random_dna(60, rng);
  // Pair (a,b) overlaps by 120 bases; pair (c,d) by 60.
  const std::string a = random_dna(50, rng) + s1;
  const std::string b = s1 + random_dna(50, rng);
  const std::string c = random_dna(50, rng) + s2;
  const std::string d = s2 + random_dna(50, rng);
  const auto overlaps = find_overlaps(
      {{"a", "", a}, {"b", "", b}, {"c", "", c}, {"d", "", d}});
  ASSERT_GE(overlaps.size(), 2u);
  for (std::size_t i = 1; i < overlaps.size(); ++i) {
    EXPECT_GE(overlaps[i - 1].alignment.score, overlaps[i].alignment.score);
  }
}

TEST(FindOverlaps, RepeatSuppressionBlocksHyperFrequentKmers) {
  // 12 unrelated sequences all carrying one identical 80-base element at
  // an end: with suppression off they pair up through the repeat; with a
  // low occurrence cap the repeat k-mers are ignored.
  common::Rng rng(67);
  const std::string repeat = random_dna(80, rng);
  std::vector<bio::SeqRecord> seqs;
  for (int i = 0; i < 12; ++i) {
    // Half carry the repeat terminally at the 3' end, half at the 5' end,
    // so (end, start) pairs form suffix-prefix dovetails through it.
    if (i % 2 == 0) {
      seqs.push_back({"s" + std::to_string(i), "", random_dna(150, rng) + repeat});
    } else {
      seqs.push_back({"s" + std::to_string(i), "", repeat + random_dna(150, rng)});
    }
  }
  OverlapParams permissive;
  permissive.max_kmer_occurrences = 512;
  EXPECT_FALSE(find_overlaps(seqs, permissive).empty());

  OverlapParams strict = permissive;
  strict.max_kmer_occurrences = 6;  // the repeat occurs 12x -> suppressed
  EXPECT_TRUE(find_overlaps(seqs, strict).empty());
}

TEST(FindOverlaps, MinSharedKmersGatesAlignment) {
  common::Rng rng(71);
  const std::string shared = random_dna(60, rng);
  const std::string a = random_dna(100, rng) + shared;
  const std::string b = shared + random_dna(100, rng);
  OverlapParams demanding;
  demanding.min_shared_kmers = 100;  // 60-base overlap has only 45 k-mers
  EXPECT_TRUE(find_overlaps({{"a", "", a}, {"b", "", b}}, demanding).empty());
  OverlapParams normal;
  EXPECT_EQ(find_overlaps({{"a", "", a}, {"b", "", b}}, normal).size(), 1u);
}

TEST(FindOverlaps, ParameterValidation) {
  EXPECT_THROW(find_overlaps({}, OverlapParams{.kmer = 4}), common::InvalidArgument);
  EXPECT_THROW(find_overlaps({}, OverlapParams{.min_overlap = 10, .kmer = 16}),
               common::InvalidArgument);
}

TEST(FindOverlaps, RejectsNonFiniteOrOutOfRangeIdentity) {
  // Checked even on empty input: the parameters are bad whatever the data.
  for (const double identity :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(), -0.5, 100.5, 150.0}) {
    OverlapParams params;
    params.min_identity = identity;
    EXPECT_THROW(find_overlaps({}, params), common::InvalidArgument) << identity;
  }
  // The closed interval's ends are valid cutoffs.
  for (const double identity : {0.0, 100.0}) {
    OverlapParams params;
    params.min_identity = identity;
    EXPECT_NO_THROW(find_overlaps({}, params)) << identity;
  }
}

TEST(FindOverlaps, NanIdentityDoesNotDisableTheCutoff) {
  // A NaN used to pass every `pid < min_identity` test, so the run kept
  // overlaps of any identity instead of failing.
  common::Rng rng(5);
  const std::string shared = random_dna(200, rng);
  const std::string a = random_dna(100, rng) + shared;
  const std::string b = shared + random_dna(100, rng);
  OverlapParams params;
  params.min_identity = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(find_overlaps({{"a", "", a}, {"b", "", b}}, params),
               common::InvalidArgument);
}

TEST(FindOverlaps, RejectsNegativeGapPenalties) {
  for (const align::GapPenalties gaps :
       {align::GapPenalties{-1, 1}, align::GapPenalties{6, -1}}) {
    OverlapParams params;
    params.gaps = gaps;
    EXPECT_THROW(find_overlaps({}, params), common::InvalidArgument);
  }
  OverlapParams free_gaps;
  free_gaps.gaps = {0, 0};
  EXPECT_NO_THROW(find_overlaps({}, free_gaps));
}

TEST(FindOverlaps, EmptyAndSingletonInputs) {
  EXPECT_TRUE(find_overlaps({}).empty());
  EXPECT_TRUE(find_overlaps({{"only", "", "ACGTACGTACGTACGTACGT"}}).empty());
}

// ------------------------------------------------------------------------
// Parallel overlap phase + score-only pruning.

std::vector<bio::SeqRecord> gene_fragment_set(std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<bio::SeqRecord> seqs;
  for (int g = 0; g < 3; ++g) {
    const std::string gene = random_dna(1000 + rng.below(400), rng);
    for (int f = 0; f < 10; ++f) {
      const std::size_t len = 300 + rng.below(400);
      const std::size_t start = rng.below(gene.size() - len + 1);
      seqs.push_back({"g" + std::to_string(g) + "f" + std::to_string(f), "",
                      gene.substr(start, len)});
    }
  }
  return seqs;
}

void expect_same_overlaps(const std::vector<Overlap>& lhs,
                          const std::vector<Overlap>& rhs) {
  ASSERT_EQ(lhs.size(), rhs.size());
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_EQ(lhs[i].a, rhs[i].a);
    EXPECT_EQ(lhs[i].b, rhs[i].b);
    EXPECT_EQ(lhs[i].kind, rhs[i].kind);
    EXPECT_EQ(lhs[i].shift, rhs[i].shift);
    EXPECT_EQ(lhs[i].flipped, rhs[i].flipped);
    EXPECT_EQ(lhs[i].alignment.score, rhs[i].alignment.score);
    EXPECT_EQ(lhs[i].alignment.q_begin, rhs[i].alignment.q_begin);
    EXPECT_EQ(lhs[i].alignment.q_end, rhs[i].alignment.q_end);
    EXPECT_EQ(lhs[i].alignment.s_begin, rhs[i].alignment.s_begin);
    EXPECT_EQ(lhs[i].alignment.s_end, rhs[i].alignment.s_end);
    EXPECT_EQ(lhs[i].alignment.matches, rhs[i].alignment.matches);
    EXPECT_EQ(lhs[i].alignment.mismatches, rhs[i].alignment.mismatches);
  }
}

TEST(FindOverlapsParallel, BitIdenticalAcrossWorkerCounts) {
  const auto seqs = gene_fragment_set(31);
  const auto serial = find_overlaps(seqs);
  EXPECT_FALSE(serial.empty());
  for (const std::size_t workers : {1u, 2u, 3u, 8u}) {
    common::ThreadPool pool(workers);
    const auto parallel = find_overlaps(seqs, {}, &pool);
    expect_same_overlaps(serial, parallel);
  }
}

TEST(FindOverlapsParallel, BitIdenticalAcrossSeedsAndWorkerCounts) {
  // Work-stealing must not leak scheduling into results: for every input
  // shape, any worker count reproduces the serial run bit-for-bit.
  for (const std::uint64_t seed : {43u, 47u, 53u}) {
    const auto seqs = gene_fragment_set(seed);
    const auto serial = find_overlaps(seqs);
    for (const std::size_t workers : {1u, 2u, 3u, 8u}) {
      common::ThreadPool pool(workers);
      expect_same_overlaps(serial, find_overlaps(seqs, {}, &pool));
    }
  }
}

TEST(FindOverlapsParallel, BitIdenticalAcrossSimdDispatch) {
  // The overlap phase must not observe which alignment kernel ran.
  const auto seqs = gene_fragment_set(59);
  align::set_simd_level(align::SimdLevel::kScalar);
  const auto scalar = find_overlaps(seqs);
  align::set_simd_level(align::SimdLevel::kAvx2);  // clamps if unsupported
  common::ThreadPool pool(3);
  const auto simd = find_overlaps(seqs, {}, &pool);
  align::reset_simd_level();
  EXPECT_FALSE(scalar.empty());
  expect_same_overlaps(scalar, simd);
}

TEST(FindOverlapsParallel, BitIdenticalWithBothStrands) {
  auto seqs = gene_fragment_set(37);
  common::Rng rng(38);
  for (std::size_t i = 0; i < seqs.size(); i += 2) {
    std::string rc;
    for (auto it = seqs[i].seq.rbegin(); it != seqs[i].seq.rend(); ++it) {
      switch (*it) {
        case 'A': rc.push_back('T'); break;
        case 'C': rc.push_back('G'); break;
        case 'G': rc.push_back('C'); break;
        default: rc.push_back('A'); break;
      }
    }
    seqs[i].seq = std::move(rc);
  }
  OverlapParams params;
  params.both_strands = true;
  const auto serial = find_overlaps(seqs, params);
  EXPECT_FALSE(serial.empty());
  common::ThreadPool pool(3);
  const auto parallel = find_overlaps(seqs, params, &pool);
  expect_same_overlaps(serial, parallel);
}

TEST(FindOverlapsParallel, StatsAccountForEveryCandidate) {
  const auto seqs = gene_fragment_set(41);
  OverlapStats serial_stats;
  const auto serial = find_overlaps(seqs, {}, nullptr, &serial_stats);
  EXPECT_EQ(serial_stats.pruned + serial_stats.tracebacks,
            serial_stats.candidate_pairs);
  EXPECT_EQ(serial_stats.accepted, serial.size());

  common::ThreadPool pool(4);
  OverlapStats parallel_stats;
  find_overlaps(seqs, {}, &pool, &parallel_stats);
  EXPECT_EQ(parallel_stats.candidate_pairs, serial_stats.candidate_pairs);
  EXPECT_EQ(parallel_stats.pruned, serial_stats.pruned);
  EXPECT_EQ(parallel_stats.tracebacks, serial_stats.tracebacks);
  EXPECT_EQ(parallel_stats.accepted, serial_stats.accepted);
}

TEST(FindOverlaps, ScorePruningPreservesResults) {
  // Cutoffs strict enough to push the score floor above the k-mer anchor
  // guarantee, so the score-only pass actually prunes — and must not
  // change what is found.
  const auto seqs = gene_fragment_set(43);
  OverlapParams strict;
  strict.min_overlap = 300;
  strict.min_identity = 95.0;
  OverlapStats pruned_stats;
  const auto pruned = find_overlaps(seqs, strict, nullptr, &pruned_stats);

  OverlapParams unpruned_params = strict;
  unpruned_params.score_prune = false;
  OverlapStats full_stats;
  const auto unpruned = find_overlaps(seqs, unpruned_params, nullptr, &full_stats);

  expect_same_overlaps(pruned, unpruned);
  EXPECT_GT(pruned_stats.pruned, 0u);
  EXPECT_LT(pruned_stats.tracebacks, full_stats.tracebacks);
  EXPECT_EQ(full_stats.pruned, 0u);
}

TEST(MinAcceptableScore, LowerBoundsEveryAcceptedOverlap) {
  const auto seqs = gene_fragment_set(47);
  for (const double identity : {90.0, 95.0}) {
    OverlapParams params;
    params.min_identity = identity;
    const auto overlaps = find_overlaps(seqs, params);
    for (const auto& ov : overlaps) {
      const std::size_t cap = seqs[ov.a].seq.size() + seqs[ov.b].seq.size();
      EXPECT_GE(ov.alignment.score, min_acceptable_score(params, cap));
    }
  }
}

}  // namespace
}  // namespace pga::assembly
