#include "assembly/overlap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "align/simd.hpp"
#include "align/sw.hpp"
#include "bio/alphabet.hpp"
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
    EXPECT_EQ(lhs[i].alignment.gap_opens, rhs[i].alignment.gap_opens);
    EXPECT_EQ(lhs[i].alignment.gap_residues, rhs[i].alignment.gap_residues);
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

// --- The k-mer front against a string-keyed reference ---------------------

/// The overlap phase as a plain reference: string-keyed k-mer buckets
/// (with both_strands, the lexicographic min of the k-mer and its reverse
/// complement), one vote per co-occurring occurrence pair, the most-voted
/// diagonal (smallest on ties), then one banded_align per candidate at the
/// overlap band (48) and the same classification and output order.
std::vector<Overlap> reference_overlaps(const std::vector<bio::SeqRecord>& seqs,
                                        const OverlapParams& params,
                                        std::size_t& candidate_pairs) {
  const std::size_t k = params.kmer;
  std::vector<std::string> rc;
  for (const auto& s : seqs) {
    rc.push_back(params.both_strands ? bio::reverse_complement(s.seq) : "");
  }
  struct Occ {
    std::size_t seq, pos;
    bool on_reverse;
  };
  std::map<std::string, std::vector<Occ>> buckets;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    const std::string& s = seqs[i].seq;
    for (std::size_t pos = 0; pos + k <= s.size(); ++pos) {
      std::string kmer = s.substr(pos, k);
      bool on_reverse = false;
      if (params.both_strands) {
        std::string rk = rc[i].substr(s.size() - k - pos, k);
        if (rk < kmer) {
          kmer = rk;
          on_reverse = true;
        }
      }
      buckets[kmer].push_back({i, pos, on_reverse});
    }
  }
  std::map<std::tuple<std::size_t, std::size_t, bool>, std::map<long, std::size_t>> votes;
  for (const auto& [kmer, occs] : buckets) {
    if (occs.size() < 2 || occs.size() > params.max_kmer_occurrences) continue;
    for (std::size_t x = 0; x < occs.size(); ++x) {
      for (std::size_t y = x + 1; y < occs.size(); ++y) {
        Occ oa = occs[x];
        Occ ob = occs[y];
        if (oa.seq == ob.seq) continue;
        if (oa.seq > ob.seq) std::swap(oa, ob);
        const bool flipped = oa.on_reverse != ob.on_reverse;
        const long pb = flipped ? static_cast<long>(seqs[ob.seq].seq.size() - k - ob.pos)
                                : static_cast<long>(ob.pos);
        ++votes[{oa.seq, ob.seq, flipped}][static_cast<long>(oa.pos) - pb];
      }
    }
  }

  const align::ScoringProfile profile = align::ScoringProfile::dna(params.match, params.mismatch);
  std::vector<Overlap> out;
  candidate_pairs = 0;
  for (const auto& [pair, by_diagonal] : votes) {
    const auto& [a, b, flipped] = pair;
    std::size_t shared = 0;
    long best = 0;
    std::size_t best_votes = 0;
    for (const auto& [diagonal, count] : by_diagonal) {
      shared += count;
      if (count > best_votes) {
        best = diagonal;
        best_votes = count;
      }
    }
    if (shared < params.min_shared_kmers) continue;
    ++candidate_pairs;
    const std::string& sb = flipped ? rc[b] : seqs[b].seq;
    const align::LocalAlignment aln =
        align::banded_align(seqs[a].seq, sb, profile, best, 48, params.gaps);
    OverlapKind kind;
    long shift = 0;
    if (classify_overlap(aln, seqs[a].seq.size(), sb.size(), params, kind, shift)) {
      out.push_back(Overlap{a, b, kind, shift, flipped, aln});
    }
  }
  std::sort(out.begin(), out.end(), [](const Overlap& x, const Overlap& y) {
    if (x.alignment.score != y.alignment.score) return x.alignment.score > y.alignment.score;
    if (x.a != y.a) return x.a < y.a;
    if (x.b != y.b) return x.b < y.b;
    return x.flipped < y.flipped;
  });
  return out;
}

/// find_overlaps, serial and on a pool, must equal the reference, down to
/// the DP cells: a band's cell count moves with its diagonal, so equal
/// counters also pin every candidate's voted diagonal.
void expect_matches_reference(const std::vector<bio::SeqRecord>& seqs,
                              OverlapParams params) {
  params.score_prune = false;  // the reference tracebacks every candidate
  std::size_t reference_pairs = 0;
  align::reset_dp_counters();
  const auto expected = reference_overlaps(seqs, params, reference_pairs);
  const align::DpCounters reference_work = align::dp_counters();
  OverlapStats stats;
  align::reset_dp_counters();
  expect_same_overlaps(find_overlaps(seqs, params, nullptr, &stats), expected);
  const align::DpCounters work = align::dp_counters();
  EXPECT_EQ(stats.candidate_pairs, reference_pairs);
  EXPECT_EQ(work.cells, reference_work.cells);
  EXPECT_EQ(work.tracebacks, reference_work.tracebacks);
  common::ThreadPool pool(3);
  expect_same_overlaps(find_overlaps(seqs, params, &pool), expected);
}

/// Fragments of a few genes, `odd` of them carrying characters outside
/// upper-case ACGT: N, lower-case bases and, when `other` is set,
/// characters the DNA alphabet does not know. Every fourth fragment is a
/// lower-case copy of another, and with `reverse` every third is
/// reverse-complemented.
std::vector<bio::SeqRecord> mixed_fragments(std::uint64_t seed, bool other, bool reverse) {
  common::Rng rng(seed);
  const std::string odd = other ? "NnacgtXR-" : "Nnacgt";
  std::vector<std::string> genes;
  for (int g = 0; g < 3; ++g) genes.push_back(random_dna(700 + rng.below(300), rng));
  std::vector<bio::SeqRecord> seqs;
  for (int f = 0; f < 24; ++f) {
    const std::string& gene = genes[rng.below(genes.size())];
    const std::size_t len = 120 + rng.below(300);
    std::string s = gene.substr(rng.below(gene.size() - len + 1), len);
    if (f % 2 == 1) {
      for (std::size_t i = rng.below(40); i < s.size(); i += 25 + rng.below(60)) {
        s[i] = odd[rng.below(odd.size())];
      }
    }
    if (f % 4 == 3) {
      s = seqs.back().seq;
      std::transform(s.begin(), s.end(), s.begin(),
                     [](char c) { return static_cast<char>(std::tolower(c)); });
    }
    if (reverse && f % 3 == 0) s = bio::reverse_complement(s);
    seqs.push_back({"f" + std::to_string(f), "", s});
  }
  return seqs;
}

TEST(KmerFront, NonAcgtKmersKeepStringEquality) {
  for (const std::uint64_t seed : {3u, 5u, 8u}) {
    SCOPED_TRACE(seed);
    OverlapParams params;
    params.min_overlap = 30;
    params.min_identity = 80.0;
    expect_matches_reference(mixed_fragments(seed, /*other=*/true, false), params);
  }
}

TEST(KmerFront, BothStrandsCanonicalKmers) {
  for (const std::uint64_t seed : {13u, 21u}) {
    SCOPED_TRACE(seed);
    OverlapParams params;
    params.both_strands = true;
    params.min_overlap = 30;
    params.min_identity = 80.0;
    expect_matches_reference(mixed_fragments(seed, /*other=*/false, true), params);
  }
}

TEST(KmerFront, ShortestAndLongestKmers) {
  for (const std::size_t k : {8u, 9u, 31u, 32u}) {
    for (const bool both : {false, true}) {
      SCOPED_TRACE("k " + std::to_string(k) + (both ? " both strands" : ""));
      OverlapParams params;
      params.kmer = k;
      params.min_overlap = std::max<std::size_t>(k, 40);
      params.both_strands = both;
      params.min_shared_kmers = 1;
      expect_matches_reference(mixed_fragments(34 + k, /*other=*/false, both), params);
    }
  }
}

TEST(KmerFront, MaxKmerOccurrencesBoundary) {
  // A 20-base repeat appears in every fragment, once or twice: its k-mers
  // form buckets of known sizes on both sides of each cap.
  common::Rng rng(99);
  const std::string repeat = random_dna(20, rng);
  std::vector<bio::SeqRecord> seqs;
  for (int f = 0; f < 6; ++f) {
    std::string s = random_dna(60, rng) + repeat + random_dna(80, rng);
    if (f % 2 == 0) s += repeat + random_dna(30, rng);
    seqs.push_back({"r" + std::to_string(f), "", s});
  }
  for (const std::size_t cap : {2u, 3u, 8u, 9u, 10u, 512u}) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    OverlapParams params;
    params.max_kmer_occurrences = cap;
    params.min_shared_kmers = 1;
    params.min_overlap = 16;
    params.min_identity = 0.0;
    params.max_end_slop = 200;
    expect_matches_reference(seqs, params);
  }
}

TEST(KmerFront, MinSharedKmersAndParallelGather) {
  const auto seqs = gene_fragment_set(61);
  for (const std::size_t shared : {1u, 2u, 40u, 300u}) {
    SCOPED_TRACE("min_shared_kmers " + std::to_string(shared));
    OverlapParams params;
    params.min_shared_kmers = shared;
    expect_matches_reference(seqs, params);
  }
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

TEST(MinAcceptableScore, RejectsNonFiniteOrOutOfRangeIdentity) {
  // The bound is public, so it checks its parameters like find_overlaps:
  // a NaN cutoff would otherwise reach a floor-to-int conversion.
  for (const double identity :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(), -0.5, 100.5}) {
    OverlapParams params;
    params.min_identity = identity;
    EXPECT_THROW(min_acceptable_score(params, 200), common::InvalidArgument)
        << identity;
  }
  OverlapParams bad_kmer;
  bad_kmer.kmer = 4;
  EXPECT_THROW(min_acceptable_score(bad_kmer, 200), common::InvalidArgument);
  for (const double identity : {0.0, 100.0}) {
    OverlapParams params;
    params.min_identity = identity;
    EXPECT_NO_THROW(min_acceptable_score(params, 200)) << identity;
  }
}

}  // namespace
}  // namespace pga::assembly
