#include "assembly/overlap.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>

#include "bio/alphabet.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace pga::assembly {

bool classify_overlap(const align::LocalAlignment& aln, std::size_t a_len,
                      std::size_t b_len, const OverlapParams& params,
                      OverlapKind& kind, long& shift) {
  if (aln.alignment_length() < params.min_overlap) return false;
  if (aln.percent_identity() < params.min_identity) return false;

  const std::size_t a_left = aln.q_begin;
  const std::size_t a_right = a_len - aln.q_end;
  const std::size_t b_left = aln.s_begin;
  const std::size_t b_right = b_len - aln.s_end;
  const std::size_t slop = params.max_end_slop;

  // Under the (substitution-only) ungapped layout approximation, placing b
  // at a_offset + shift lines the aligned regions up.
  shift = static_cast<long>(aln.q_begin) - static_cast<long>(aln.s_begin);

  // Containments take priority: they are stricter conditions.
  if (b_left <= slop && b_right <= slop) {
    kind = OverlapKind::kAContainsB;
    return true;
  }
  if (a_left <= slop && a_right <= slop) {
    kind = OverlapKind::kBContainsA;
    return true;
  }
  if (a_right <= slop && b_left <= slop) {
    kind = OverlapKind::kSuffixPrefix;
    return true;
  }
  if (a_left <= slop && b_right <= slop) {
    kind = OverlapKind::kPrefixSuffix;
    return true;
  }
  return false;
}

namespace {

/// Packs an (a < b) index pair plus the relative-orientation bit.
std::uint64_t pair_key(std::size_t a, std::size_t b, bool flipped) {
  return (static_cast<std::uint64_t>(flipped) << 63) |
         (static_cast<std::uint64_t>(a) << 32) | static_cast<std::uint64_t>(b);
}

struct PairEvidence {
  std::size_t shared_kmers = 0;
  std::unordered_map<long, std::size_t> diagonal_votes;

  [[nodiscard]] long best_diagonal() const {
    long best = 0;
    std::size_t best_votes = 0;
    for (const auto& [diag, votes] : diagonal_votes) {
      if (votes > best_votes || (votes == best_votes && diag < best)) {
        best = diag;
        best_votes = votes;
      }
    }
    return best;
  }
};

constexpr std::size_t kAlignmentBand = 48;

/// One alignment job: a candidate pair with its voted diagonal.
struct Candidate {
  std::uint32_t a;
  std::uint32_t b;
  bool flipped;
  long diagonal;
};

}  // namespace

int min_acceptable_score(const OverlapParams& params,
                         std::size_t max_alignment_length) {
  // An acceptable alignment of length L has matches >= p*L/100 (identity
  // cutoff) and at most L - p*L/100 non-match columns, each costing at
  // most w = max(-mismatch, open + extend) (a gap run of g residues costs
  // open + g*extend <= g*(open+extend)). Since match > 0 the score is
  // increasing in the match count, so
  //   g(L) = match * p*L/100 - w * L*(1 - p/100)
  // lower-bounds it; g is linear in L, so its minimum over the length
  // interval sits at an endpoint. Requires match > 0 and mismatch < 0
  // (enforced by the DNA kernels' parameter check).
  const double p = std::min(params.min_identity, 100.0) / 100.0;
  const double w = std::max<double>(-params.mismatch,
                                    static_cast<double>(params.gaps.open) +
                                        static_cast<double>(params.gaps.extend));
  const auto g = [&](std::size_t len) {
    const double l = static_cast<double>(len);
    return params.match * (p * l) - w * (l * (1.0 - p));
  };
  const std::size_t lo = params.min_overlap;
  const std::size_t hi = std::max(max_alignment_length, lo);
  return static_cast<int>(std::floor(std::min(g(lo), g(hi))));
}

std::vector<Overlap> find_overlaps(const std::vector<bio::SeqRecord>& seqs,
                                   const OverlapParams& params,
                                   common::ThreadPool* pool, OverlapStats* stats) {
  if (params.kmer < 8 || params.kmer > 32) {
    throw common::InvalidArgument("OverlapParams.kmer must be in [8,32]");
  }
  if (params.min_overlap < params.kmer) {
    throw common::InvalidArgument("min_overlap must be >= kmer");
  }
  if (seqs.size() >= (1ULL << 31)) {
    throw common::InvalidArgument("too many sequences");
  }
  if (params.match <= 0 || params.mismatch >= 0) {
    throw common::InvalidArgument("OverlapParams: need match > 0 > mismatch");
  }
  // A NaN cutoff would make every `pid < min_identity` test false and
  // switch the identity filter off (and min_acceptable_score would floor
  // a NaN into an int); a cutoff above 100 would silently accept nothing.
  if (!std::isfinite(params.min_identity) || params.min_identity < 0.0 ||
      params.min_identity > 100.0) {
    throw common::InvalidArgument(
        "OverlapParams.min_identity must be finite and in [0, 100]");
  }
  if (params.gaps.open < 0 || params.gaps.extend < 0) {
    throw common::InvalidArgument("OverlapParams: gap penalties must be >= 0");
  }

  // Reverse complements, computed once when strand-agnostic matching is on.
  std::vector<std::string> rc;
  if (params.both_strands) {
    rc.reserve(seqs.size());
    for (const auto& s : seqs) rc.push_back(bio::reverse_complement(s.seq));
  }

  // 1. k-mer occurrence lists. With both_strands, keys are canonical
  // (lexicographic min of the k-mer and its reverse complement) and each
  // occurrence carries the strand on which the canonical form was seen.
  struct Occurrence {
    std::uint32_t seq;
    std::uint32_t pos;      ///< position on the *forward* sequence
    bool on_reverse;        ///< canonical form came from the reverse strand
  };
  std::unordered_map<std::string, std::vector<Occurrence>> buckets;
  for (std::uint32_t i = 0; i < seqs.size(); ++i) {
    const std::string& s = seqs[i].seq;
    if (s.size() < params.kmer) continue;
    for (std::size_t pos = 0; pos + params.kmer <= s.size(); ++pos) {
      std::string kmer(std::string_view(s).substr(pos, params.kmer));
      bool on_reverse = false;
      if (params.both_strands) {
        // RC of s[pos..pos+k) equals rc[L-k-pos .. L-pos).
        std::string rk(std::string_view(rc[i]).substr(s.size() - params.kmer - pos,
                                                      params.kmer));
        if (rk < kmer) {
          kmer = std::move(rk);
          on_reverse = true;
        }
      }
      buckets[std::move(kmer)].push_back(
          {i, static_cast<std::uint32_t>(pos), on_reverse});
    }
  }

  // 2. Candidate pairs with diagonal votes, split by relative orientation.
  std::unordered_map<std::uint64_t, PairEvidence> pairs;
  for (const auto& [kmer, occurrences] : buckets) {
    if (occurrences.size() < 2 || occurrences.size() > params.max_kmer_occurrences) {
      continue;
    }
    for (std::size_t x = 0; x < occurrences.size(); ++x) {
      for (std::size_t y = x + 1; y < occurrences.size(); ++y) {
        Occurrence oa = occurrences[x];
        Occurrence ob = occurrences[y];
        if (oa.seq == ob.seq) continue;
        if (oa.seq > ob.seq) std::swap(oa, ob);
        const bool flipped = oa.on_reverse != ob.on_reverse;
        auto& ev = pairs[pair_key(oa.seq, ob.seq, flipped)];
        ++ev.shared_kmers;
        // Diagonal in the frame "a vs (rc-)b": with flipped, b's k-mer at
        // forward position p sits at rc position len_b - k - p.
        const long pb =
            flipped ? static_cast<long>(seqs[ob.seq].seq.size()) -
                          static_cast<long>(params.kmer) - static_cast<long>(ob.pos)
                    : static_cast<long>(ob.pos);
        ++ev.diagonal_votes[static_cast<long>(oa.pos) - pb];
      }
    }
  }

  // 3. Banded alignment + classification over an (a, b, flipped)-sorted
  // candidate list. The sort pins the work order independently of the
  // unordered_map above, so serial and parallel runs see identical jobs in
  // identical chunk positions.
  std::vector<Candidate> candidates;
  candidates.reserve(pairs.size());
  for (const auto& [key, ev] : pairs) {
    if (ev.shared_kmers < params.min_shared_kmers) continue;
    candidates.push_back({static_cast<std::uint32_t>((key >> 32) & 0x7fffffffULL),
                          static_cast<std::uint32_t>(key & 0xffffffffULL),
                          (key >> 63) != 0, ev.best_diagonal()});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& x, const Candidate& y) {
              if (x.a != y.a) return x.a < y.a;
              if (x.b != y.b) return x.b < y.b;
              return x.flipped < y.flipped;
            });

  // Every fragment (and reverse complement) is encoded once under the
  // run's DNA profile; all candidate alignments reuse the encodings
  // instead of re-encoding both sequences per pair.
  const align::ScoringProfile dna_prof =
      align::ScoringProfile::dna(params.match, params.mismatch);
  std::vector<align::PreparedSeq> fwd_prep(seqs.size());
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    fwd_prep[i].assign(seqs[i].seq, dna_prof);
  }
  std::vector<align::PreparedSeq> rc_prep(rc.size());
  for (std::size_t i = 0; i < rc.size(); ++i) rc_prep[i].assign(rc[i], dna_prof);

  // Score-only pruning pays off only when the bound exceeds what k-mer
  // sharing already guarantees: every candidate pair shares a full-length
  // anchor k-mer, so its optimal local score is at least kmer*match and a
  // bound at or below that can never fire — skip the extra pass entirely.
  const bool prune =
      params.score_prune &&
      min_acceptable_score(params, params.min_overlap) >
          static_cast<int>(params.kmer) * params.match;
  const auto align_range = [&](std::size_t begin, std::size_t end,
                               std::vector<Overlap>& out, OverlapStats& st) {
    for (std::size_t i = begin; i < end; ++i) {
      const Candidate& c = candidates[i];
      const align::PreparedSeq& pa = fwd_prep[c.a];
      const align::PreparedSeq& pb = c.flipped ? rc_prep[c.b] : fwd_prep[c.b];
      if (prune) {
        const align::ScoreOnlyResult so = align::banded_score_only(
            pa, pb, dna_prof, c.diagonal, kAlignmentBand, params.gaps);
        if (so.score < min_acceptable_score(params, pa.size() + pb.size())) {
          ++st.pruned;
          continue;
        }
      }
      ++st.tracebacks;
      const align::LocalAlignment aln = align::banded_align(
          pa, pb, dna_prof, c.diagonal, kAlignmentBand, params.gaps);
      OverlapKind kind;
      long shift = 0;
      if (classify_overlap(aln, pa.size(), pb.size(), params, kind, shift)) {
        ++st.accepted;
        out.push_back(Overlap{c.a, c.b, kind, shift, c.flipped, aln});
      }
    }
  };

  std::vector<Overlap> overlaps;
  OverlapStats run_stats;
  run_stats.candidate_pairs = candidates.size();
  if (pool == nullptr || candidates.size() < 2) {
    align_range(0, candidates.size(), overlaps, run_stats);
  } else {
    // Work-stealing over fixed-size chunks. The chunk decomposition (and
    // each chunk's output slot) depends only on the candidate count, so
    // chunk-order concatenation yields the serial run's pre-sort overlap
    // order for any worker count — only which thread ran a chunk varies.
    constexpr std::size_t kChunk = 16;
    const std::size_t chunk_count = (candidates.size() + kChunk - 1) / kChunk;
    std::vector<std::vector<Overlap>> chunk_out(chunk_count);
    std::vector<OverlapStats> chunk_stats(chunk_count);
    pool->parallel_for(candidates.size(), kChunk,
                       [&](std::size_t begin, std::size_t end, std::size_t c) {
                         align_range(begin, end, chunk_out[c], chunk_stats[c]);
                       });
    for (std::size_t c = 0; c < chunk_count; ++c) {
      overlaps.insert(overlaps.end(),
                      std::make_move_iterator(chunk_out[c].begin()),
                      std::make_move_iterator(chunk_out[c].end()));
      run_stats.pruned += chunk_stats[c].pruned;
      run_stats.tracebacks += chunk_stats[c].tracebacks;
      run_stats.accepted += chunk_stats[c].accepted;
    }
  }
  if (stats != nullptr) *stats = run_stats;

  // Deterministic order: best alignments first (greedy merge order), ties
  // broken by indices then orientation — a total order, so the sort result
  // does not depend on the pre-sort arrangement.
  std::sort(overlaps.begin(), overlaps.end(), [](const Overlap& x, const Overlap& y) {
    if (x.alignment.score != y.alignment.score) {
      return x.alignment.score > y.alignment.score;
    }
    if (x.a != y.a) return x.a < y.a;
    if (x.b != y.b) return x.b < y.b;
    return x.flipped < y.flipped;
  });
  return overlaps;
}

}  // namespace pga::assembly
