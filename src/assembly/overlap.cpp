#include "assembly/overlap.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

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

/// Runs fn(begin, end, chunk) over [0, n) in fixed chunks: on the pool's
/// deterministic parallel_for when there is a pool, else inline.
template <typename F>
void for_chunks(common::ThreadPool* pool, std::size_t n, std::size_t chunk, F&& fn) {
  if (pool != nullptr && n > chunk) {
    pool->parallel_for(n, chunk, fn);
    return;
  }
  for (std::size_t begin = 0, c = 0; begin < n; begin += chunk, ++c) {
    fn(begin, std::min(n, begin + chunk), c);
  }
}

/// 2-bit code of each upper-case base; A < C < G < T is also the
/// characters' order, so packed codes compare like the k-mer strings. -1
/// for every other character.
constexpr std::array<std::int8_t, 256> kBaseCode = [] {
  std::array<std::int8_t, 256> code{};
  code.fill(-1);
  code['A'] = 0;
  code['C'] = 1;
  code['G'] = 2;
  code['T'] = 3;
  return code;
}();

/// splitmix64's finalizer: a bijection on u64 (equal keys mean equal
/// codes) whose top bits spread the codes evenly over the partitions.
std::uint64_t mix(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One k-mer occurrence. `seq_rev` packs the sequence index and whether
/// the canonical form came from the reverse strand (bit 0).
struct Occurrence {
  std::uint64_t key;
  std::uint32_t g;        ///< global k-mer index: first[seq] + position
  std::uint32_t seq_rev;
};

/// Every k-mer occurrence of the input, grouped into buckets of equal
/// (canonical) k-mers in CSR form. Within a bucket the occurrences run in
/// (sequence, position) order. For k-mer g, occurrence slot[g] is its own
/// and the ones after it up to end[g] share its bucket; end[g] ==
/// slot[g] + 1 for a k-mer whose bucket is ignored (a singleton, or above
/// max_kmer_occurrences).
struct KmerBuckets {
  std::vector<std::size_t> first;  ///< first k-mer index of each sequence
  std::vector<Occurrence> occs;
  std::vector<std::uint32_t> slot;
  std::vector<std::uint32_t> end;
};

/// Builds the buckets. K-mers of pure upper-case ACGT are 2-bit packed
/// (the canonical pick of both_strands is an integer min) and bucketed by
/// a parallel radix partition plus per-partition sorts; k-mers holding
/// any other character keep exact string equality on a serial side path.
KmerBuckets bucket_kmers(const std::vector<bio::SeqRecord>& seqs,
                         const std::vector<std::string>& rc, const OverlapParams& params,
                         common::ThreadPool* pool) {
  const std::size_t k = params.kmer;
  const std::size_t n = seqs.size();
  KmerBuckets kb;
  kb.first.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t len = seqs[i].seq.size();
    kb.first[i + 1] = kb.first[i] + (len >= k ? len - k + 1 : 0);
  }
  const std::size_t total = kb.first[n];
  if (total >= std::numeric_limits<std::uint32_t>::max()) {
    throw common::InvalidArgument("find_overlaps: too many k-mers");
  }

  // Calls fn(occurrence, side) for each k-mer of sequence i: its packed
  // code mixed for the partition (see mix), or key 0 and side = true for a
  // k-mer with a non-ACGT character.
  const std::uint64_t mask = k == 32 ? ~0ULL : (1ULL << (2 * k)) - 1;
  const unsigned top = static_cast<unsigned>(2 * (k - 1));
  const auto for_each_kmer = [&](std::size_t i, auto&& fn) {
    const std::string& s = seqs[i].seq;
    std::uint64_t fwd = 0, rev = 0;
    std::size_t run = 0;  // ACGT characters ending at pos
    for (std::size_t pos = 0; pos < s.size(); ++pos) {
      const int b = kBaseCode[static_cast<unsigned char>(s[pos])];
      if (b < 0) {
        run = 0;
      } else {
        fwd = ((fwd << 2) | static_cast<std::uint64_t>(b)) & mask;
        rev = (rev >> 2) | (static_cast<std::uint64_t>(3 - b) << top);
        ++run;
      }
      if (pos + 1 < k) continue;
      const auto g = static_cast<std::uint32_t>(kb.first[i] + pos + 1 - k);
      const auto seq = static_cast<std::uint32_t>(i << 1);
      if (run < k) {
        fn(Occurrence{0, g, seq}, true);
      } else if (params.both_strands && rev < fwd) {
        fn(Occurrence{mix(rev), g, seq | 1U}, false);
      } else {
        fn(Occurrence{mix(fwd), g, seq}, false);
      }
    }
  };

  // Radix partition on the top bits of the mixed code, the side k-mers
  // last: each chunk of sequences counts its k-mers per partition, then
  // writes them at its own offsets, so every partition holds its k-mers in
  // g order for any worker count.
  constexpr std::size_t kPartitionBits = 8;
  constexpr std::size_t kPartitions = std::size_t{1} << kPartitionBits;
  constexpr std::size_t kCodeChunk = 32;
  const auto partition_of = [](const Occurrence& o, bool side) {
    return side ? kPartitions : static_cast<std::size_t>(o.key >> (64 - kPartitionBits));
  };
  const std::size_t chunks = (n + kCodeChunk - 1) / kCodeChunk;
  std::vector<std::size_t> offsets(chunks * (kPartitions + 1), 0);
  for_chunks(pool, n, kCodeChunk, [&](std::size_t begin, std::size_t end, std::size_t c) {
    std::size_t* count = offsets.data() + c * (kPartitions + 1);
    for (std::size_t i = begin; i < end; ++i) {
      for_each_kmer(i, [&](const Occurrence& o, bool side) { ++count[partition_of(o, side)]; });
    }
  });
  std::vector<std::size_t> bounds(kPartitions + 2, 0);
  for (std::size_t p = 0, at = 0; p <= kPartitions; ++p) {
    bounds[p] = at;
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t count = offsets[c * (kPartitions + 1) + p];
      offsets[c * (kPartitions + 1) + p] = at;
      at += count;
    }
  }
  bounds[kPartitions + 1] = total;
  kb.occs.resize(total);
  for_chunks(pool, n, kCodeChunk, [&](std::size_t begin, std::size_t end, std::size_t c) {
    std::size_t* fill = offsets.data() + c * (kPartitions + 1);
    for (std::size_t i = begin; i < end; ++i) {
      for_each_kmer(i, [&](const Occurrence& o, bool side) {
        kb.occs[fill[partition_of(o, side)]++] = o;
      });
    }
  });

  kb.slot.resize(total);
  kb.end.resize(total);
  const auto close_bucket = [&](std::size_t lo, std::size_t hi) {
    const std::size_t size = hi - lo;
    const bool used = size >= 2 && size <= params.max_kmer_occurrences;
    for (std::size_t e = lo; e < hi; ++e) {
      kb.slot[kb.occs[e].g] = static_cast<std::uint32_t>(e);
      kb.end[kb.occs[e].g] = static_cast<std::uint32_t>(used ? hi : e + 1);
    }
  };
  // Each partition groups its equal keys, keeping g order inside a group:
  // a stable counting sort on the next kSubBits bits of the mixed code,
  // then a stable insertion sort by key inside each sub-range, which holds
  // one k-mer or a few (std::sort by (key, g) on a long one).
  constexpr std::size_t kSubBits = 10;
  const auto by_key = [](const Occurrence& x, const Occurrence& y) {
    return x.key != y.key ? x.key < y.key : x.g < y.g;
  };
  for_chunks(pool, kPartitions, 8, [&](std::size_t begin, std::size_t end, std::size_t) {
    thread_local std::vector<Occurrence> sorted;
    thread_local std::vector<std::size_t> sub;
    for (std::size_t p = begin; p < end; ++p) {
      const std::size_t lo = bounds[p];
      const std::size_t hi = bounds[p + 1];
      const auto digit = [](const Occurrence& o) {
        return static_cast<std::size_t>(o.key >> (64 - kPartitionBits - kSubBits)) &
               ((std::size_t{1} << kSubBits) - 1);
      };
      sub.assign((std::size_t{1} << kSubBits) + 1, 0);
      for (std::size_t e = lo; e < hi; ++e) ++sub[digit(kb.occs[e]) + 1];
      for (std::size_t d = 1; d < sub.size(); ++d) sub[d] += sub[d - 1];
      sorted.resize(hi - lo);
      for (std::size_t e = lo; e < hi; ++e) sorted[sub[digit(kb.occs[e])]++] = kb.occs[e];
      for (std::size_t a = 0, d = 0; a < sorted.size(); a = sub[d++]) {
        const std::size_t b = sub[d];
        if (b - a > 32) {
          std::sort(sorted.begin() + static_cast<std::ptrdiff_t>(a),
                    sorted.begin() + static_cast<std::ptrdiff_t>(b), by_key);
          continue;
        }
        for (std::size_t x = a + 1; x < b; ++x) {
          const Occurrence o = sorted[x];
          std::size_t y = x;
          for (; y > a && sorted[y - 1].key > o.key; --y) sorted[y] = sorted[y - 1];
          sorted[y] = o;
        }
      }
      std::copy(sorted.begin(), sorted.end(), kb.occs.begin() + static_cast<std::ptrdiff_t>(lo));
      for (std::size_t a = lo; a < hi;) {
        std::size_t b = a + 1;
        while (b < hi && kb.occs[b].key == kb.occs[a].key) ++b;
        close_bucket(a, b);
        a = b;
      }
    }
  });

  // Side path: the k-mer string itself (or, with both_strands, the
  // lexicographic min of it and its reverse complement) is the key.
  const std::size_t side_lo = bounds[kPartitions];
  if (side_lo < total) {
    const auto strand_text = [&](const Occurrence& o, bool reverse) {
      const std::size_t i = o.seq_rev >> 1;
      const std::size_t pos = o.g - kb.first[i];
      // RC of s[pos..pos+k) equals rc[L-k-pos .. L-pos).
      return reverse ? std::string_view(rc[i]).substr(seqs[i].seq.size() - k - pos, k)
                     : std::string_view(seqs[i].seq).substr(pos, k);
    };
    const auto text = [&](const Occurrence& o) {
      return strand_text(o, (o.seq_rev & 1U) != 0);
    };
    if (params.both_strands) {
      for (std::size_t e = side_lo; e < total; ++e) {
        Occurrence& o = kb.occs[e];
        if (strand_text(o, true) < strand_text(o, false)) o.seq_rev |= 1U;
      }
    }
    const auto side_begin = kb.occs.begin() + static_cast<std::ptrdiff_t>(side_lo);
    std::sort(side_begin, kb.occs.end(), [&](const Occurrence& x, const Occurrence& y) {
      const int c = text(x).compare(text(y));
      return c != 0 ? c < 0 : x.g < y.g;
    });
    for (std::size_t a = side_lo; a < total;) {
      std::size_t b = a + 1;
      while (b < total && text(kb.occs[b]) == text(kb.occs[a])) ++b;
      close_bucket(a, b);
      a = b;
    }
  }
  return kb;
}

/// One co-occurrence vote of a pair gather: the partner's group
/// (b * 2 + flipped) and the diagonal it votes for.
struct Vote {
  std::uint32_t group;
  long diagonal;
};

/// Per-thread vote tallies of the pair gather. `counts` is indexed by
/// group and all zero between sequences (`dirty` records an interrupted
/// gather, whose tallies the next one clears).
struct VoteScratch {
  std::vector<Vote> votes;
  std::vector<std::uint32_t> counts;
  std::vector<std::uint32_t> touched;
  std::vector<long> diagonals;
  std::vector<std::pair<long, std::size_t>> runs;
  bool dirty = false;
};

constexpr std::size_t kAlignmentBand = 48;

/// One alignment job: a candidate pair with its voted diagonal.
struct Candidate {
  std::uint32_t a;
  std::uint32_t b;
  bool flipped;
  long diagonal;
};

/// Candidate pairs, gathered per smaller index a: every occurrence of one
/// of a's k-mers pairs with each later occurrence of its bucket from a
/// sequence b > a, so each co-occurrence counts once. The votes of a pair
/// (b, flipped) are its shared k-mers; its diagonal is the one with the
/// most votes, ties going to the smallest. Chunks of a write their own
/// slots, so the candidates come out in (a, b, flipped) order for any
/// worker count.
std::vector<Candidate> gather_candidates(const std::vector<bio::SeqRecord>& seqs,
                                         const KmerBuckets& kb,
                                         const OverlapParams& params,
                                         common::ThreadPool* pool) {
  const std::size_t k = params.kmer;
  constexpr std::size_t kGatherChunk = 4;
  std::vector<std::vector<Candidate>> gathered((seqs.size() + kGatherChunk - 1) /
                                               kGatherChunk);
  for_chunks(pool, seqs.size(), kGatherChunk,
             [&](std::size_t begin, std::size_t end, std::size_t chunk) {
    thread_local VoteScratch vs;
    if (vs.dirty) std::fill(vs.counts.begin(), vs.counts.end(), 0U);
    vs.dirty = true;
    if (vs.counts.size() < 2 * seqs.size()) vs.counts.resize(2 * seqs.size(), 0U);
    for (std::size_t a = begin; a < end; ++a) {
      vs.votes.clear();
      for (std::size_t g = kb.first[a]; g < kb.first[a + 1]; ++g) {
        const Occurrence& x = kb.occs[kb.slot[g]];
        const long pos_a = static_cast<long>(g - kb.first[a]);
        for (std::size_t e = kb.slot[g] + 1; e < kb.end[g]; ++e) {
          const Occurrence& y = kb.occs[e];
          const std::uint32_t b = y.seq_rev >> 1;
          if (b == a) continue;  // later occurrences of a itself
          const bool flipped = ((x.seq_rev ^ y.seq_rev) & 1U) != 0;
          // Diagonal in the frame "a vs (rc-)b": with flipped, b's k-mer at
          // forward position p sits at rc position len_b - k - p.
          const long pos_b = static_cast<long>(y.g - kb.first[b]);
          const long pb = flipped ? static_cast<long>(seqs[b].seq.size() - k) - pos_b
                                  : pos_b;
          vs.votes.push_back({(b << 1) | (flipped ? 1U : 0U), pos_a - pb});
        }
      }

      // Tally by group, then lay the kept groups' diagonals out group by
      // group (counts[] turns into each kept group's fill offset).
      vs.touched.clear();
      for (const Vote& v : vs.votes) {
        if (vs.counts[v.group]++ == 0) vs.touched.push_back(v.group);
      }
      std::sort(vs.touched.begin(), vs.touched.end());
      constexpr std::uint32_t kDropped = std::numeric_limits<std::uint32_t>::max();
      std::size_t kept = 0;
      for (const std::uint32_t group : vs.touched) {
        const std::uint32_t shared = vs.counts[group];
        vs.counts[group] = shared >= params.min_shared_kmers
                               ? static_cast<std::uint32_t>(kept)
                               : kDropped;
        if (vs.counts[group] != kDropped) kept += shared;
      }
      vs.diagonals.resize(kept);
      for (const Vote& v : vs.votes) {
        if (vs.counts[v.group] != kDropped) vs.diagonals[vs.counts[v.group]++] = v.diagonal;
      }
      std::size_t lo = 0;
      for (const std::uint32_t group : vs.touched) {
        const std::uint32_t hi = vs.counts[group];
        vs.counts[group] = 0;
        if (hi == kDropped) continue;
        // Votes of one group arrive in runs along a's positions: count the
        // runs, then merge equal diagonals in diagonal order.
        vs.runs.clear();
        for (std::size_t v = lo; v < hi; ++v) {
          if (vs.runs.empty() || vs.runs.back().first != vs.diagonals[v]) {
            vs.runs.push_back({vs.diagonals[v], 0});
          }
          ++vs.runs.back().second;
        }
        std::sort(vs.runs.begin(), vs.runs.end());
        long best = 0;
        std::size_t best_votes = 0;
        for (std::size_t r = 0; r < vs.runs.size();) {
          std::size_t votes = 0;
          std::size_t q = r;
          for (; q < vs.runs.size() && vs.runs[q].first == vs.runs[r].first; ++q) {
            votes += vs.runs[q].second;
          }
          if (votes > best_votes) {
            best = vs.runs[r].first;
            best_votes = votes;
          }
          r = q;
        }
        gathered[chunk].push_back({static_cast<std::uint32_t>(a), group >> 1,
                                   (group & 1U) != 0, best});
        lo = hi;
      }
    }
    vs.dirty = false;
  });
  std::vector<Candidate> candidates;
  for (const auto& chunk : gathered) {
    candidates.insert(candidates.end(), chunk.begin(), chunk.end());
  }
  return candidates;
}

/// Rejects parameters the overlap kernels cannot honour.
void check_params(const OverlapParams& params) {
  if (params.kmer < 8 || params.kmer > 32) {
    throw common::InvalidArgument("OverlapParams.kmer must be in [8,32]");
  }
  if (params.min_overlap < params.kmer) {
    throw common::InvalidArgument("min_overlap must be >= kmer");
  }
  if (params.match <= 0 || params.mismatch >= 0) {
    throw common::InvalidArgument("OverlapParams: need match > 0 > mismatch");
  }
  // A NaN cutoff would make every `pid < min_identity` test false and
  // switch the identity filter off (and score_floor would floor a NaN into
  // an int); a cutoff above 100 would silently accept nothing.
  if (!std::isfinite(params.min_identity) || params.min_identity < 0.0 ||
      params.min_identity > 100.0) {
    throw common::InvalidArgument(
        "OverlapParams.min_identity must be finite and in [0, 100]");
  }
  if (params.gaps.open < 0 || params.gaps.extend < 0) {
    throw common::InvalidArgument("OverlapParams: gap penalties must be >= 0");
  }
}

/// min_acceptable_score without the parameter check, for callers that
/// have already run check_params.
int score_floor(const OverlapParams& params, std::size_t max_alignment_length) {
  // An acceptable alignment of length L has matches >= p*L/100 (identity
  // cutoff) and at most L - p*L/100 non-match columns, each costing at
  // most w = max(-mismatch, open + extend) (a gap run of g residues costs
  // open + g*extend <= g*(open+extend)). Since match > 0 the score is
  // increasing in the match count, so
  //   g(L) = match * p*L/100 - w * L*(1 - p/100)
  // lower-bounds it; g is linear in L, so its minimum over the length
  // interval sits at an endpoint. Requires match > 0, mismatch < 0 and
  // p in [0, 100] (enforced by check_params).
  const double p = params.min_identity / 100.0;
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

}  // namespace

int min_acceptable_score(const OverlapParams& params,
                         std::size_t max_alignment_length) {
  check_params(params);
  return score_floor(params, max_alignment_length);
}

std::vector<Overlap> find_overlaps(const std::vector<bio::SeqRecord>& seqs,
                                   const OverlapParams& params,
                                   common::ThreadPool* pool, OverlapStats* stats) {
  check_params(params);
  if (seqs.size() >= (1ULL << 31)) {
    throw common::InvalidArgument("too many sequences");
  }

  // Reverse complements, computed once when strand-agnostic matching is on.
  std::vector<std::string> rc;
  if (params.both_strands) {
    rc.reserve(seqs.size());
    for (const auto& s : seqs) rc.push_back(bio::reverse_complement(s.seq));
  }

  // 1-2. Candidate pairs from shared k-mers (bucket_kmers,
  // gather_candidates); the buckets are released before the alignments.
  // With both_strands, k-mers are canonical (the lexicographic min of the
  // k-mer and its reverse complement) and each occurrence carries the
  // strand on which the canonical form was seen.
  const std::vector<Candidate> candidates =
      gather_candidates(seqs, bucket_kmers(seqs, rc, params, pool), params, pool);

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
      score_floor(params, params.min_overlap) >
          static_cast<int>(params.kmer) * params.match;
  const auto pair_of = [&](const Candidate& c) {
    return align::AlignmentPair{&fwd_prep[c.a], c.flipped ? &rc_prep[c.b] : &fwd_prep[c.b],
                                c.diagonal};
  };

  // The alignment work runs in band-row order: banded_align_batch packs
  // pairs of close row counts into one vector, so each chunk holds pairs
  // of similar height. Results do not depend on the order: the final sort
  // below is total.
  std::vector<std::uint64_t> work(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const align::AlignmentPair p = pair_of(candidates[i]);
    work[i] = (static_cast<std::uint64_t>(align::band_rows(
                   p.query->size(), p.subject->size(), p.diagonal, kAlignmentBand))
               << 32) |
              i;
  }
  std::sort(work.begin(), work.end());

  struct Scratch {
    std::vector<align::AlignmentPair> pairs;
    std::vector<std::uint32_t> index;
    std::vector<align::LocalAlignment> alignments;
  };
  const auto align_range = [&](std::size_t begin, std::size_t end,
                               std::vector<Overlap>& out, OverlapStats& st) {
    thread_local Scratch scratch;
    scratch.pairs.clear();
    scratch.index.clear();
    for (std::size_t w = begin; w < end; ++w) {
      const auto i = static_cast<std::uint32_t>(work[w] & 0xffffffffULL);
      const align::AlignmentPair p = pair_of(candidates[i]);
      if (prune) {
        const align::ScoreOnlyResult so = align::banded_score_only(
            *p.query, *p.subject, dna_prof, p.diagonal, kAlignmentBand, params.gaps);
        if (so.score < score_floor(params, p.query->size() + p.subject->size())) {
          ++st.pruned;
          continue;
        }
      }
      scratch.pairs.push_back(p);
      scratch.index.push_back(i);
    }
    st.tracebacks += scratch.pairs.size();
    scratch.alignments.resize(scratch.pairs.size());
    align::banded_align_batch(scratch.pairs, dna_prof, kAlignmentBand, params.gaps,
                              scratch.alignments);
    for (std::size_t k = 0; k < scratch.pairs.size(); ++k) {
      const Candidate& c = candidates[scratch.index[k]];
      const align::LocalAlignment& aln = scratch.alignments[k];
      OverlapKind kind;
      long shift = 0;
      if (classify_overlap(aln, scratch.pairs[k].query->size(),
                           scratch.pairs[k].subject->size(), params, kind, shift)) {
        ++st.accepted;
        out.push_back(Overlap{c.a, c.b, kind, shift, c.flipped, aln});
      }
    }
  };

  // Work-stealing over fixed-size chunks of four 16-lane batches. The
  // chunk decomposition (and each chunk's output slot) depends only on the
  // candidate count, so chunk-order concatenation is the same for any
  // worker count — only which thread ran a chunk varies.
  constexpr std::size_t kChunk = 64;
  const std::size_t chunk_count = (candidates.size() + kChunk - 1) / kChunk;
  std::vector<std::vector<Overlap>> chunk_out(chunk_count);
  std::vector<OverlapStats> chunk_stats(chunk_count);
  for_chunks(pool, candidates.size(), kChunk,
             [&](std::size_t begin, std::size_t end, std::size_t c) {
               align_range(begin, end, chunk_out[c], chunk_stats[c]);
             });
  std::vector<Overlap> overlaps;
  OverlapStats run_stats;
  run_stats.candidate_pairs = candidates.size();
  for (std::size_t c = 0; c < chunk_count; ++c) {
    overlaps.insert(overlaps.end(), std::make_move_iterator(chunk_out[c].begin()),
                    std::make_move_iterator(chunk_out[c].end()));
    run_stats.pruned += chunk_stats[c].pruned;
    run_stats.tracebacks += chunk_stats[c].tracebacks;
    run_stats.accepted += chunk_stats[c].accepted;
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
