// Pairwise suffix–prefix overlap detection between DNA sequences.
//
// This is the inner kernel of the CAP3-like assembler: k-mer anchored
// candidate pairing followed by local alignment, accepting only dovetail
// (suffix-to-prefix) or containment overlaps that meet CAP3-style length
// ("-o") and identity ("-p") cutoffs.
#pragma once

#include <cstddef>
#include <vector>

#include "align/sw.hpp"
#include "bio/sequence.hpp"

namespace pga::common {
class ThreadPool;
}

namespace pga::assembly {

/// Overlap acceptance thresholds. Defaults mirror CAP3's -o 40 -p 90.
struct OverlapParams {
  std::size_t min_overlap = 40;   ///< minimum aligned length (bases)
  double min_identity = 90.0;     ///< minimum percent identity
  std::size_t kmer = 16;          ///< anchor k-mer length for candidate pairing
  std::size_t max_end_slop = 20;  ///< unaligned overhang tolerated at joined ends
  int match = 1;                  ///< DNA match score
  int mismatch = -2;              ///< DNA mismatch score
  align::GapPenalties gaps{6, 1};
  /// Also detect overlaps where one sequence is reverse-complemented —
  /// like the real CAP3, which assembles reads of unknown strand. Off by
  /// default because transcript fragments are strand-consistent.
  bool both_strands = false;
  /// Repeat suppression: k-mers occurring more than this many times across
  /// the input are ignored for candidate pairing (they are almost always
  /// repeat elements, the very sequences that cause artificial fusions).
  /// Real overlap assemblers apply the same cutoff.
  std::size_t max_kmer_occurrences = 512;
  /// Candidate pairs must share at least this many k-mers before the
  /// (expensive) banded alignment runs.
  std::size_t min_shared_kmers = 2;
  /// Score-only candidate pruning: run the cheap no-traceback DP pass
  /// first and skip the traceback when the optimal score is provably too
  /// low to classify (see min_acceptable_score). Automatically inactive
  /// when the bound cannot exceed the k-mer anchor's guaranteed score
  /// (true for the CAP3 defaults); this switch exists so tests can compare
  /// pruned and unpruned runs under stricter cutoffs.
  bool score_prune = true;
};

/// How the aligned region relates the two sequences.
enum class OverlapKind {
  kSuffixPrefix,  ///< suffix of `a` overlaps prefix of `b`
  kPrefixSuffix,  ///< prefix of `a` overlaps suffix of `b`
  kAContainsB,    ///< `b` aligns inside `a`
  kBContainsA,    ///< `a` aligns inside `b`
};

/// One accepted overlap between sequences `a` and `b` (indices into the
/// input vector). `shift` places b relative to a in a common layout:
/// with `flipped == false`, b_offset = a_offset + shift; with
/// `flipped == true` the *reverse complement* of b sits at that offset
/// (i.e. base i of b maps to layout coordinate
/// a_offset + shift + len(b) - 1 - i).
struct Overlap {
  std::size_t a = 0;
  std::size_t b = 0;
  OverlapKind kind = OverlapKind::kSuffixPrefix;
  long shift = 0;
  bool flipped = false;  ///< b participates reverse-complemented
  align::LocalAlignment alignment;
};

/// Classifies a local alignment of `a` vs `b` as an overlap. Returns true
/// (filling kind/shift) when the alignment reaches within `max_end_slop`
/// of the required sequence ends and meets the length/identity cutoffs.
bool classify_overlap(const align::LocalAlignment& aln, std::size_t a_len,
                      std::size_t b_len, const OverlapParams& params,
                      OverlapKind& kind, long& shift);

/// Work counters from one find_overlaps run (pruning effectiveness and
/// alignment volume; the benchmark/CI envelopes assert on these because
/// they are machine-independent, unlike wall-clock time).
struct OverlapStats {
  std::size_t candidate_pairs = 0;  ///< pairs meeting min_shared_kmers
  std::size_t pruned = 0;           ///< skipped via the score-only bound
  std::size_t tracebacks = 0;       ///< full alignments actually run
  std::size_t accepted = 0;         ///< classified overlaps kept
};

/// Lower bound on the alignment score of any overlap that could pass the
/// length/identity cutoffs in `params`, for alignment lengths in
/// [params.min_overlap, max_alignment_length]. A candidate whose optimal
/// (score-only) alignment scores below this bound cannot classify as an
/// overlap, so the traceback can be skipped. Conservative: derived from
/// the per-column worst case w = max(-mismatch, gap_open + gap_extend),
/// evaluated at both interval endpoints.
int min_acceptable_score(const OverlapParams& params,
                         std::size_t max_alignment_length);

/// Finds all accepted pairwise overlaps among `seqs`.
/// Candidates are pairs sharing at least one k-mer; each candidate runs a
/// score-only banded pass and only survivors of min_acceptable_score pay
/// for a traceback. With a pool, candidates are aligned in parallel in
/// deterministic chunks — the result is bit-identical to the serial run
/// for any worker count. `stats`, when non-null, receives work counters.
/// Throws common::InvalidArgument for a kmer outside [8, 32], min_overlap
/// below kmer, match <= 0 or mismatch >= 0, a min_identity that is not
/// finite or lies outside [0, 100], or a negative gap penalty.
std::vector<Overlap> find_overlaps(const std::vector<bio::SeqRecord>& seqs,
                                   const OverlapParams& params = {},
                                   common::ThreadPool* pool = nullptr,
                                   OverlapStats* stats = nullptr);

}  // namespace pga::assembly
