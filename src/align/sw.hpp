// Smith–Waterman local alignment (affine gaps), full and banded.
//
// The DP kernel is band-compressed: M/X/Y scores live in two rolling rows
// of at most min(|s|, 2·band+1) cells and the traceback is one packed byte
// per in-band cell, so a banded alignment costs O(band·n) time and memory
// instead of the six full (n+1)×(m+1) matrices the naive layout paid.
// Substitution scores come from a precomputed ScoringProfile over encoded
// residues (no per-cell callback). A score-only fast pass (no traceback
// storage at all) serves callers that prune candidates by score before
// paying for a full alignment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "align/scoring.hpp"

namespace pga::align {

/// Result of a local alignment. Coordinates are 0-based half-open over the
/// input strings; identity/mismatch/gap counts come from the traceback.
struct LocalAlignment {
  int score = 0;
  std::size_t q_begin = 0, q_end = 0;  ///< aligned query range [q_begin, q_end)
  std::size_t s_begin = 0, s_end = 0;  ///< aligned subject range
  std::size_t matches = 0;             ///< identical aligned pairs
  std::size_t mismatches = 0;          ///< non-identical aligned pairs
  std::size_t gap_opens = 0;           ///< number of gap runs
  std::size_t gap_residues = 0;        ///< total gapped positions
  /// Aligned columns = matches + mismatches + gap_residues.
  [[nodiscard]] std::size_t alignment_length() const {
    return matches + mismatches + gap_residues;
  }
  /// Percent identity over the alignment length; 0 for empty alignments.
  [[nodiscard]] double percent_identity() const {
    const std::size_t len = alignment_length();
    return len == 0 ? 0.0 : 100.0 * static_cast<double>(matches) / static_cast<double>(len);
  }
};

/// Full O(|q|*|s|) protein local alignment under BLOSUM62 + affine gaps.
LocalAlignment smith_waterman(std::string_view query, std::string_view subject,
                              const GapPenalties& gaps = {});

/// Banded local alignment restricted to |(i - j) - diagonal| <= band, used
/// for seed extension: `diagonal` = q_pos - s_pos of the seed. Cells
/// outside the band are unreachable. Falls back to the exact result when
/// the band covers the whole matrix.
LocalAlignment banded_smith_waterman(std::string_view query, std::string_view subject,
                                     long diagonal, std::size_t band,
                                     const GapPenalties& gaps = {});

/// DNA local alignment with simple match/mismatch scoring (+1/-2 by
/// default) and affine gaps — the overlap detector's inner kernel.
LocalAlignment smith_waterman_dna(std::string_view query, std::string_view subject,
                                  int match = 1, int mismatch = -2,
                                  const GapPenalties& gaps = {6, 1});

/// Banded DNA local alignment around `diagonal` (query_pos - subject_pos).
LocalAlignment banded_smith_waterman_dna(std::string_view query,
                                         std::string_view subject, long diagonal,
                                         std::size_t band, int match = 1,
                                         int mismatch = -2,
                                         const GapPenalties& gaps = {6, 1});

/// Result of a score-only pass: the optimal local score and where that
/// alignment ends. The score (and end cell) are identical to what the
/// traceback entry point reports for the same inputs — callers prune on
/// the score and run the full alignment only for survivors.
struct ScoreOnlyResult {
  int score = 0;
  std::size_t q_end = 0, s_end = 0;
};

/// Banded local alignment under an arbitrary profile, with traceback.
LocalAlignment banded_align(std::string_view query, std::string_view subject,
                            const ScoringProfile& profile, long diagonal,
                            std::size_t band, const GapPenalties& gaps = {});

/// Score-only banded pass (two rolling rows, no traceback storage).
ScoreOnlyResult banded_score_only(std::string_view query, std::string_view subject,
                                  const ScoringProfile& profile, long diagonal,
                                  std::size_t band, const GapPenalties& gaps = {});

/// Pre-encoded variants: both sequences were encoded once via
/// PreparedSeq and are reused across many calls — a blastx search prepares
/// each frame query and every database subject once instead of re-encoding
/// per (subject, diagonal) pair, and the overlap phase prepares each
/// fragment once for all its candidate pairs. `profile` must be the one
/// the PreparedSeqs were encoded with. Results are identical to the
/// string_view entry points.
LocalAlignment banded_align(const PreparedSeq& query, const PreparedSeq& subject,
                            const ScoringProfile& profile, long diagonal,
                            std::size_t band, const GapPenalties& gaps = {});

/// Score-only pass over pre-encoded sequences.
ScoreOnlyResult banded_score_only(const PreparedSeq& query,
                                  const PreparedSeq& subject,
                                  const ScoringProfile& profile, long diagonal,
                                  std::size_t band, const GapPenalties& gaps = {});

/// One candidate of a batched score-only pass: a subject (encoded under
/// the batch's profile) and the diagonal its band is centred on.
struct ScoreOnlyCandidate {
  const PreparedSeq* subject = nullptr;
  long diagonal = 0;
};

/// Score-only passes of one query against many (subject, diagonal)
/// candidates, with one band, profile and gap model. results[k] and the
/// DpCounters are exactly what banded_score_only(query,
/// *candidates[k].subject, profile, candidates[k].diagonal, band, gaps)
/// gives, call by call. On AVX2 the candidates run 16 to a vector
/// (BLASTX scores every candidate diagonal of a query frame in one call);
/// candidates the batch kernel cannot take run one by one. Throws
/// common::InvalidArgument when the two spans differ in size.
void banded_score_only_batch(const PreparedSeq& query,
                             std::span<const ScoreOnlyCandidate> candidates,
                             const ScoringProfile& profile, std::size_t band,
                             const GapPenalties& gaps,
                             std::span<ScoreOnlyResult> results);

/// One pair of a batched traceback run: pre-encoded query and subject
/// (encoded under the batch's profile) and the diagonal the band is
/// centred on.
struct AlignmentPair {
  const PreparedSeq* query = nullptr;
  const PreparedSeq* subject = nullptr;
  long diagonal = 0;
};

/// Banded alignments with traceback of many unrelated (query, subject,
/// diagonal) pairs under one band, profile and gap model. results[k] and
/// the DpCounters are exactly what banded_align(*pairs[k].query,
/// *pairs[k].subject, profile, pairs[k].diagonal, band, gaps) gives, call
/// by call. On AVX2, with an identity profile (ScoringProfile::dna), the
/// pairs run 16 to a vector, each lane its own pair, lanes packed by
/// band_rows(); the call's traceback buffer stays within 512 KiB. Pairs
/// the batch kernel cannot take run one by one. Throws
/// common::InvalidArgument when the two spans differ in size.
void banded_align_batch(std::span<const AlignmentPair> pairs,
                        const ScoringProfile& profile, std::size_t band,
                        const GapPenalties& gaps,
                        std::span<LocalAlignment> results);

/// Rows of the n x m banded matrix around `diagonal` (band clamped to
/// n + m) that hold an in-band cell: the steps banded_align_batch spends
/// on the pair. A caller that splits its pairs over several batch calls
/// wastes the fewest lane-steps by keeping pairs of close row counts in
/// the same call.
std::size_t band_rows(std::size_t n, std::size_t m, long diagonal, std::size_t band);

/// DNA score-only pass with the overlap detector's identity scoring.
ScoreOnlyResult banded_score_only_dna(std::string_view query,
                                      std::string_view subject, long diagonal,
                                      std::size_t band, int match = 1,
                                      int mismatch = -2,
                                      const GapPenalties& gaps = {6, 1});

/// Cumulative DP work counters. Accumulated per thread (one cache-line-
/// aligned node per kernel-touching thread, updated once per invocation
/// with owner-only relaxed atomics) and merged when read, so parallel
/// alignment runs never bounce a shared counter line. Machine-independent:
/// the CI perf-smoke asserts cell-count envelopes on these instead of
/// wall-clock seconds. reset_dp_counters() zeroes every thread's node;
/// call it only while no kernels are in flight (benchmark harnesses).
struct DpCounters {
  std::uint64_t cells = 0;        ///< in-band DP cells scored
  std::uint64_t tracebacks = 0;   ///< full (traceback) kernel invocations
  std::uint64_t score_only = 0;   ///< score-only kernel invocations
};

/// Snapshot of the counters since process start / last reset.
DpCounters dp_counters();
/// Resets the counters to zero (benchmark harnesses only).
void reset_dp_counters();

}  // namespace pga::align
