// BLASTX-style translated search: nucleotide queries against a protein
// database via 6-frame translation, word seeding and banded gapped
// extension. Produces the tabular hits blast2cap3 consumes.
#pragma once

#include <cstddef>
#include <vector>

#include "align/kmer_index.hpp"
#include "align/scoring.hpp"
#include "align/tabular.hpp"
#include "bio/sequence.hpp"
#include "common/thread_pool.hpp"

namespace pga::align {

/// Search tuning. Defaults suit the synthetic transcriptome: high-identity
/// hits against family proteins.
struct BlastxParams {
  int word_size = 3;             ///< seed word length (BLAST "W")
  int neighbor_threshold = 12;   ///< neighborhood score cutoff (BLAST "T")
  std::size_t min_seeds_per_diagonal = 2;  ///< two-hit heuristic
  std::size_t max_diagonals_per_subject = 4;  ///< extensions attempted per subject
  std::size_t band = 12;         ///< half-width of the extension band (residues)
  GapPenalties gaps{};           ///< affine gap costs (11/1 default)
  double evalue_cutoff = 1e-6;   ///< discard hits above this E-value
  long min_alignment_length = 20;  ///< discard shorter alignments (residues)
  KarlinAltschul ka{};           ///< statistics parameters
  bool best_hit_per_subject = true;  ///< keep only the best HSP per (q,s) pair
};

/// A reusable searcher over one protein database. Thread-safe: search()
/// may be called concurrently from many threads. Movable but not
/// copyable: the prepared subjects view the owned proteins' characters.
class BlastxSearch {
 public:
  /// Throws common::InvalidArgument for unusable parameters: zero
  /// min_seeds_per_diagonal or band, a non-finite or negative
  /// evalue_cutoff, non-finite or non-positive Karlin–Altschul
  /// parameters, or negative gap penalties.
  BlastxSearch(std::vector<bio::SeqRecord> proteins, BlastxParams params = {});
  BlastxSearch(const BlastxSearch&) = delete;
  BlastxSearch& operator=(const BlastxSearch&) = delete;
  BlastxSearch(BlastxSearch&&) noexcept = default;
  BlastxSearch& operator=(BlastxSearch&&) noexcept = default;

  /// Searches one transcript; hits are sorted by descending bit score.
  [[nodiscard]] std::vector<TabularHit> search(const bio::SeqRecord& transcript) const;

  /// Searches many transcripts, optionally fanning out on a thread pool.
  /// Results are concatenated in input order regardless of scheduling.
  [[nodiscard]] std::vector<TabularHit> search_all(
      const std::vector<bio::SeqRecord>& transcripts,
      common::ThreadPool* pool = nullptr) const;

  [[nodiscard]] const std::vector<bio::SeqRecord>& proteins() const { return proteins_; }
  [[nodiscard]] const BlastxParams& params() const { return params_; }

 private:
  std::vector<bio::SeqRecord> proteins_;
  BlastxParams params_;
  KmerIndex index_;
  /// Each database protein encoded once at construction (views into
  /// proteins_, which never changes afterwards); every search() reuses
  /// them instead of re-encoding the subject per (subject, diagonal).
  std::vector<PreparedSeq> prepared_subjects_;
};

}  // namespace pga::align
