// Protein k-mer index with BLAST-style neighborhood word seeding.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "bio/sequence.hpp"

namespace pga::align {

/// Location of one word occurrence in the database.
struct WordHit {
  std::uint32_t subject;   ///< index into the indexed record vector
  std::uint32_t position;  ///< 0-based residue offset within the subject
};

/// Indexes every length-k word of a protein database and answers
/// neighborhood queries: all occurrences of database words scoring at
/// least `threshold` against a query word under BLOSUM62 (BLAST's "T"
/// parameter). Words containing nonstandard residues are skipped.
///
/// The neighborhood of every possible query word is built once, at
/// construction, into an immutable CSR table; queries are lock-free reads
/// and safe from any number of threads. The table holds one entry per
/// (query word, occupied word) pair above the threshold, so at k >= 4 the
/// threshold has to grow with k to keep it small.
class KmerIndex {
 public:
  /// Builds the index. k must be in [2, 5] (20^k table entries).
  KmerIndex(const std::vector<bio::SeqRecord>& proteins, int k, int threshold);

  /// Exact-word occurrences of `word` (length k, standard residues only;
  /// returns empty otherwise).
  [[nodiscard]] const std::vector<WordHit>& exact(std::string_view word) const;

  /// Appends occurrences of all database words in the BLOSUM62
  /// neighborhood of `word` (score >= threshold, including the word itself
  /// when it qualifies) to `out`. Neighbouring words are visited in the
  /// order they first occur in the database.
  void neighborhood(std::string_view word, std::vector<WordHit>& out) const;

  [[nodiscard]] int k() const { return k_; }
  [[nodiscard]] int threshold() const { return threshold_; }
  /// Total residues indexed (database size for E-value computation).
  [[nodiscard]] std::uint64_t total_residues() const { return total_residues_; }
  [[nodiscard]] std::size_t subjects() const { return subject_count_; }

 private:
  /// Encodes a word as sum amino_index * 20^i, or -1 if any residue is
  /// nonstandard.
  [[nodiscard]] long encode(std::string_view word) const;

  /// Fills neighbor_offsets_ / neighbor_codes_ from occupied_codes_.
  void build_neighborhoods();

  int k_;
  int threshold_;
  std::size_t table_size_;
  std::size_t subject_count_ = 0;
  std::uint64_t total_residues_ = 0;
  std::vector<std::vector<WordHit>> table_;    // word code -> occurrences
  std::vector<std::uint32_t> occupied_codes_;  // codes with any occurrence
  /// CSR neighborhood table over every query code c: the occupied codes
  /// scoring >= threshold against c are
  /// neighbor_codes_[neighbor_offsets_[c] .. neighbor_offsets_[c + 1]),
  /// each list in occupied_codes_ order.
  std::vector<std::uint32_t> neighbor_offsets_;
  std::vector<std::uint32_t> neighbor_codes_;
};

}  // namespace pga::align
