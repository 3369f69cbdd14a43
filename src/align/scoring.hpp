// Protein substitution scoring (BLOSUM62) and BLAST-style statistics.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

namespace pga::align {

/// BLOSUM62 substitution score between two residues (case-insensitive).
/// 'X' scores -1 against everything; '*' scores -4 against residues and +1
/// against itself — the NCBI conventions.
int blosum62(char a, char b);

/// Affine gap model: a gap of length L costs open + extend * L.
struct GapPenalties {
  int open = 11;    ///< gap-open cost (positive)
  int extend = 1;   ///< per-residue extension cost (positive)
};

/// Karlin–Altschul parameters for gapped BLOSUM62 with gap 11/1 — the
/// defaults BLASTX reports bit scores and E-values with.
struct KarlinAltschul {
  double lambda = 0.267;
  double k = 0.041;
};

/// Raw alignment score -> bit score: (lambda*S - ln K) / ln 2.
double bit_score(int raw_score, const KarlinAltschul& ka = {});

/// E-value for a bit score over a search space of query length m (residues)
/// times database length n (residues): E = m * n * 2^-bits.
double e_value(double bits, double query_residues, double db_residues);

/// Sum of pairwise BLOSUM62 scores of two equal-length words (no gaps);
/// the quantity thresholded by BLAST's two-hit word finder.
int word_score(std::string_view a, std::string_view b);

/// Precomputed substitution table indexed by encoded residues — the DP
/// kernel's replacement for a per-cell score callback. Sequences are
/// encoded once per alignment (char -> 5-bit code via a 256-entry map);
/// the inner loop then reads `row(q_code)[s_code]` with no branching,
/// case-folding or function-pointer indirection. The table is kept twice:
/// as `int` for the scalar kernel, and as an `int8_t` copy whose 32-byte
/// rows the 16-bit vector kernels look up with two byte shuffles
/// (meaningful only when fits_int8()).
class ScoringProfile {
 public:
  static constexpr int kCodes = 32;

  /// BLOSUM62 profile matching blosum62(a, b) for every char pair:
  /// codes 0..19 = the standard residues, 20 = '*', 21 = X / anything else.
  static const ScoringProfile& protein_blosum62();

  /// DNA identity profile matching `a == b ? match : mismatch` over
  /// A/C/G/T/N in both cases. Characters outside that set share one
  /// catch-all code (kDnaOtherCode) and score `mismatch` even against
  /// themselves (the overlap pipeline never feeds such characters;
  /// reverse_complement rejects them earlier).
  static ScoringProfile dna(int match, int mismatch);

  /// The catch-all code of dna() profiles.
  static constexpr std::uint8_t kDnaOtherCode = 31;

  /// Bytes of zero-padding PreparedSeq keeps after the encoded codes, so a
  /// vector kernel may overread up to one SIMD register past the end.
  static constexpr std::size_t kCodePadding = 16;

  /// Substitution score of two encoded residues.
  [[nodiscard]] int score(std::uint8_t a, std::uint8_t b) const {
    return table_[(static_cast<std::size_t>(a) << 5) | b];
  }
  /// Row of the table for a fixed query code (inner-loop pointer).
  [[nodiscard]] const int* row(std::uint8_t code) const {
    return table_.data() + (static_cast<std::size_t>(code) << 5);
  }
  /// The same row as 32 `int8_t` scores; exact only when fits_int8().
  [[nodiscard]] const std::int8_t* row8(std::uint8_t code) const {
    return table8_.data() + (static_cast<std::size_t>(code) << 5);
  }
  /// Largest entry of the table.
  [[nodiscard]] int max_score() const { return max_score_; }
  /// True when every entry lies in [-128, 127], so row8() is exact.
  [[nodiscard]] bool fits_int8() const { return fits_int8_; }
  /// True for dna() profiles: two codes score match_score() when they are
  /// equal and not kDnaOtherCode, else mismatch_score(), so a kernel may
  /// score a cell by comparing codes instead of looking up a table row.
  [[nodiscard]] bool identity_scores() const { return identity_; }
  [[nodiscard]] int match_score() const { return match_; }
  [[nodiscard]] int mismatch_score() const { return mismatch_; }
  [[nodiscard]] std::uint8_t encode_char(char c) const {
    return encode_[static_cast<unsigned char>(c)];
  }
  /// Encodes a sequence into `out` (resized to seq.size()).
  void encode(std::string_view seq, std::vector<std::uint8_t>& out) const;

 private:
  ScoringProfile() = default;
  /// Derives table8_, max_score_ and fits_int8_ from the filled table_.
  void finish_tables();

  std::array<std::uint8_t, 256> encode_{};
  std::array<int, kCodes * kCodes> table_{};
  std::array<std::int8_t, kCodes * kCodes> table8_{};
  int max_score_ = 0;
  bool fits_int8_ = false;
  bool identity_ = false;
  int match_ = 0;
  int mismatch_ = 0;
};

/// A sequence encoded once against a ScoringProfile and reused across many
/// alignments — the per-pair encode the DP entry points used to pay is
/// hoisted here, so a blastx search encodes each frame protein and each
/// database subject exactly once per query instead of once per (subject,
/// diagonal) pair, and the overlap phase encodes each fragment (and its
/// reverse complement) once for all its candidate pairs.
///
/// Holds a view of the caller's characters (the traceback needs them for
/// match counting) plus an owned, zero-padded code buffer
/// (ScoringProfile::kCodePadding slack bytes, so SIMD kernels may overread
/// a full register past the end). The viewed string must outlive the
/// PreparedSeq. assign() reuses the code buffer's capacity, so a
/// thread-local PreparedSeq re-assigned per call allocates nothing in
/// steady state.
class PreparedSeq {
 public:
  PreparedSeq() = default;
  PreparedSeq(std::string_view seq, const ScoringProfile& profile) {
    assign(seq, profile);
  }

  /// Re-points at `seq` and re-encodes it under `profile`.
  void assign(std::string_view seq, const ScoringProfile& profile);

  [[nodiscard]] std::string_view chars() const { return chars_; }
  [[nodiscard]] const std::uint8_t* codes() const { return codes_.data(); }
  [[nodiscard]] std::size_t size() const { return chars_.size(); }
  [[nodiscard]] bool empty() const { return chars_.empty(); }

 private:
  std::string_view chars_;
  std::vector<std::uint8_t> codes_;
};

}  // namespace pga::align
