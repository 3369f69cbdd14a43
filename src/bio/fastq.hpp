// FASTQ records and the read-preprocessing steps of the assembly pipeline
// (Fig. 1 of the paper: data cleaning / quality trimming / filtering).
#pragma once

#include <filesystem>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "bio/sequence.hpp"

namespace pga::bio {

/// One FASTQ read: sequence plus per-base Phred+33 qualities.
struct FastqRecord {
  std::string id;
  std::string seq;
  std::string qual;  ///< same length as seq, Phred+33 encoded

  /// Phred score of base `i` (0-based).
  [[nodiscard]] int phred(std::size_t i) const { return qual[i] - 33; }
  [[nodiscard]] std::size_t length() const { return seq.size(); }

  friend bool operator==(const FastqRecord&, const FastqRecord&) = default;
};

/// Streaming 4-line FASTQ reader. Throws ParseError on malformed records
/// (missing '@'/'+', quality/sequence length mismatch, a quality character
/// outside Phred+33 '!'..'~').
class FastqReader {
 public:
  explicit FastqReader(std::istream& in);
  std::optional<FastqRecord> next();

 private:
  std::istream& in_;
};

/// Writes 4-line FASTQ.
void write_fastq(std::ostream& out, const std::vector<FastqRecord>& reads);

/// Loads a whole FASTQ file.
std::vector<FastqRecord> read_fastq_file(const std::filesystem::path& path);

/// Quality-control parameters for preprocess().
struct QcParams {
  int trim_quality = 20;        ///< 3'-end sliding trim threshold (Phred)
  std::size_t min_length = 40;  ///< drop reads shorter than this after trimming
  double max_n_fraction = 0.1;  ///< drop reads with more than this fraction of Ns
};

/// Outcome counts from preprocess().
struct QcReport {
  std::size_t input_reads = 0;
  std::size_t passed_reads = 0;
  std::size_t dropped_short = 0;
  std::size_t dropped_n = 0;
  std::size_t bases_trimmed = 0;
};

/// Trims the 3' end of a read at the first position where quality drops
/// below `quality` (simple Sanger-style cutoff); returns the kept length.
std::size_t trim_point(const FastqRecord& read, int quality);

/// Runs the cleaning/filtering stage: 3' quality trim, then length and
/// N-content filters. Returns surviving reads as plain sequences.
std::vector<SeqRecord> preprocess(const std::vector<FastqRecord>& reads,
                                  const QcParams& params, QcReport* report = nullptr);

}  // namespace pga::bio
