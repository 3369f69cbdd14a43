#include "align/kmer_index.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "align/scoring.hpp"
#include "bio/alphabet.hpp"
#include "common/error.hpp"

namespace pga::align {

namespace {

constexpr int kResidues = 20;
constexpr int kMaxK = 5;

/// Enumerates the query words whose score against one database word
/// reaches the threshold: a depth-first walk over the 20^k words that
/// cuts a branch as soon as its partial score plus the best the
/// remaining positions could add falls short. Each position tries query
/// residues in descending score order, so the first miss ends its loop.
class NeighborWalk {
 public:
  NeighborWalk(int k, int threshold) : k_(k), threshold_(threshold) {
    for (int d = 0; d < kResidues; ++d) {
      auto& column = columns_[d];
      for (int q = 0; q < kResidues; ++q) {
        column[q] = {blosum62(bio::kAminoAcids[q], bio::kAminoAcids[d]), q};
      }
      std::stable_sort(column.begin(), column.end(),
                       [](const Candidate& a, const Candidate& b) { return a.score > b.score; });
    }
  }

  /// Calls visit(query_code) for every query word scoring >= threshold
  /// against the database word `db_code`.
  template <class Visit>
  void run(std::uint32_t db_code, Visit&& visit) {
    for (int i = 0; i < k_; ++i) {
      db_[i] = static_cast<int>(db_code % kResidues);
      db_code /= kResidues;
    }
    best_rest_[k_] = 0;
    for (int i = k_ - 1; i >= 0; --i) {
      best_rest_[i] = best_rest_[i + 1] + columns_[db_[i]][0].score;
    }
    step(0, 0, 0, 1, visit);
  }

 private:
  struct Candidate {
    int score;  ///< blosum62(query residue, database residue)
    int query;  ///< query residue index
  };

  template <class Visit>
  void step(int pos, int partial, std::uint32_t code, std::uint32_t place,
            Visit& visit) const {
    if (pos == k_) {
      visit(code);
      return;
    }
    const int need = threshold_ - partial - best_rest_[pos + 1];
    for (const Candidate& c : columns_[db_[pos]]) {
      if (c.score < need) break;
      step(pos + 1, partial + c.score, code + static_cast<std::uint32_t>(c.query) * place,
           place * kResidues, visit);
    }
  }

  int k_;
  int threshold_;
  /// Per database residue: every query residue, by descending score.
  std::array<std::array<Candidate, kResidues>, kResidues> columns_{};
  std::array<int, kMaxK> db_{};             ///< current database word, residue indices
  std::array<int, kMaxK + 1> best_rest_{};  ///< best score positions i..k-1 can add
};

}  // namespace

KmerIndex::KmerIndex(const std::vector<bio::SeqRecord>& proteins, int k,
                     int threshold)
    : k_(k), threshold_(threshold) {
  if (k < 2 || k > kMaxK) {
    throw common::InvalidArgument("KmerIndex: k must be in [2,5]");
  }
  table_size_ = 1;
  for (int i = 0; i < k; ++i) table_size_ *= kResidues;
  table_.resize(table_size_);

  subject_count_ = proteins.size();
  if (proteins.size() > 0xffffffffULL) {
    throw common::InvalidArgument("KmerIndex: too many subjects");
  }
  for (std::uint32_t s = 0; s < proteins.size(); ++s) {
    const std::string& seq = proteins[s].seq;
    total_residues_ += seq.size();
    if (seq.size() < static_cast<std::size_t>(k)) continue;
    for (std::size_t pos = 0; pos + static_cast<std::size_t>(k) <= seq.size(); ++pos) {
      const long code = encode(std::string_view(seq).substr(pos, static_cast<std::size_t>(k)));
      if (code < 0) continue;
      auto& bucket = table_[static_cast<std::size_t>(code)];
      if (bucket.empty()) occupied_codes_.push_back(static_cast<std::uint32_t>(code));
      bucket.push_back(WordHit{s, static_cast<std::uint32_t>(pos)});
    }
  }
  build_neighborhoods();
}

void KmerIndex::build_neighborhoods() {
  // Inverted enumeration: instead of scoring every occupied word against
  // each query word, walk from each occupied word to the query words that
  // reach it. Visiting occupied words in occupied_codes_ order appends
  // them to every query code's list in that same order.
  NeighborWalk walk(k_, threshold_);
  neighbor_offsets_.assign(table_size_ + 1, 0);
  for (const std::uint32_t d : occupied_codes_) {
    walk.run(d, [&](std::uint32_t c) { ++neighbor_offsets_[c + 1]; });
  }
  std::uint64_t total = 0;
  for (std::size_t c = 1; c <= table_size_; ++c) {
    total += neighbor_offsets_[c];
    if (total > std::numeric_limits<std::uint32_t>::max()) {
      throw common::InvalidArgument("KmerIndex: neighborhood table too large");
    }
    neighbor_offsets_[c] = static_cast<std::uint32_t>(total);
  }
  // Fill using offsets_[c] as c's write cursor; afterwards each cursor
  // sits on the next list's start, so shifting the array right by one
  // restores the offsets.
  neighbor_codes_.resize(static_cast<std::size_t>(total));
  for (const std::uint32_t d : occupied_codes_) {
    walk.run(d, [&](std::uint32_t c) { neighbor_codes_[neighbor_offsets_[c]++] = d; });
  }
  for (std::size_t c = table_size_; c > 0; --c) {
    neighbor_offsets_[c] = neighbor_offsets_[c - 1];
  }
  neighbor_offsets_[0] = 0;
}

long KmerIndex::encode(std::string_view word) const {
  if (word.size() != static_cast<std::size_t>(k_)) return -1;
  long code = 0;
  long mult = 1;
  for (const char c : word) {
    const int idx = bio::amino_index(c);
    if (idx < 0) return -1;
    code += idx * mult;
    mult *= kResidues;
  }
  return code;
}

const std::vector<WordHit>& KmerIndex::exact(std::string_view word) const {
  static const std::vector<WordHit> kEmpty;
  const long code = encode(word);
  if (code < 0) return kEmpty;
  return table_[static_cast<std::size_t>(code)];
}

void KmerIndex::neighborhood(std::string_view word, std::vector<WordHit>& out) const {
  const long code = encode(word);
  if (code < 0) return;
  const std::uint32_t* first =
      neighbor_codes_.data() + neighbor_offsets_[static_cast<std::size_t>(code)];
  const std::uint32_t* last =
      neighbor_codes_.data() + neighbor_offsets_[static_cast<std::size_t>(code) + 1];

  // One reserve covering every neighbour bucket, then raw appends — the
  // repeated insert() growth was measurable at word_size 3 where a query
  // word fans out to dozens of buckets.
  std::size_t total = 0;
  for (const std::uint32_t* n = first; n != last; ++n) total += table_[*n].size();
  out.reserve(out.size() + total);
  for (const std::uint32_t* n = first; n != last; ++n) {
    const auto& bucket = table_[*n];
    out.insert(out.end(), bucket.begin(), bucket.end());
  }
}

}  // namespace pga::align
