#include "align/scoring.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <cstdint>

#include "bio/alphabet.hpp"

namespace pga::align {

namespace {

// Standard BLOSUM62, rows/columns in kAminoAcids order (ARNDCQEGHILKMFPSTWYV).
constexpr std::array<std::array<int, 20>, 20> kBlosum62 = {{
    //        A   R   N   D   C   Q   E   G   H   I   L   K   M   F   P   S   T   W   Y   V
    /*A*/ {{  4, -1, -2, -2,  0, -1, -1,  0, -2, -1, -1, -1, -1, -2, -1,  1,  0, -3, -2,  0}},
    /*R*/ {{ -1,  5,  0, -2, -3,  1,  0, -2,  0, -3, -2,  2, -1, -3, -2, -1, -1, -3, -2, -3}},
    /*N*/ {{ -2,  0,  6,  1, -3,  0,  0,  0,  1, -3, -3,  0, -2, -3, -2,  1,  0, -4, -2, -3}},
    /*D*/ {{ -2, -2,  1,  6, -3,  0,  2, -1, -1, -3, -4, -1, -3, -3, -1,  0, -1, -4, -3, -3}},
    /*C*/ {{  0, -3, -3, -3,  9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1}},
    /*Q*/ {{ -1,  1,  0,  0, -3,  5,  2, -2,  0, -3, -2,  1,  0, -3, -1,  0, -1, -2, -1, -2}},
    /*E*/ {{ -1,  0,  0,  2, -4,  2,  5, -2,  0, -3, -3,  1, -2, -3, -1,  0, -1, -3, -2, -2}},
    /*G*/ {{  0, -2,  0, -1, -3, -2, -2,  6, -2, -4, -4, -2, -3, -3, -2,  0, -2, -2, -3, -3}},
    /*H*/ {{ -2,  0,  1, -1, -3,  0,  0, -2,  8, -3, -3, -1, -2, -1, -2, -1, -2, -2,  2, -3}},
    /*I*/ {{ -1, -3, -3, -3, -1, -3, -3, -4, -3,  4,  2, -3,  1,  0, -3, -2, -1, -3, -1,  3}},
    /*L*/ {{ -1, -2, -3, -4, -1, -2, -3, -4, -3,  2,  4, -2,  2,  0, -3, -2, -1, -2, -1,  1}},
    /*K*/ {{ -1,  2,  0, -1, -3,  1,  1, -2, -1, -3, -2,  5, -1, -3, -1,  0, -1, -3, -2, -2}},
    /*M*/ {{ -1, -1, -2, -3, -1,  0, -2, -3, -2,  1,  2, -1,  5,  0, -2, -1, -1, -1, -1,  1}},
    /*F*/ {{ -2, -3, -3, -3, -2, -3, -3, -3, -1,  0,  0, -3,  0,  6, -4, -2, -2,  1,  3, -1}},
    /*P*/ {{ -1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4,  7, -1, -1, -4, -3, -2}},
    /*S*/ {{  1, -1,  1,  0, -1,  0,  0,  0, -1, -2, -2,  0, -1, -2, -1,  4,  1, -3, -2, -2}},
    /*T*/ {{  0, -1,  0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1,  1,  5, -2, -2,  0}},
    /*W*/ {{ -3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1,  1, -4, -3, -2, 11,  2, -3}},
    /*Y*/ {{ -2, -2, -2, -3, -2, -1, -2, -3,  2, -1, -1, -2, -1,  3, -3, -2, -2,  2,  7, -1}},
    /*V*/ {{  0, -3, -3, -3, -1, -2, -2, -3, -3,  3,  1, -2,  1, -1, -2, -2,  0, -3, -1,  4}},
}};

}  // namespace

int blosum62(char a, char b) {
  const char ua = static_cast<char>(std::toupper(static_cast<unsigned char>(a)));
  const char ub = static_cast<char>(std::toupper(static_cast<unsigned char>(b)));
  if (ua == '*' || ub == '*') return (ua == '*' && ub == '*') ? 1 : -4;
  const int ia = bio::amino_index(ua);
  const int ib = bio::amino_index(ub);
  if (ia < 0 || ib < 0) return -1;  // X or anything nonstandard
  return kBlosum62[static_cast<std::size_t>(ia)][static_cast<std::size_t>(ib)];
}

double bit_score(int raw_score, const KarlinAltschul& ka) {
  return (ka.lambda * raw_score - std::log(ka.k)) / std::log(2.0);
}

double e_value(double bits, double query_residues, double db_residues) {
  return query_residues * db_residues * std::pow(2.0, -bits);
}

int word_score(std::string_view a, std::string_view b) {
  int total = 0;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) total += blosum62(a[i], b[i]);
  return total;
}

const ScoringProfile& ScoringProfile::protein_blosum62() {
  static const ScoringProfile profile = [] {
    ScoringProfile p;
    // Codes: 0..19 residues in kAminoAcids order, 20 = '*', 21 = other.
    constexpr std::uint8_t kStopCode = 20;
    constexpr std::uint8_t kOtherCode = 21;
    for (int c = 0; c < 256; ++c) {
      const char u =
          static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      if (u == '*') {
        p.encode_[static_cast<std::size_t>(c)] = kStopCode;
        continue;
      }
      const int idx = bio::amino_index(u);
      p.encode_[static_cast<std::size_t>(c)] =
          idx >= 0 ? static_cast<std::uint8_t>(idx) : kOtherCode;
    }
    // Score every code pair through a representative character, so the
    // table agrees with blosum62() by construction.
    const auto rep = [](std::uint8_t code) {
      if (code == kStopCode) return '*';
      if (code < 20) return bio::kAminoAcids[code];
      return 'X';
    };
    for (std::uint8_t a = 0; a <= kOtherCode; ++a) {
      for (std::uint8_t b = 0; b <= kOtherCode; ++b) {
        p.table_[(static_cast<std::size_t>(a) << 5) | b] =
            blosum62(rep(a), rep(b));
      }
    }
    p.finish_tables();
    return p;
  }();
  return profile;
}

ScoringProfile ScoringProfile::dna(int match, int mismatch) {
  ScoringProfile p;
  // Codes 0..9 cover ACGTN in both cases (char-exact identity, like the
  // old `a == b` comparison); 31 is the catch-all.
  constexpr std::string_view kKnown = "ACGTacgtNn";
  constexpr std::uint8_t kOtherCode = kDnaOtherCode;
  p.encode_.fill(kOtherCode);
  for (std::size_t i = 0; i < kKnown.size(); ++i) {
    p.encode_[static_cast<unsigned char>(kKnown[i])] =
        static_cast<std::uint8_t>(i);
  }
  for (std::size_t a = 0; a < kCodes; ++a) {
    for (std::size_t b = 0; b < kCodes; ++b) {
      p.table_[(a << 5) | b] =
          (a == b && a != kOtherCode) ? match : mismatch;
    }
  }
  p.identity_ = true;
  p.match_ = match;
  p.mismatch_ = mismatch;
  p.finish_tables();
  return p;
}

void ScoringProfile::finish_tables() {
  max_score_ = *std::max_element(table_.begin(), table_.end());
  fits_int8_ = true;
  for (std::size_t k = 0; k < table_.size(); ++k) {
    const int v = table_[k];
    if (v < INT8_MIN || v > INT8_MAX) fits_int8_ = false;
    table8_[k] = static_cast<std::int8_t>(std::clamp(v, INT8_MIN, INT8_MAX));
  }
}

void ScoringProfile::encode(std::string_view seq,
                            std::vector<std::uint8_t>& out) const {
  out.resize(seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    out[i] = encode_[static_cast<unsigned char>(seq[i])];
  }
}

void PreparedSeq::assign(std::string_view seq, const ScoringProfile& profile) {
  chars_ = seq;
  codes_.resize(seq.size() + ScoringProfile::kCodePadding);
  for (std::size_t i = 0; i < seq.size(); ++i) {
    codes_[i] = profile.encode_char(seq[i]);
  }
  std::fill(codes_.begin() + static_cast<std::ptrdiff_t>(seq.size()),
            codes_.end(), std::uint8_t{0});
}

}  // namespace pga::align
