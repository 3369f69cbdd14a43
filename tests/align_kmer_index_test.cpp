#include "align/kmer_index.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <type_traits>

#include "align/scoring.hpp"
#include "bio/alphabet.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace pga::align {
namespace {

std::vector<bio::SeqRecord> tiny_db() {
  return {
      {"p1", "", "MKWVTFISLL"},
      {"p2", "", "AAAMKWAAA"},
  };
}

TEST(KmerIndex, ValidatesK) {
  const auto db = tiny_db();
  EXPECT_THROW(KmerIndex(db, 1, 11), common::InvalidArgument);
  EXPECT_THROW(KmerIndex(db, 6, 11), common::InvalidArgument);
  EXPECT_NO_THROW(KmerIndex(db, 3, 11));
}

TEST(KmerIndex, ExactLookupFindsAllOccurrences) {
  const KmerIndex index(tiny_db(), 3, 11);
  const auto& hits = index.exact("MKW");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].subject, 0u);
  EXPECT_EQ(hits[0].position, 0u);
  EXPECT_EQ(hits[1].subject, 1u);
  EXPECT_EQ(hits[1].position, 3u);
}

TEST(KmerIndex, ExactLookupMissReturnsEmpty) {
  const KmerIndex index(tiny_db(), 3, 11);
  EXPECT_TRUE(index.exact("WWW").empty());
  EXPECT_TRUE(index.exact("MK").empty());    // wrong length
  EXPECT_TRUE(index.exact("MKX").empty());   // nonstandard residue
}

TEST(KmerIndex, TotalResiduesAndSubjects) {
  const KmerIndex index(tiny_db(), 3, 11);
  EXPECT_EQ(index.total_residues(), 10u + 9u);
  EXPECT_EQ(index.subjects(), 2u);
}

TEST(KmerIndex, NeighborhoodIncludesExactWordWhenSelfScorePasses) {
  const KmerIndex index(tiny_db(), 3, 11);
  ASSERT_GE(word_score("MKW", "MKW"), 11);
  std::vector<WordHit> hits;
  index.neighborhood("MKW", hits);
  std::set<std::pair<std::uint32_t, std::uint32_t>> got;
  for (const auto& h : hits) got.insert({h.subject, h.position});
  EXPECT_TRUE(got.count({0, 0}));
  EXPECT_TRUE(got.count({1, 3}));
}

TEST(KmerIndex, NeighborhoodFindsSimilarWords) {
  // DB has "ILL"; query "VLL" scores blosum(I,V)+2*blosum(L,L)=3+8=11.
  const std::vector<bio::SeqRecord> db{{"p", "", "AAAILLAAA"}};
  const KmerIndex index(db, 3, 11);
  std::vector<WordHit> hits;
  index.neighborhood("VLL", hits);
  bool found = false;
  for (const auto& h : hits) {
    if (h.position == 3) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(KmerIndex, ThresholdExcludesWeakNeighbors) {
  const std::vector<bio::SeqRecord> db{{"p", "", "AAAILLAAA"}};
  const KmerIndex strict(db, 3, 12);  // VLL vs ILL scores 11 < 12
  std::vector<WordHit> hits;
  strict.neighborhood("VLL", hits);
  for (const auto& h : hits) EXPECT_NE(h.position, 3u);
}

TEST(KmerIndex, SkipsWordsWithNonstandardResidues) {
  const std::vector<bio::SeqRecord> db{{"p", "", "MKXWVT"}};
  const KmerIndex index(db, 3, 11);
  // Words MKX, KXW, XWV contain X and are not indexed; WVT is.
  EXPECT_TRUE(index.exact("MKX").empty());
  EXPECT_EQ(index.exact("WVT").size(), 1u);
}

TEST(KmerIndex, ShortSequencesContributeNothing) {
  const std::vector<bio::SeqRecord> db{{"p", "", "MK"}};
  const KmerIndex index(db, 3, 11);
  EXPECT_EQ(index.total_residues(), 2u);
  EXPECT_TRUE(index.exact("MKW").empty());
}

/// Random protein database over the standard residues.
std::vector<bio::SeqRecord> random_db(std::size_t proteins, std::size_t length,
                                      std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<bio::SeqRecord> db;
  for (std::size_t p = 0; p < proteins; ++p) {
    std::string seq;
    for (std::size_t i = 0; i < length; ++i) seq.push_back(bio::kAminoAcids[rng.below(20)]);
    db.push_back({"p" + std::to_string(p), "", seq});
  }
  return db;
}

/// Word of `k` residues for code `code` (residue i = digit i in base 20).
std::string word_of(std::size_t code, int k) {
  std::string word;
  for (int i = 0; i < k; ++i) {
    word.push_back(bio::kAminoAcids[code % 20]);
    code /= 20;
  }
  return word;
}

/// Distinct database words of length k, in first-occurrence order.
std::vector<std::string> occupied_words(const std::vector<bio::SeqRecord>& db,
                                        std::size_t k) {
  std::vector<std::string> occupied;
  std::set<std::string> seen;
  for (const auto& rec : db) {
    for (std::size_t pos = 0; pos + k <= rec.seq.size(); ++pos) {
      std::string word = rec.seq.substr(pos, k);
      if (seen.insert(word).second) occupied.push_back(std::move(word));
    }
  }
  return occupied;
}

/// Brute-force neighborhood: scan the occupied words in order and append
/// every occurrence of each word scoring >= threshold against `query`.
std::vector<WordHit> brute_neighborhood(const std::vector<std::string>& occupied,
                                        const KmerIndex& index, std::string_view query) {
  std::vector<WordHit> out;
  for (const auto& word : occupied) {
    if (word_score(query, word) < index.threshold()) continue;
    const auto& bucket = index.exact(word);
    out.insert(out.end(), bucket.begin(), bucket.end());
  }
  return out;
}

bool same_hits(const std::vector<WordHit>& a, const std::vector<WordHit>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].subject != b[i].subject || a[i].position != b[i].position) return false;
  }
  return true;
}

TEST(KmerIndex, NeighborhoodMatchesBruteForceForEveryQueryWord) {
  const auto db = random_db(6, 90, 41);
  for (const int k : {2, 3}) {
    std::size_t codes = 1;
    for (int i = 0; i < k; ++i) codes *= 20;
    const auto occupied = occupied_words(db, static_cast<std::size_t>(k));
    for (const int threshold : {-20, 8, 11, 12, 30}) {
      const KmerIndex index(db, k, threshold);
      std::vector<WordHit> got;
      for (std::size_t code = 0; code < codes; ++code) {
        const std::string query = word_of(code, k);
        got.clear();
        index.neighborhood(query, got);
        ASSERT_TRUE(same_hits(got, brute_neighborhood(occupied, index, query)))
            << "k=" << k << " T=" << threshold << " query=" << query;
      }
    }
  }
}

TEST(KmerIndex, NeighborhoodMatchesBruteForceAtLargestK) {
  const auto db = random_db(4, 60, 43);
  const KmerIndex index(db, 5, 18);
  const auto occupied = occupied_words(db, 5);
  common::Rng rng(44);
  std::size_t nonempty = 0;
  for (int t = 0; t < 300; ++t) {
    // Half the samples are database words (non-empty neighborhoods), half
    // are uniform random words.
    std::string query;
    if (t % 2 == 0) {
      const auto& seq = db[rng.below(db.size())].seq;
      query = seq.substr(rng.below(seq.size() - 4), 5);
    } else {
      query = word_of(rng.below(3200000), 5);
    }
    std::vector<WordHit> got;
    index.neighborhood(query, got);
    if (!got.empty()) ++nonempty;
    ASSERT_TRUE(same_hits(got, brute_neighborhood(occupied, index, query))) << query;
  }
  EXPECT_GE(nonempty, 150u);
}

TEST(KmerIndex, NonstandardQueryWordHasNoNeighborhood) {
  const KmerIndex index(tiny_db(), 3, -20);
  std::vector<WordHit> hits;
  index.neighborhood("MKX", hits);
  index.neighborhood("MK", hits);
  EXPECT_TRUE(hits.empty());
}

TEST(KmerIndex, IsMovable) {
  static_assert(std::is_nothrow_move_constructible_v<KmerIndex>);
  KmerIndex original(tiny_db(), 3, 11);
  std::vector<WordHit> before;
  original.neighborhood("MKW", before);
  const KmerIndex moved(std::move(original));
  std::vector<WordHit> after;
  moved.neighborhood("MKW", after);
  EXPECT_TRUE(same_hits(before, after));
  EXPECT_FALSE(after.empty());
}

TEST(KmerIndex, ConcurrentNeighborhoodQueriesAreSafe) {
  // Many threads read the prebuilt neighborhood table at once; the
  // sanitizer legs check the reads stay lock-free and race-free.
  std::vector<bio::SeqRecord> db;
  const std::string_view aas = "ARNDCQEGHILKMFPSTWYV";
  std::string seq;
  for (const char a : aas)
    for (const char b : aas) seq += std::string{a, b};
  db.push_back({"big", "", seq});
  const KmerIndex index(db, 3, 10);

  std::vector<std::thread> threads;
  std::atomic<std::size_t> total{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&index, &total, aas] {
      std::vector<WordHit> hits;
      for (const char a : aas) {
        for (const char b : aas) {
          hits.clear();
          index.neighborhood(std::string{a, b, 'L'}, hits);
          total += hits.size();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(total.load(), 0u);
}

}  // namespace
}  // namespace pga::align
