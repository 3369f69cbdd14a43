// Microbenchmarks for the alignment substrate (google-benchmark).
#include <benchmark/benchmark.h>

#include <future>

#include "align/blastx.hpp"
#include "align/kmer_index.hpp"
#include "align/sw.hpp"
#include "bio/alphabet.hpp"
#include "bio/codon.hpp"
#include "bio/transcriptome.hpp"
#include "common/rng.hpp"

namespace {

using namespace pga;

std::string random_protein(std::size_t n, common::Rng& rng) {
  std::string s;
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.push_back(bio::kAminoAcids[rng.below(20)]);
  }
  return s;
}

void BM_SmithWatermanProtein(benchmark::State& state) {
  common::Rng rng(1);
  const auto len = static_cast<std::size_t>(state.range(0));
  const std::string a = random_protein(len, rng);
  std::string b = a;
  for (std::size_t i = 0; i < b.size(); i += 10) b[i] = 'A';
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::smith_waterman(a, b));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SmithWatermanProtein)->Range(64, 1024)->Complexity(benchmark::oNSquared);

void BM_BandedSmithWaterman(benchmark::State& state) {
  common::Rng rng(2);
  const auto len = static_cast<std::size_t>(state.range(0));
  const std::string a = random_protein(len, rng);
  std::string b = a;
  for (std::size_t i = 0; i < b.size(); i += 10) b[i] = 'A';
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::banded_smith_waterman(a, b, 0, 16));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BandedSmithWaterman)->Range(64, 4096)->Complexity(benchmark::oN);

/// Score-only pass on the same inputs as BM_BandedSmithWaterman — the
/// delta is the cost of traceback storage + walk that candidate pruning
/// avoids paying for losers.
void BM_BandedScoreOnly(benchmark::State& state) {
  common::Rng rng(2);
  const auto len = static_cast<std::size_t>(state.range(0));
  const std::string a = random_protein(len, rng);
  std::string b = a;
  for (std::size_t i = 0; i < b.size(); i += 10) b[i] = 'A';
  const auto& profile = align::ScoringProfile::protein_blosum62();
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::banded_score_only(a, b, profile, 0, 16));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BandedScoreOnly)->Range(64, 4096)->Complexity(benchmark::oN);

/// BLASTX-shaped score-only work: one 150-residue frame query against 16
/// related 150-residue subjects at band 12, each on its own diagonal.
/// Inputs shared by the single-call and batch rows below.
struct BlastxCandidates {
  std::string query;
  std::vector<std::string> subjects;
  std::vector<long> diagonals;

  BlastxCandidates() {
    common::Rng rng(16);
    query = random_protein(150, rng);
    for (int k = 0; k < 16; ++k) {
      const auto shift = static_cast<std::size_t>(rng.below(40));
      std::string s = random_protein(shift, rng) + query.substr(0, 150 - shift);
      for (std::size_t i = k % 7; i < s.size(); i += 7) {
        s[i] = bio::kAminoAcids[rng.below(20)];
      }
      subjects.push_back(std::move(s));
      diagonals.push_back(-static_cast<long>(shift));
    }
  }
};

/// The 16 candidates as 16 banded_score_only calls.
void BM_BlastxCandidates16Single(benchmark::State& state) {
  const BlastxCandidates in;
  const auto& profile = align::ScoringProfile::protein_blosum62();
  const align::PreparedSeq query(in.query, profile);
  std::vector<align::PreparedSeq> subjects(in.subjects.size());
  for (std::size_t k = 0; k < subjects.size(); ++k) {
    subjects[k].assign(in.subjects[k], profile);
  }
  for (auto _ : state) {
    for (std::size_t k = 0; k < subjects.size(); ++k) {
      benchmark::DoNotOptimize(align::banded_score_only(
          query, subjects[k], profile, in.diagonals[k], 12, {}));
    }
  }
}
BENCHMARK(BM_BlastxCandidates16Single);

/// The same 16 candidates as one banded_score_only_batch call.
void BM_BlastxCandidates16Batch(benchmark::State& state) {
  const BlastxCandidates in;
  const auto& profile = align::ScoringProfile::protein_blosum62();
  const align::PreparedSeq query(in.query, profile);
  std::vector<align::PreparedSeq> subjects(in.subjects.size());
  std::vector<align::ScoreOnlyCandidate> candidates;
  for (std::size_t k = 0; k < subjects.size(); ++k) {
    subjects[k].assign(in.subjects[k], profile);
    candidates.push_back({&subjects[k], in.diagonals[k]});
  }
  std::vector<align::ScoreOnlyResult> results(candidates.size());
  for (auto _ : state) {
    align::banded_score_only_batch(query, candidates, profile, 12, {}, results);
    benchmark::DoNotOptimize(results.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_BlastxCandidates16Batch);

/// Overlap-shaped traceback: two ~400 nt fragments of one gene, offset by
/// 40 nt with scattered substitutions, at the overlap phase's band 48.
void BM_OverlapAlignDna400(benchmark::State& state) {
  common::Rng rng(48);
  std::string gene;
  for (int i = 0; i < 440; ++i) gene.push_back(bio::kBases[rng.below(4)]);
  const std::string a = gene.substr(0, 400);
  std::string b = gene.substr(40, 400);
  for (std::size_t i = 5; i < b.size(); i += 31) b[i] = b[i] == 'A' ? 'C' : 'A';
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::banded_smith_waterman_dna(a, b, 40, 48));
  }
}
BENCHMARK(BM_OverlapAlignDna400);

/// Overlap-phase-shaped tracebacks: 16 unrelated pairs of ~400 nt
/// fragments (each pair two windows of its own gene, with scattered
/// substitutions) on their own diagonals, at band 48. Inputs shared by the
/// per-pair and batch rows below.
struct OverlapPairs {
  std::vector<std::string> queries, subjects;
  std::vector<long> diagonals;

  OverlapPairs() {
    common::Rng rng(4816);
    for (int k = 0; k < 16; ++k) {
      std::string gene;
      for (int i = 0; i < 480; ++i) gene.push_back(bio::kBases[rng.below(4)]);
      const auto shift = static_cast<long>(rng.below(60));
      queries.push_back(gene.substr(static_cast<std::size_t>(shift), 380 + rng.below(40)));
      std::string s = gene.substr(0, 380 + rng.below(40));
      for (std::size_t i = k % 11; i < s.size(); i += 29) s[i] = s[i] == 'A' ? 'C' : 'A';
      subjects.push_back(std::move(s));
      diagonals.push_back(-shift);
    }
  }
};

/// The 16 pairs as 16 banded_align calls.
void BM_OverlapPairs16Single(benchmark::State& state) {
  const OverlapPairs in;
  const auto profile = align::ScoringProfile::dna(1, -2);
  std::vector<align::PreparedSeq> q(16), s(16);
  for (std::size_t k = 0; k < 16; ++k) {
    q[k].assign(in.queries[k], profile);
    s[k].assign(in.subjects[k], profile);
  }
  for (auto _ : state) {
    for (std::size_t k = 0; k < 16; ++k) {
      benchmark::DoNotOptimize(
          align::banded_align(q[k], s[k], profile, in.diagonals[k], 48, {6, 1}));
    }
  }
}
BENCHMARK(BM_OverlapPairs16Single);

/// The same 16 pairs as one banded_align_batch call.
void BM_OverlapPairs16Batch(benchmark::State& state) {
  const OverlapPairs in;
  const auto profile = align::ScoringProfile::dna(1, -2);
  std::vector<align::PreparedSeq> q(16), s(16);
  std::vector<align::AlignmentPair> pairs;
  for (std::size_t k = 0; k < 16; ++k) {
    q[k].assign(in.queries[k], profile);
    s[k].assign(in.subjects[k], profile);
    pairs.push_back({&q[k], &s[k], in.diagonals[k]});
  }
  std::vector<align::LocalAlignment> results(pairs.size());
  for (auto _ : state) {
    align::banded_align_batch(pairs, profile, 48, {6, 1}, results);
    benchmark::DoNotOptimize(results.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_OverlapPairs16Batch);

/// Index construction, including the eager neighborhood table, over
/// (database proteins, word size k, threshold T). Table size is occupied
/// words times neighborhood size, so k = 5 runs at a T scaled up with k.
void BM_KmerIndexBuild(benchmark::State& state) {
  common::Rng rng(3);
  std::vector<bio::SeqRecord> db;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    db.push_back({"p" + std::to_string(i), "", random_protein(300, rng)});
  }
  const auto k = static_cast<int>(state.range(1));
  const auto threshold = static_cast<int>(state.range(2));
  for (auto _ : state) {
    const align::KmerIndex index(db, k, threshold);
    benchmark::DoNotOptimize(index.total_residues());
  }
}
BENCHMARK(BM_KmerIndexBuild)
    ->Args({8, 3, 12})
    ->Args({64, 3, 12})
    ->Args({128, 3, 12})
    ->Args({128, 5, 22});

void BM_KmerNeighborhoodQuery(benchmark::State& state) {
  common::Rng rng(4);
  std::vector<bio::SeqRecord> db;
  for (int i = 0; i < 64; ++i) {
    db.push_back({"p" + std::to_string(i), "", random_protein(300, rng)});
  }
  const align::KmerIndex index(db, 3, 12);
  const std::string query = random_protein(200, rng);
  std::vector<align::WordHit> hits;
  for (auto _ : state) {
    for (std::size_t pos = 0; pos + 3 <= query.size(); ++pos) {
      hits.clear();
      index.neighborhood(std::string_view(query).substr(pos, 3), hits);
      benchmark::DoNotOptimize(hits.size());
    }
  }
}
BENCHMARK(BM_KmerNeighborhoodQuery);

void BM_BlastxSearchPerTranscript(benchmark::State& state) {
  bio::TranscriptomeParams params;
  params.families = static_cast<std::size_t>(state.range(0));
  params.protein_min = 100;
  params.protein_max = 250;
  params.seed = 5;
  const auto txm = bio::generate_transcriptome(params);
  const align::BlastxSearch search(txm.proteins);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        search.search(txm.transcripts[i++ % txm.transcripts.size()]));
  }
}
BENCHMARK(BM_BlastxSearchPerTranscript)->Arg(8)->Arg(32);

/// search_all fan-out cost: one pool task per transcript (the old
/// submission pattern, reproduced inline) versus the chunked submission
/// search_all now does (~4 contiguous chunks per worker). Same pool, same
/// inputs — the delta is pure packaged_task/future overhead.
void BM_BlastxSearchAllFanout(benchmark::State& state, bool chunked) {
  bio::TranscriptomeParams params;
  params.families = 24;
  params.protein_min = 100;
  params.protein_max = 250;
  params.seed = 7;
  const auto txm = bio::generate_transcriptome(params);
  const align::BlastxSearch search(txm.proteins);
  common::ThreadPool pool(4);
  for (auto _ : state) {
    if (chunked) {
      benchmark::DoNotOptimize(search.search_all(txm.transcripts, &pool));
    } else {
      std::vector<std::future<std::vector<align::TabularHit>>> futures;
      futures.reserve(txm.transcripts.size());
      for (const auto& t : txm.transcripts) {
        futures.push_back(pool.submit([&search, &t] { return search.search(t); }));
      }
      std::vector<align::TabularHit> all;
      for (auto& f : futures) {
        auto hits = f.get();
        all.insert(all.end(), std::make_move_iterator(hits.begin()),
                   std::make_move_iterator(hits.end()));
      }
      benchmark::DoNotOptimize(all.size());
    }
  }
  state.counters["transcripts"] = static_cast<double>(txm.transcripts.size());
}
BENCHMARK_CAPTURE(BM_BlastxSearchAllFanout, per_item, false);
BENCHMARK_CAPTURE(BM_BlastxSearchAllFanout, chunked, true);

void BM_SixFrameTranslate(benchmark::State& state) {
  common::Rng rng(6);
  std::string dna;
  for (int i = 0; i < 3'000; ++i) dna.push_back(bio::kBases[rng.below(4)]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bio::six_frame_translate(dna));
  }
}
BENCHMARK(BM_SixFrameTranslate);

}  // namespace

BENCHMARK_MAIN();
