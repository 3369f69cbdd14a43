// Microbenchmarks for the bioinformatics substrate: FASTA parsing,
// transcriptome generation and read simulation.
#include <benchmark/benchmark.h>

#include "bio/fasta.hpp"
#include "bio/fastq.hpp"
#include "bio/transcriptome.hpp"

namespace {

using namespace pga;

bio::Transcriptome sample_txm(std::size_t families) {
  bio::TranscriptomeParams params;
  params.families = families;
  params.protein_min = 100;
  params.protein_max = 250;
  params.seed = 1;
  return bio::generate_transcriptome(params);
}

void BM_GenerateTranscriptome(benchmark::State& state) {
  bio::TranscriptomeParams params;
  params.families = static_cast<std::size_t>(state.range(0));
  params.seed = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bio::generate_transcriptome(params));
  }
}
BENCHMARK(BM_GenerateTranscriptome)->Arg(10)->Arg(50)->Arg(200);

void BM_FastaRoundTrip(benchmark::State& state) {
  const auto txm = sample_txm(static_cast<std::size_t>(state.range(0)));
  const std::string text = bio::format_fasta(txm.transcripts, 70);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bio::parse_fasta(text));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_FastaRoundTrip)->Arg(10)->Arg(50);

void BM_SimulateReads(benchmark::State& state) {
  const auto txm = sample_txm(20);
  for (auto _ : state) {
    common::Rng rng(3);
    benchmark::DoNotOptimize(bio::simulate_reads(txm, 20, 100, rng));
  }
}
BENCHMARK(BM_SimulateReads);

}  // namespace

BENCHMARK_MAIN();
