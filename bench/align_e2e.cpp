// E2E + kernel benchmark for the fast science kernels (banded SW rewrite,
// two-hit BLASTX seeding, parallel overlap phase).
//
// Full mode sweeps four layers and writes BENCH_align.json:
//   kernel  — banded traceback, banded score-only and full-matrix DP
//             throughput in cells/sec (counted by the kernel itself, so
//             the rates are exact, not estimated);
//   overlap — find_overlaps over synthetic gene fragments, serial vs
//             thread-pool parallel, with pruning statistics and a
//             bit-identity check between the two runs;
//   e2e     — the quality_blast2cap3-shaped pipeline (whole-set CAP3 +
//             blastx + per-cluster CAP3), serial vs parallel;
//   blastx_scaling — pooled BLASTX search_all at 40, 160 and 640
//             families: wall, score-only extensions, DP cells, hits and
//             the process peak RSS after each row.
//
// --smoke runs the CI perf guard instead: machine-independent assertions
// on DP cell-count envelopes, score-only == traceback scores,
// serial == parallel overlap identity, AVX2 == scalar kernels (protein,
// and DNA at the overlap band), batch == per-pair score-only,
// serial == pooled BLASTX bytes with pinned DP counts, and BLASTX
// extensions that do not grow per transcript with the database. Exits
// non-zero on violation.
//
// Usage: align_e2e [--smoke] [--out PATH] [--workers N]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "align/blastx.hpp"
#include "align/simd.hpp"
#include "align/sw.hpp"
#include "assembly/cap3.hpp"
#include "b2c3/cluster.hpp"
#include "bio/alphabet.hpp"
#include "bio/transcriptome.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "peak_rss.hpp"

namespace {

using namespace pga;

/// Cores this process may actually run on (the affinity mask, not the
/// machine's nominal core count) — the honest denominator for any
/// parallel-speedup claim. Falls back to hardware_concurrency.
unsigned host_cores() {
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string random_protein(std::size_t n, common::Rng& rng) {
  std::string s;
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) s.push_back(bio::kAminoAcids[rng.below(20)]);
  return s;
}

std::string random_dna(std::size_t n, common::Rng& rng) {
  std::string s;
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) s.push_back(bio::kBases[rng.below(4)]);
  return s;
}

/// Fragments of several synthetic genes — the overlap phase's workload.
std::vector<bio::SeqRecord> gene_fragments(std::size_t genes,
                                           std::size_t fragments_per_gene,
                                           std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<bio::SeqRecord> out;
  for (std::size_t g = 0; g < genes; ++g) {
    const std::string gene = random_dna(1200 + rng.below(600), rng);
    for (std::size_t f = 0; f < fragments_per_gene; ++f) {
      const std::size_t len = 400 + rng.below(500);
      const std::size_t start = rng.below(gene.size() - len + 1);
      out.push_back({"g" + std::to_string(g) + "_f" + std::to_string(f), "",
                     gene.substr(start, len)});
    }
  }
  return out;
}

std::string serialize_overlaps(const std::vector<assembly::Overlap>& overlaps) {
  std::string out;
  for (const auto& ov : overlaps) {
    std::ostringstream line;
    line << ov.a << ' ' << ov.b << ' ' << static_cast<int>(ov.kind) << ' '
         << ov.shift << ' ' << (ov.flipped ? 1 : 0) << ' ' << ov.alignment.score
         << ' ' << ov.alignment.q_begin << ' ' << ov.alignment.q_end << ' '
         << ov.alignment.s_begin << ' ' << ov.alignment.s_end << ' '
         << ov.alignment.matches << ' ' << ov.alignment.mismatches << ' '
         << ov.alignment.gap_opens << ' ' << ov.alignment.gap_residues << '\n';
    out += line.str();
  }
  return out;
}

std::string serialize_assembly(const assembly::AssemblyResult& result) {
  std::string out;
  for (const auto& c : result.contigs) {
    out += ">" + c.id;
    for (const auto& m : c.members) out += " " + m;
    out += '\n' + c.consensus + '\n';
  }
  for (const auto& s : result.singlets) out += "S " + s.id + '\n';
  return out;
}

/// Exactly the cell count the banded kernel reports for a (n, m, diagonal,
/// band) run: sum over rows of the in-band column span.
std::uint64_t expected_cells(long n, long m, long diagonal, long band) {
  band = std::min(band, n + m);
  std::uint64_t cells = 0;
  for (long i = 1; i <= n; ++i) {
    const long lo = std::max(1L, i - diagonal - band);
    const long hi = std::min(m, i - diagonal + band);
    if (lo <= hi) cells += static_cast<std::uint64_t>(hi - lo + 1);
  }
  return cells;
}

// ---------------------------------------------------------------------------
// Kernel throughput: cells/sec for the three DP entry points.

struct KernelResult {
  double banded_cells_per_sec = 0;
  double score_only_cells_per_sec = 0;
  double full_cells_per_sec = 0;
};

template <typename F>
double cells_per_sec_once(F&& run, double min_seconds) {
  align::reset_dp_counters();
  const common::Stopwatch watch;
  double elapsed = 0;
  do {
    run();
    elapsed = watch.seconds();
  } while (elapsed < min_seconds);
  return static_cast<double>(align::dp_counters().cells) / elapsed;
}

// Best-of-3: on a shared host, scheduler preemption during any single
// timing window suppresses the rate arbitrarily; the max over repetitions
// is the stable estimate of what the kernel sustains when it has the core.
template <typename F>
double cells_per_sec(F&& run, double min_seconds) {
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    best = std::max(best, cells_per_sec_once(run, min_seconds));
  }
  return best;
}

/// Measures all three kernels with the dispatch pinned to `level`, so the
/// committed numbers always carry a scalar baseline next to the SIMD rate
/// measured on the same host in the same run.
KernelResult bench_kernels(align::SimdLevel level) {
  align::set_simd_level(level);
  common::Rng rng(11);
  const std::string a = random_protein(2048, rng);
  std::string b = a;
  for (std::size_t i = 0; i < b.size(); i += 10) b[i] = 'A';
  const auto& profile = align::ScoringProfile::protein_blosum62();

  KernelResult r;
  r.banded_cells_per_sec = cells_per_sec(
      [&] { align::banded_align(a, b, profile, 0, 48, {}); }, 0.3);
  r.score_only_cells_per_sec = cells_per_sec(
      [&] { align::banded_score_only(a, b, profile, 0, 48, {}); }, 0.3);
  // Full matrix via an all-covering band on a shorter pair (O(n^2) work).
  const std::string fa = a.substr(0, 512);
  const std::string fb = b.substr(0, 512);
  r.full_cells_per_sec = cells_per_sec(
      [&] { align::smith_waterman(fa, fb); }, 0.3);
  align::reset_simd_level();
  return r;
}

// ---------------------------------------------------------------------------
// Overlap phase: serial vs parallel over the same candidate set.

struct OverlapResult {
  assembly::OverlapStats stats;
  double serial_seconds = 0;
  double parallel_seconds = 0;
  double pairs_per_sec_serial = 0;
  double pairs_per_sec_parallel = 0;
  double speedup = 0;
  bool identical = false;
  std::size_t sequences = 0;
};

OverlapResult bench_overlaps(std::size_t workers) {
  const auto seqs = gene_fragments(4, 24, 21);
  OverlapResult r;
  r.sequences = seqs.size();

  common::Stopwatch watch;
  const auto serial = assembly::find_overlaps(seqs, {}, nullptr, &r.stats);
  r.serial_seconds = watch.seconds();

  common::ThreadPool pool(workers);
  watch.reset();
  const auto parallel = assembly::find_overlaps(seqs, {}, &pool);
  r.parallel_seconds = watch.seconds();

  r.identical = serialize_overlaps(serial) == serialize_overlaps(parallel);
  r.pairs_per_sec_serial =
      static_cast<double>(r.stats.candidate_pairs) / r.serial_seconds;
  r.pairs_per_sec_parallel =
      static_cast<double>(r.stats.candidate_pairs) / r.parallel_seconds;
  r.speedup = r.serial_seconds / r.parallel_seconds;
  return r;
}

// ---------------------------------------------------------------------------
// E2E: the quality_blast2cap3-shaped pipeline, serial vs parallel.

std::string run_pipeline(const bio::Transcriptome& txm, common::ThreadPool* pool) {
  // Whole-set CAP3 baseline.
  const auto whole = assembly::assemble(txm.transcripts, {}, pool);

  // Guided: blastx -> cluster by best hit -> CAP3 per cluster.
  const align::BlastxSearch search(txm.proteins);
  const auto hits = search.search_all(txm.transcripts, pool);
  const auto clusters = b2c3::cluster_by_best_hit(hits);
  std::map<std::string, const bio::SeqRecord*> by_id;
  for (const auto& t : txm.transcripts) by_id[t.id] = &t;

  std::string out = serialize_assembly(whole);
  for (const auto& cluster : clusters.clusters) {
    std::vector<bio::SeqRecord> members;
    for (const auto& id : cluster.transcripts) members.push_back(*by_id.at(id));
    assembly::AssemblyOptions opt;
    opt.prefix = cluster.protein_id + ".Contig";
    out += serialize_assembly(assembly::assemble(members, opt, pool));
  }
  return out;
}

struct E2eResult {
  double serial_seconds = 0;
  double parallel_seconds = 0;
  double speedup = 0;
  bool identical = false;
  std::size_t transcripts = 0;
};

E2eResult bench_e2e(std::size_t workers) {
  bio::TranscriptomeParams params;
  params.families = 12;
  params.protein_min = 100;
  params.protein_max = 200;
  params.fragment_min_frac = 0.6;
  params.repeat_gene_fraction = 0.35;
  params.seed = 1;
  const auto txm = bio::generate_transcriptome(params);

  E2eResult r;
  r.transcripts = txm.transcripts.size();
  common::Stopwatch watch;
  const std::string serial = run_pipeline(txm, nullptr);
  r.serial_seconds = watch.seconds();

  common::ThreadPool pool(workers);
  watch.reset();
  const std::string parallel = run_pipeline(txm, &pool);
  r.parallel_seconds = watch.seconds();

  r.identical = serial == parallel;
  r.speedup = r.serial_seconds / r.parallel_seconds;
  return r;
}

// ---------------------------------------------------------------------------
// BLASTX scaling: pooled search_all over growing perfbench-shaped
// transcriptomes (2 paralogs x 8 fragments per family, 150-residue
// proteins), so transcripts and database proteins grow together.

struct BlastxScalingRow {
  std::size_t families = 0;
  std::size_t transcripts = 0;
  double search_seconds = 0;  ///< median of kBlastxScalingTrials
  double search_seconds_min = 0;
  double search_seconds_max = 0;
  std::uint64_t score_only = 0;
  std::uint64_t cells = 0;
  std::size_t hits = 0;
  double peak_rss_mb = 0;  ///< process peak once the row has run
};

constexpr int kBlastxScalingTrials = 3;

BlastxScalingRow bench_blastx_scaling(std::size_t families, std::size_t workers) {
  bio::TranscriptomeParams params;
  params.families = families;
  params.paralogs_min = params.paralogs_max = 2;
  params.fragments_min = params.fragments_max = 8;
  params.zipf_s = 0;
  params.protein_min = params.protein_max = 150;
  params.fragment_min_frac = 0.6;
  params.repeat_gene_fraction = 0.35;
  params.seed = 7;
  const auto txm = bio::generate_transcriptome(params);
  const align::BlastxSearch search(txm.proteins);
  common::ThreadPool pool(workers);

  BlastxScalingRow row;
  row.families = families;
  row.transcripts = txm.transcripts.size();
  std::vector<double> seconds;
  for (int trial = 0; trial < kBlastxScalingTrials; ++trial) {
    align::reset_dp_counters();
    const common::Stopwatch watch;
    const auto hits = search.search_all(txm.transcripts, &pool);
    seconds.push_back(watch.seconds());
    // The counts are deterministic; every trial reads the same.
    const auto c = align::dp_counters();
    row.score_only = c.score_only;
    row.cells = c.cells;
    row.hits = hits.size();
  }
  std::sort(seconds.begin(), seconds.end());
  row.search_seconds = seconds[seconds.size() / 2];
  row.search_seconds_min = seconds.front();
  row.search_seconds_max = seconds.back();
  row.peak_rss_mb = static_cast<double>(bench::peak_rss_bytes()) / (1024.0 * 1024.0);
  return row;
}

// ---------------------------------------------------------------------------
// Smoke mode: deterministic, machine-independent guards for CI.

/// DP work of the smoke's fixed overlap phase (check 4).
constexpr std::uint64_t kOverlapCells = 8206383;
constexpr std::uint64_t kOverlapTracebacks = 189;
/// DP work of the smoke's fixed BLASTX search (check 8).
constexpr std::uint64_t kBlastxCells = 1949042;
constexpr std::uint64_t kBlastxScoreOnly = 340;
constexpr std::uint64_t kBlastxTracebacks = 271;
/// Check 9: how much a per-transcript or per-pair extension rate may grow
/// from the 12- to the 48-family database, and the ceiling on extensions
/// random diagonals trigger per (transcript, protein) pair.
constexpr double kExtensionGrowth = 1.25;
constexpr double kRandomExtensionsPerPair = 0.1;

/// The smoke BLASTX transcriptome (checks 8 and 9) at `families`.
bio::Transcriptome smoke_transcriptome(std::size_t families) {
  bio::TranscriptomeParams params;
  params.families = families;
  params.protein_min = 100;
  params.protein_max = 200;
  params.fragment_min_frac = 0.6;
  params.seed = 77;
  return bio::generate_transcriptome(params);
}

/// Score-only (gapped) extensions of a serial search_all, split by
/// subject: those on each transcript's own family protein, and the rest,
/// which random diagonals trigger.
struct ExtensionRates {
  std::size_t transcripts = 0;
  double per_transcript = 0;  ///< all extensions / transcripts
  double own_per_transcript = 0;  ///< own-family extensions / transcripts
  double other_per_pair = 0;  ///< the rest / (transcript, other protein) pairs
};

ExtensionRates blastx_extension_rates(std::size_t families) {
  const auto txm = smoke_transcriptome(families);
  const align::BlastxSearch search(txm.proteins);
  align::reset_dp_counters();
  (void)search.search_all(txm.transcripts);
  const std::uint64_t all = align::dp_counters().score_only;

  // A one-protein search extends exactly the diagonals the full search
  // extends on that protein: seeding state and the diagonal cap are per
  // subject, and the E-value's database size only gates tracebacks.
  std::map<std::string, align::BlastxSearch> by_family;
  for (const auto& p : txm.proteins) {
    by_family.emplace(p.id, align::BlastxSearch(std::vector<bio::SeqRecord>{p}));
  }
  align::reset_dp_counters();
  for (const auto& t : txm.transcripts) {
    (void)by_family.at(txm.family_of_transcript(t.id)).search(t);
  }
  const std::uint64_t own = align::dp_counters().score_only;

  ExtensionRates r;
  r.transcripts = txm.transcripts.size();
  const auto n = static_cast<double>(r.transcripts);
  r.per_transcript = static_cast<double>(all) / n;
  r.own_per_transcript = static_cast<double>(own) / n;
  r.other_per_pair = static_cast<double>(all - own) /
                     (n * static_cast<double>(txm.proteins.size() - 1));
  return r;
}

int run_smoke(const std::string& out_path) {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    std::printf("  %-58s %s\n", what, ok ? "ok" : "FAIL");
    if (!ok) ++failures;
  };
  common::Rng rng(77);
  const auto& profile = align::ScoringProfile::protein_blosum62();

  // 1. Cell-count envelope: the banded kernel scores exactly the in-band
  // cells — no quadratic slop — and one traceback is recorded per run.
  {
    const std::string a = random_protein(256, rng);
    const std::string b = random_protein(240, rng);
    align::reset_dp_counters();
    align::banded_align(a, b, profile, 3, 16, {});
    const auto c = align::dp_counters();
    expect(c.cells == expected_cells(256, 240, 3, 16),
           "banded cell count == closed-form in-band cell count");
    expect(c.cells <= 256ull * (2 * 16 + 1), "cell count is O(band*n)");
    expect(c.tracebacks == 1 && c.score_only == 0,
           "one traceback, zero score-only invocations recorded");
  }

  // 2. score_only == traceback score (and end cell) across random pairs.
  {
    bool scores_match = true;
    for (int t = 0; t < 50 && scores_match; ++t) {
      const std::string q = random_protein(40 + rng.below(200), rng);
      std::string s = q;
      for (std::size_t i = 0; i < s.size(); i += 7) {
        s[i] = bio::kAminoAcids[rng.below(20)];
      }
      const long diag = static_cast<long>(rng.below(9)) - 4;
      const auto so = align::banded_score_only(q, s, profile, diag, 24, {});
      const auto full = align::banded_align(q, s, profile, diag, 24, {});
      scores_match = so.score == full.score &&
                     (so.score == 0 ||
                      (so.q_end == full.q_end && so.s_end == full.s_end));
    }
    expect(scores_match, "score-only score/end == traceback score/end (50 pairs)");
  }

  // 3. Covering band == full matrix.
  {
    bool equal = true;
    for (int t = 0; t < 10 && equal; ++t) {
      const std::string q = random_protein(30 + rng.below(90), rng);
      const std::string s = random_protein(30 + rng.below(90), rng);
      const auto full = align::smith_waterman(q, s);
      const auto banded = align::banded_smith_waterman(
          q, s, 0, q.size() + s.size());
      equal = full.score == banded.score && full.q_begin == banded.q_begin &&
              full.q_end == banded.q_end && full.s_begin == banded.s_begin &&
              full.s_end == banded.s_end;
    }
    expect(equal, "covering band reproduces the full-matrix alignment");
  }

  // 4. Parallel overlap phase is bit-identical to serial, the pruning
  // counters account for every candidate, and the phase's DP work is
  // pinned: the per-pair and the batched traceback kernels count the same
  // cells, so these hold at every dispatch level.
  {
    const auto seqs = gene_fragments(3, 12, 5);
    assembly::OverlapStats stats;
    align::reset_dp_counters();
    const auto serial = assembly::find_overlaps(seqs, {}, nullptr, &stats);
    const auto c = align::dp_counters();
    std::printf("  overlap dp: cells=%llu tracebacks=%llu score_only=%llu\n",
                static_cast<unsigned long long>(c.cells),
                static_cast<unsigned long long>(c.tracebacks),
                static_cast<unsigned long long>(c.score_only));
    expect(stats.pruned + stats.tracebacks == stats.candidate_pairs,
           "pruned + tracebacks == candidate pairs");
    expect(stats.accepted == serial.size(), "accepted counter == overlaps kept");
    expect(c.cells == kOverlapCells && c.tracebacks == kOverlapTracebacks &&
               c.score_only == 0 && stats.tracebacks == kOverlapTracebacks,
           "overlap DP cells / tracebacks == pinned counts");
    bool identical = true;
    bool same_work = true;
    for (const std::size_t workers : {2u, 5u}) {
      common::ThreadPool pool(workers);
      align::reset_dp_counters();
      const auto parallel = assembly::find_overlaps(seqs, {}, &pool);
      const auto pc = align::dp_counters();
      identical = identical &&
                  serialize_overlaps(serial) == serialize_overlaps(parallel);
      same_work = same_work && pc.cells == c.cells && pc.tracebacks == c.tracebacks &&
                  pc.score_only == c.score_only;
    }
    expect(identical, "parallel overlaps bit-identical to serial (2 and 5 workers)");
    expect(same_work, "parallel overlap DP counters == serial");
    // The score floor really is a lower bound for everything accepted.
    bool floor_holds = true;
    for (const auto& ov : serial) {
      const std::size_t cap =
          seqs[ov.a].seq.size() + seqs[ov.b].seq.size();
      floor_holds =
          floor_holds && ov.alignment.score >= assembly::min_acceptable_score(
                                                   assembly::OverlapParams{}, cap);
    }
    expect(floor_holds, "accepted overlaps all score >= pruning floor");
  }

  // 5. Under cutoffs strict enough to activate score-only pruning (the
  // CAP3 defaults keep it off: the bound sits below the k-mer anchor's
  // guaranteed score), pruning skips tracebacks without changing the
  // result.
  {
    const auto seqs = gene_fragments(3, 12, 5);
    assembly::OverlapParams strict;
    strict.min_overlap = 300;
    strict.min_identity = 95.0;
    assembly::OverlapStats pruned_stats;
    const auto pruned =
        assembly::find_overlaps(seqs, strict, nullptr, &pruned_stats);
    assembly::OverlapParams no_prune = strict;
    no_prune.score_prune = false;
    assembly::OverlapStats full_stats;
    const auto unpruned =
        assembly::find_overlaps(seqs, no_prune, nullptr, &full_stats);
    expect(serialize_overlaps(pruned) == serialize_overlaps(unpruned),
           "score-pruned run == unpruned run under strict cutoffs");
    expect(pruned_stats.pruned > 0 &&
               pruned_stats.tracebacks < full_stats.tracebacks,
           "pruning actually skipped tracebacks");
  }

  // 6. SIMD vs scalar dispatch: identical kernels and identical overlap
  // output no matter which path ran. On hosts without AVX2 both forced
  // levels resolve to scalar and the checks still hold (trivially).
  {
    const bool have_avx2 = align::cpu_supports_avx2();
    // One pair on both levels: score-only and traceback results must agree.
    const auto levels_agree = [](const std::string& q, const std::string& s,
                                 const align::ScoringProfile& prof, long diag,
                                 std::size_t band, const align::GapPenalties& gaps) {
      align::set_simd_level(align::SimdLevel::kScalar);
      const auto sc_so = align::banded_score_only(q, s, prof, diag, band, gaps);
      const auto sc_aln = align::banded_align(q, s, prof, diag, band, gaps);
      align::set_simd_level(align::SimdLevel::kAvx2);
      const auto vx_so = align::banded_score_only(q, s, prof, diag, band, gaps);
      const auto vx_aln = align::banded_align(q, s, prof, diag, band, gaps);
      align::reset_simd_level();
      return sc_so.score == vx_so.score && sc_so.q_end == vx_so.q_end &&
             sc_so.s_end == vx_so.s_end && sc_aln.score == vx_aln.score &&
             sc_aln.q_begin == vx_aln.q_begin && sc_aln.q_end == vx_aln.q_end &&
             sc_aln.s_begin == vx_aln.s_begin && sc_aln.s_end == vx_aln.s_end &&
             sc_aln.matches == vx_aln.matches &&
             sc_aln.mismatches == vx_aln.mismatches &&
             sc_aln.gap_opens == vx_aln.gap_opens &&
             sc_aln.gap_residues == vx_aln.gap_residues;
    };
    bool kernels_equal = true;
    for (int t = 0; t < 25 && kernels_equal; ++t) {
      const std::string q = random_protein(30 + rng.below(300), rng);
      const std::string s = random_protein(30 + rng.below(300), rng);
      const long diag = static_cast<long>(rng.below(33)) - 16;
      kernels_equal = levels_agree(q, s, profile, diag, 24, {});
    }
    expect(kernels_equal,
           have_avx2 ? "avx2 kernel byte-equivalent to scalar (25 pairs)"
                     : "scalar fallback self-consistent (host lacks AVX2)");

    // DNA at the overlap phase's band (48), on related fragments so the
    // band holds long alignments with gaps. Own generator: the draws of
    // the checks after this one stay as they were.
    common::Rng dna_rng(48);
    const auto dna_profile = align::ScoringProfile::dna(1, -2);
    bool dna_equal = true;
    for (int t = 0; t < 25 && dna_equal; ++t) {
      const std::string gene = random_dna(900, dna_rng);
      const std::string q = gene.substr(dna_rng.below(300), 400);
      std::string s = gene.substr(dna_rng.below(300), 400);
      for (std::size_t i = dna_rng.below(20); i < s.size(); i += 23) s[i] = 'A';
      s.erase(dna_rng.below(300), dna_rng.below(4));
      const long diag = static_cast<long>(dna_rng.below(61)) - 30;
      dna_equal = levels_agree(q, s, dna_profile, diag, 48, {6, 1});
    }
    expect(dna_equal, have_avx2 ? "avx2 DNA kernel == scalar at band 48 (25 pairs)"
                                : "scalar DNA fallback self-consistent");

    // A score-only batch equals the per-pair calls, results and counters.
    common::Rng batch_rng(12);
    const std::string query = random_protein(150, batch_rng);
    std::vector<std::string> subjects;
    for (int k = 0; k < 40; ++k) {
      subjects.push_back(k % 8 == 0 ? random_protein(5, batch_rng)
                                    : query.substr(batch_rng.below(60)) +
                                          random_protein(batch_rng.below(80), batch_rng));
    }
    const align::PreparedSeq prepared_query(query, profile);
    std::vector<align::PreparedSeq> prepared(subjects.size());
    std::vector<align::ScoreOnlyCandidate> candidates;
    for (std::size_t k = 0; k < subjects.size(); ++k) {
      prepared[k].assign(subjects[k], profile);
      candidates.push_back(
          {&prepared[k], static_cast<long>(batch_rng.below(41)) - 20});
    }
    align::reset_dp_counters();
    std::vector<align::ScoreOnlyResult> single;
    for (const auto& c : candidates) {
      single.push_back(align::banded_score_only(prepared_query, *c.subject, profile,
                                                c.diagonal, 12, {}));
    }
    const auto single_counters = align::dp_counters();
    align::reset_dp_counters();
    std::vector<align::ScoreOnlyResult> batched(candidates.size());
    align::banded_score_only_batch(prepared_query, candidates, profile, 12, {},
                                   batched);
    const auto batch_counters = align::dp_counters();
    bool batch_equal = batch_counters.cells == single_counters.cells &&
                       batch_counters.score_only == single_counters.score_only;
    for (std::size_t k = 0; k < candidates.size(); ++k) {
      batch_equal = batch_equal && batched[k].score == single[k].score &&
                    batched[k].q_end == single[k].q_end &&
                    batched[k].s_end == single[k].s_end;
    }
    expect(batch_equal, "score-only batch == per-pair calls (40 candidates)");

    const auto seqs = gene_fragments(3, 12, 9);
    align::set_simd_level(align::SimdLevel::kScalar);
    const auto scalar_ov = assembly::find_overlaps(seqs);
    align::set_simd_level(align::SimdLevel::kAvx2);
    common::ThreadPool pool(2);
    const auto simd_ov = assembly::find_overlaps(seqs, {}, &pool);
    align::reset_simd_level();
    expect(serialize_overlaps(scalar_ov) == serialize_overlaps(simd_ov),
           "overlaps byte-identical across dispatch paths");
  }

  // 7. Per-thread counters merge: a pool fan-out tallies exactly the
  // serial cell count times the fan-out.
  {
    const std::string q = random_protein(300, rng);
    const std::string s = random_protein(310, rng);
    align::reset_dp_counters();
    align::banded_score_only(q, s, profile, 0, 16, {});
    const auto one = align::dp_counters();
    align::reset_dp_counters();
    common::ThreadPool pool(4);
    pool.parallel_for(8, 1, [&](std::size_t, std::size_t, std::size_t) {
      align::banded_score_only(q, s, profile, 0, 16, {});
    });
    const auto merged = align::dp_counters();
    expect(merged.cells == 8 * one.cells && merged.score_only == 8,
           "per-thread DpCounters merge to the exact pool-run total");
  }

  // 8. BLASTX: the pooled search_all is byte-identical to serial, the
  // traceback gate runs at most one traceback per score-only winner, and
  // the DP work on this fixed transcriptome is pinned exactly. The counts
  // are the same on the scalar and AVX2 kernels; a change to seeding, the
  // neighborhood table or the gate moves them.
  {
    const auto txm = smoke_transcriptome(12);
    const align::BlastxSearch search(txm.proteins);
    const auto tabular = [](const std::vector<align::TabularHit>& hits) {
      std::string text;
      for (const auto& h : hits) text += align::format_tabular(h) + '\n';
      return text;
    };
    align::reset_dp_counters();
    const std::string serial = tabular(search.search_all(txm.transcripts));
    const auto c = align::dp_counters();
    align::reset_dp_counters();
    common::ThreadPool pool(3);
    const std::string pooled = tabular(search.search_all(txm.transcripts, &pool));
    const auto pc = align::dp_counters();
    std::printf("  blastx dp: cells=%llu score_only=%llu tracebacks=%llu\n",
                static_cast<unsigned long long>(c.cells),
                static_cast<unsigned long long>(c.score_only),
                static_cast<unsigned long long>(c.tracebacks));
    expect(!serial.empty() && pooled == serial, "blastx pooled search_all bytes == serial");
    expect(pc.cells == c.cells && pc.score_only == c.score_only &&
               pc.tracebacks == c.tracebacks,
           "blastx pooled DP counters == serial");
    expect(c.tracebacks <= c.score_only, "blastx tracebacks <= score-only calls");
    expect(c.cells == kBlastxCells && c.score_only == kBlastxScoreOnly &&
               c.tracebacks == kBlastxTracebacks,
           "blastx DP cells / score-only / tracebacks == pinned counts");
  }

  // 9. BLASTX extensions follow the hits, not the database. From 12 to 48
  // families, the extensions on a transcript's own family protein stay
  // put, and the extensions random diagonals trigger on other proteins
  // stay a small rate per (transcript, protein) pair: per transcript they
  // grow at most linearly in database size, as BLAST's random triggers
  // do. Exhaustive two-seed seeding ran about 22 extensions per pair.
  {
    const ExtensionRates small = blastx_extension_rates(12);
    const ExtensionRates large = blastx_extension_rates(48);
    for (const ExtensionRates* r : {&small, &large}) {
      std::printf("  blastx extensions: %zu transcripts, %.3f per transcript "
                  "(own family %.3f), %.4f per other-protein pair\n",
                  r->transcripts, r->per_transcript, r->own_per_transcript,
                  r->other_per_pair);
    }
    expect(large.own_per_transcript <= kExtensionGrowth * small.own_per_transcript,
           "blastx own-family extensions/transcript 48 vs 12 fam <= 1.25x");
    expect(large.other_per_pair <= kExtensionGrowth * small.other_per_pair,
           "blastx random extensions/pair 48 vs 12 fam <= 1.25x");
    expect(small.other_per_pair <= kRandomExtensionsPerPair &&
               large.other_per_pair <= kRandomExtensionsPerPair,
           "blastx random extensions <= 0.1 per pair");
  }

  std::ofstream out(out_path);
  out << "{\n  \"benchmark\": \"align_e2e\",\n  \"mode\": \"smoke\",\n"
      << "  \"simd_isa\": \"" << align::active_simd_isa() << "\",\n"
      << "  \"failures\": " << failures << "\n}\n";
  std::printf("align_e2e smoke [%s]: %s\n", align::active_simd_isa(),
              failures == 0 ? "OK" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path;
  const unsigned cores = host_cores();
  // Default to the 8-worker configuration the acceptance numbers are
  // quoted at, clamped to what this host can actually run in parallel.
  std::size_t workers = std::min<std::size_t>(8, cores);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--workers" && i + 1 < argc) {
      workers = std::stoul(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: align_e2e [--smoke] [--out PATH] [--workers N]\n");
      return 2;
    }
  }
  if (out_path.empty()) out_path = smoke ? "BENCH_align_smoke.json" : "BENCH_align.json";
  if (smoke) return run_smoke(out_path);

  // Honesty guard: oversubscribed "parallel speedup" numbers (more
  // workers than schedulable cores) are noise, not results. Refuse to
  // write a full-mode BENCH file rather than commit them.
  if (workers > cores) {
    std::fprintf(stderr,
                 "align_e2e: refusing full benchmark with %zu workers on %u "
                 "schedulable core(s); rerun with --workers <= %u\n",
                 workers, cores, cores);
    return 2;
  }

  std::printf("== align/assembly kernel + e2e benchmark ==\n");
  std::printf("host_cores %u, workers %zu, dispatch %s (avx2 %s)\n", cores,
              workers, align::active_simd_isa(),
              align::cpu_supports_avx2() ? "supported" : "unavailable");
  const auto kernel = bench_kernels(align::active_simd_level());
  const auto kernel_scalar = bench_kernels(align::SimdLevel::kScalar);
  std::printf("kernel[%s]: banded %.1fM cells/s, score-only %.1fM cells/s, full %.1fM cells/s\n",
              align::active_simd_isa(),
              kernel.banded_cells_per_sec / 1e6, kernel.score_only_cells_per_sec / 1e6,
              kernel.full_cells_per_sec / 1e6);
  std::printf("kernel[scalar]: banded %.1fM cells/s, score-only %.1fM cells/s, full %.1fM cells/s\n",
              kernel_scalar.banded_cells_per_sec / 1e6,
              kernel_scalar.score_only_cells_per_sec / 1e6,
              kernel_scalar.full_cells_per_sec / 1e6);
  const auto overlap = bench_overlaps(workers);
  std::printf("overlap: %zu candidates, %zu pruned, serial %.2fs, parallel %.2fs "
              "(x%.2f, identical=%s)\n",
              overlap.stats.candidate_pairs, overlap.stats.pruned,
              overlap.serial_seconds, overlap.parallel_seconds, overlap.speedup,
              overlap.identical ? "yes" : "NO");
  const auto e2e = bench_e2e(workers);
  std::printf("e2e: serial %.2fs, parallel %.2fs (x%.2f, identical=%s)\n",
              e2e.serial_seconds, e2e.parallel_seconds, e2e.speedup,
              e2e.identical ? "yes" : "NO");
  // Read before the scaling rows, so peak_rss_mb keeps measuring the
  // kernel, overlap and e2e layers; each row reports its own mark.
  const double peak_rss_mb =
      static_cast<double>(bench::peak_rss_bytes()) / (1024.0 * 1024.0);
  std::vector<BlastxScalingRow> scaling;
  for (const std::size_t families : {40, 160, 640}) {
    const BlastxScalingRow& row = scaling.emplace_back(bench_blastx_scaling(families, workers));
    std::printf("blastx %zu families: %zu transcripts, search %.3fs (%.1f us/transcript), "
                "%llu score-only, %llu cells, %zu hits\n",
                row.families, row.transcripts, row.search_seconds,
                1e6 * row.search_seconds / static_cast<double>(row.transcripts),
                static_cast<unsigned long long>(row.score_only),
                static_cast<unsigned long long>(row.cells), row.hits);
  }

  std::ofstream out(out_path);
  char buf[4096];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"benchmark\": \"align_e2e\",\n"
      "  \"mode\": \"full\",\n"
      "  \"host_cores\": %u,\n"
      "  \"workers\": %zu,\n"
      "  \"simd_isa\": \"%s\",\n"
      "  \"avx2_supported\": %s,\n"
      "  \"kernel\": {\n"
      "    \"banded_cells_per_sec\": %.0f,\n"
      "    \"score_only_cells_per_sec\": %.0f,\n"
      "    \"full_cells_per_sec\": %.0f\n"
      "  },\n"
      "  \"kernel_scalar\": {\n"
      "    \"banded_cells_per_sec\": %.0f,\n"
      "    \"score_only_cells_per_sec\": %.0f,\n"
      "    \"full_cells_per_sec\": %.0f\n"
      "  },\n"
      "  \"overlap\": {\n"
      "    \"sequences\": %zu,\n"
      "    \"candidate_pairs\": %zu,\n"
      "    \"pruned\": %zu,\n"
      "    \"tracebacks\": %zu,\n"
      "    \"accepted\": %zu,\n"
      "    \"serial_seconds\": %.4f,\n"
      "    \"parallel_seconds\": %.4f,\n"
      "    \"pairs_per_sec_serial\": %.1f,\n"
      "    \"pairs_per_sec_parallel\": %.1f,\n"
      "    \"parallel_speedup\": %.2f,\n"
      "    \"parallel_identical\": %s\n"
      "  },\n"
      "  \"e2e\": {\n"
      "    \"transcripts\": %zu,\n"
      "    \"serial_seconds\": %.4f,\n"
      "    \"parallel_seconds\": %.4f,\n"
      "    \"speedup\": %.2f,\n"
      "    \"identical\": %s\n"
      "  },\n",
      cores, workers, align::active_simd_isa(),
      align::cpu_supports_avx2() ? "true" : "false",
      kernel.banded_cells_per_sec, kernel.score_only_cells_per_sec,
      kernel.full_cells_per_sec, kernel_scalar.banded_cells_per_sec,
      kernel_scalar.score_only_cells_per_sec,
      kernel_scalar.full_cells_per_sec,
      overlap.sequences, overlap.stats.candidate_pairs,
      overlap.stats.pruned, overlap.stats.tracebacks, overlap.stats.accepted,
      overlap.serial_seconds, overlap.parallel_seconds,
      overlap.pairs_per_sec_serial, overlap.pairs_per_sec_parallel,
      overlap.speedup, overlap.identical ? "true" : "false", e2e.transcripts,
      e2e.serial_seconds, e2e.parallel_seconds, e2e.speedup,
      e2e.identical ? "true" : "false");
  out << buf;
  out << "  \"blastx_scaling\": [\n";
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    const BlastxScalingRow& row = scaling[i];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"families\": %zu, \"transcripts\": %zu, "
        "\"search_s\": %.4f, \"search_s_min\": %.4f, \"search_s_max\": %.4f, "
        "\"search_us_per_transcript\": %.1f, \"score_only\": %llu, "
        "\"dp_cells\": %llu, \"hits\": %zu, \"peak_rss_mb\": %.1f}%s\n",
        row.families, row.transcripts, row.search_seconds,
        row.search_seconds_min, row.search_seconds_max,
        1e6 * row.search_seconds / static_cast<double>(row.transcripts),
        static_cast<unsigned long long>(row.score_only),
        static_cast<unsigned long long>(row.cells), row.hits, row.peak_rss_mb,
        i + 1 < scaling.size() ? "," : "");
    out << buf;
  }
  std::snprintf(buf, sizeof(buf), "  ],\n  \"peak_rss_mb\": %.1f\n}\n", peak_rss_mb);
  out << buf;
  std::printf("wrote %s\n", out_path.c_str());

  const bool ok = overlap.identical && e2e.identical;
  return ok ? 0 : 1;
}
