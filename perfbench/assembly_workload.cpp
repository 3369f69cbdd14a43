// `assembly`: the paper's protein-guided assembly, computed for real.
//
// Setup generates a seeded transcriptome and writes it as FASTA. One pass
// is the three steps a user runs: (1) whole-set CAP3, the §II baseline;
// (2) BLASTX of the transcripts against the protein DB on a thread pool,
// written as outfmt-6; (3) the Fig. 2 DAG executed by the DAGMan engine on
// a LocalService with as many slots as pool workers. A serial reference
// (no pool, one slot) runs once before timing; every timed pass must
// reproduce its bytes.
#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "align/blastx.hpp"
#include "align/sw.hpp"
#include "align/tabular.hpp"
#include "assembly/cap3.hpp"
#include "assembly/metrics.hpp"
#include "bio/fasta.hpp"
#include "bio/transcriptome.hpp"
#include "common/digest.hpp"
#include "common/fsutil.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "core/local_run.hpp"
#include "host.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using namespace pga;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Input size. The full setting has ~1,500 transcripts; the smoke setting
// is a few dozen.
constexpr std::size_t kFamilies = 20;
constexpr std::size_t kSmokeFamilies = 3;
constexpr std::size_t kChunks = 16;  // Fig. 2 split width

struct Inputs {
  bio::Transcriptome txm;
  fs::path fasta;
};

Inputs make_inputs(std::uint64_t seed, std::size_t families, const fs::path& dir) {
  bio::TranscriptomeParams params;
  params.families = families;
  // Fixed paralog and fragment counts and rank-ordered (not Zipf-drawn)
  // expression: every seed yields the same number of transcripts, so the
  // work per pass barely depends on the seed.
  params.paralogs_min = params.paralogs_max = 2;
  params.fragments_min = params.fragments_max = 8;
  params.zipf_s = 0;
  params.protein_min = 150;
  params.protein_max = 150;
  params.fragment_min_frac = 0.6;
  params.repeat_gene_fraction = 0.35;  // the fusion trap of §II
  params.seed = seed;
  Inputs in;
  in.txm = bio::generate_transcriptome(params);
  in.fasta = dir / "transcripts.fasta";
  bio::write_fasta_file(in.fasta, in.txm.transcripts);
  return in;
}

std::string serialize_assembly(const assembly::AssemblyResult& result) {
  std::string out;
  for (const auto& contig : result.contigs) {
    out += ">" + contig.id;
    for (const auto& member : contig.members) out += " " + member;
    out += '\n' + contig.consensus + '\n';
  }
  for (const auto& singlet : result.singlets) out += "S " + singlet.id + '\n';
  return out;
}

/// The guided assembly as an AssemblyResult, rebuilt from the run's
/// members/joined/unjoined files so compute_metrics can count fusions.
assembly::AssemblyResult read_guided(const fs::path& ws, std::size_t chunks) {
  std::map<std::string, std::string> consensus;
  for (auto& record : bio::read_fasta_file(ws / "joined.fasta")) {
    consensus[record.id] = std::move(record.seq);
  }
  assembly::AssemblyResult guided;
  for (std::size_t i = 0; i < chunks; ++i) {
    for (const auto& line :
         common::read_lines(ws / ("members_" + std::to_string(i) + ".txt"))) {
      if (line.empty()) continue;
      const auto fields = common::split(line, '\t');
      if (fields.size() != 2) continue;
      assembly::Contig contig;
      contig.id = fields[0];
      contig.consensus = consensus[contig.id];
      contig.members = common::split(fields[1], ',');
      guided.contigs.push_back(std::move(contig));
    }
  }
  guided.singlets = bio::read_fasta_file(ws / "unjoined.fasta");
  return guided;
}

/// What one pass produced, plus the counters a traced pass reads.
struct PassResult {
  assembly::AssemblyResult whole;
  std::vector<align::TabularHit> hits;
  wms::RunReport local;
  assembly::OverlapStats overlap_stats;
  std::uint64_t dp_cells = 0;
};

/// One pass of the three steps on `p` threads. ThreadPool::parallel_for
/// also runs chunks on the calling thread, so steps (1) and (2) get a pool
/// of p - 1 workers; it is torn down before step (3), whose LocalService
/// starts its own p slots. No more than p threads are ever busy. Traced,
/// step (1) calls find_overlaps and assemble_with_overlaps separately so
/// overlap and layout get their own spans; untraced it calls assemble().
PassResult run_pass(const Inputs& in, const fs::path& dir, std::size_t p,
                    std::size_t chunks, Tracer& tracer) {
  const auto& transcripts = in.txm.transcripts;
  PassResult out;
  Tracer::Span pass(tracer, "pass");
  {
    std::optional<common::ThreadPool> workers;
    if (p > 1) workers.emplace(p - 1);
    common::ThreadPool* pool = workers ? &*workers : nullptr;
    if (tracer.enabled()) {
      std::vector<assembly::Overlap> overlaps;
      {
        Tracer::Span span(tracer, "assembly.overlap");
        overlaps = assembly::find_overlaps(transcripts, {}, pool, &out.overlap_stats);
      }
      Tracer::Span span(tracer, "assembly.layout");
      out.whole = assembly::assemble_with_overlaps(transcripts, overlaps, {});
    } else {
      out.whole = assembly::assemble(transcripts, {}, pool);
    }

    std::optional<align::BlastxSearch> search;
    {
      Tracer::Span span(tracer, "align.index");
      search.emplace(in.txm.proteins);
    }
    if (tracer.enabled()) align::reset_dp_counters();
    Tracer::Span span(tracer, "align.search");
    out.hits = search->search_all(transcripts, pool);
  }
  if (tracer.enabled()) out.dp_cells = align::dp_counters().cells;
  {
    Tracer::Span span(tracer, "io.write_tabular");
    align::write_tabular_file(dir / "alignments.tsv", out.hits);
  }

  core::LocalRunConfig config;
  config.workspace = dir / "local";
  config.n = chunks;
  config.slots = p;
  Tracer::Span span(tracer, "core.local_run");
  out.local =
      core::run_blast2cap3_locally(in.fasta, dir / "alignments.tsv", config).report;
  return out;
}

/// The bytes every pass must reproduce.
struct Outputs {
  std::string whole;
  std::string hits;
  std::string guided;
};

Outputs outputs_of(const PassResult& pass, const fs::path& dir) {
  Outputs out;
  out.whole = serialize_assembly(pass.whole);
  std::ostringstream hits;
  align::write_tabular(hits, pass.hits);
  out.hits = hits.str();
  out.guided = common::read_file(dir / "local" / "assembly.fasta");
  return out;
}

void fresh_workspace(const fs::path& dir) {
  fs::remove_all(dir / "local");
  fs::create_directories(dir / "local");
}

}  // namespace

void run_assembly(const RunOptions& options, Tracer& tracer, Report& report) {
  const fs::path dir = options.work_dir / "assembly";
  fs::create_directories(dir);
  const std::size_t families = options.smoke ? kSmokeFamilies : kFamilies;
  const std::size_t chunks = options.smoke ? 4 : kChunks;
  const std::size_t threads = std::min<std::size_t>(4, probe_host().cores);

  std::optional<Inputs> inputs;
  std::vector<double> setup_times;
  // Set-up runs before the reference and again before every timed pass
  // (same seed, same inputs), so its samples span the whole run.
  const auto set_up = [&](Tracer& t) {
    Tracer::Span span(t, "setup");
    inputs = make_inputs(options.seed, families, dir);
    setup_times.push_back(span.elapsed());
  };
  set_up(tracer);
  const std::size_t transcripts = inputs->txm.transcripts.size();
  report.note("assembly: " + std::to_string(transcripts) + " transcripts, " +
              std::to_string(inputs->txm.proteins.size()) + " proteins, " +
              std::to_string(chunks) + " chunks, P=" + std::to_string(threads));

  // Serial reference: no pool, one local slot. Also the warm-up pass.
  Tracer untraced(false);
  fresh_workspace(dir);
  const PassResult reference = run_pass(*inputs, dir, 1, chunks, untraced);
  const Outputs expected = outputs_of(reference, dir);
  const auto whole_metrics = assembly::compute_metrics(transcripts, reference.whole,
                                                       inputs->txm.transcript_gene);
  const auto guided_metrics = assembly::compute_metrics(
      transcripts, read_guided(dir / "local", chunks), inputs->txm.transcript_gene);
  report.check(reference.local.success, "serial Fig. 2 run succeeded");
  report.check(!expected.guided.empty(), "assembly.fasta is non-empty");
  report.check(guided_metrics.fused_sequences <= whole_metrics.fused_sequences,
               "guided fused sequences <= whole-set fused sequences");
  report.note("assembly: fused sequences guided=" +
              std::to_string(guided_metrics.fused_sequences) +
              " whole-set=" + std::to_string(whole_metrics.fused_sequences) +
              ", outputs guided=" + std::to_string(guided_metrics.output_sequences) +
              " whole-set=" + std::to_string(whole_metrics.output_sequences) +
              ", output digest " + std::to_string(common::fnv1a(expected.guided)));

  // A timed pass, checked against the serial reference byte for byte.
  const auto timed_pass = [&](Tracer& t, std::vector<double>& walls) {
    set_up(t);
    fresh_workspace(dir);
    const auto start = Clock::now();
    PassResult pass = run_pass(*inputs, dir, threads, chunks, t);
    walls.push_back(seconds_since(start));
    const Outputs got = outputs_of(pass, dir);
    const bool ok = pass.local.success && got.whole == expected.whole &&
                    got.hits == expected.hits && got.guided == expected.guided;
    report.check(ok, "pooled outputs byte-identical to the serial reference");
    ++report.attempted;
    if (!ok) ++report.failed;
    return pass;
  };

  std::vector<double> walls;
  if (!options.trace) {
    repeat_for(options.seconds, 3, [&] { timed_pass(untraced, walls); });
    // The median pass: the pooled pass needs every core at once, so its
    // fast tail is luck in the pool's scheduling, not a steadier figure.
    const double wall = median(walls);
    report.note(describe("setup_s", setup_times));
    report.note(describe("wall_s", walls));
    report.metric("setup_s", median(setup_times), "s");
    report.metric("wall_s", wall, "s");
    report.metric("items_per_s", static_cast<double>(transcripts) / wall, "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Traced: untraced passes (the overhead baseline) alternate with traced
  // ones, so both see the same host conditions; each traced pass is
  // followed by serial reruns of the pooled phases for the pool efficiency.
  std::vector<double> traced_walls;
  Samples samples;
  std::vector<double> efficiency, search_efficiency, overlap_efficiency;
  repeat_for(options.seconds, 2, [&] {
    timed_pass(untraced, walls);
    const PassResult pass = timed_pass(tracer, traced_walls);
    const double overlap_s = tracer.last_seconds("assembly.overlap");
    const double search_s = tracer.last_seconds("align.search");
    samples.add("align.index_s", tracer.last_seconds("align.index"), "s");
    samples.add("align.search_s", search_s, "s");
    samples.add("align.dp_cells", static_cast<double>(pass.dp_cells), "count");
    samples.add("align.cells_per_s", static_cast<double>(pass.dp_cells) / search_s,
                "1/s");
    samples.add("align.hits", static_cast<double>(pass.hits.size()), "count");
    samples.add("assembly.overlap_s", overlap_s, "s");
    samples.add("assembly.layout_s", tracer.last_seconds("assembly.layout"), "s");
    const auto& stats = pass.overlap_stats;
    samples.add("assembly.candidate_pairs", static_cast<double>(stats.candidate_pairs),
                "count");
    samples.add("assembly.accepted", static_cast<double>(stats.accepted), "count");
    samples.add("assembly.accept_ratio",
                stats.candidate_pairs == 0
                    ? 0.0
                    : static_cast<double>(stats.accepted) /
                          static_cast<double>(stats.candidate_pairs),
                "ratio");
    samples.add("core.local_run_s", tracer.last_seconds("core.local_run"), "s");
    double cap3_exec = 0, other_exec = 0, wait = 0;
    for (const auto& job : pass.local.runs) {
      for (const auto& attempt : job.attempts) {
        (job.transformation == "run_cap3" ? cap3_exec : other_exec) +=
            attempt.exec_seconds;
        wait += attempt.wait_seconds;
      }
    }
    samples.add("wms.local.run_cap3_exec_s", cap3_exec, "s");
    samples.add("wms.local.other_exec_s", other_exec, "s");
    samples.add("wms.local.wait_s", wait, "s");

    // T_serial / (P * T_pooled) for the overlap and search phases.
    double serial_overlap = 0, serial_search = 0;
    {
      Tracer::Span span(tracer, "pool.serial_overlap");
      (void)assembly::find_overlaps(inputs->txm.transcripts, {}, nullptr);
      serial_overlap = span.elapsed();
    }
    {
      const align::BlastxSearch search(inputs->txm.proteins);
      Tracer::Span span(tracer, "pool.serial_search");
      (void)search.search_all(inputs->txm.transcripts, nullptr);
      serial_search = span.elapsed();
    }
    const double p = static_cast<double>(threads);
    overlap_efficiency.push_back(serial_overlap / (p * overlap_s));
    search_efficiency.push_back(serial_search / (p * search_s));
    efficiency.push_back((serial_overlap + serial_search) /
                         (p * (overlap_s + search_s)));
    report.note("pool.efficiency pass " + std::to_string(efficiency.size()) + ": " +
                json_number(efficiency.back()) + " (overlap " +
                json_number(overlap_efficiency.back()) + ", search " +
                json_number(search_efficiency.back()) + ", P=" +
                std::to_string(threads) + ")");
  });
  samples.emit_medians(report);
  // Minimum, not mean: a pass that lost its parallelism must show.
  report.metric("pool.efficiency", min_of(efficiency), "ratio");
  report.metric("pool.overlap_efficiency", min_of(overlap_efficiency), "ratio");
  report.metric("pool.search_efficiency", min_of(search_efficiency), "ratio");
  report.metric("trace.overhead_s", median(traced_walls) - median(walls), "s");
}

}  // namespace perfbench
