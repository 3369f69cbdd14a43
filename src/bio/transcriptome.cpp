#include "bio/transcriptome.hpp"

#include <algorithm>

#include "bio/alphabet.hpp"
#include "bio/codon.hpp"
#include "bio/fastq.hpp"
#include "common/error.hpp"

namespace pga::bio {

namespace {

std::string zero_padded(std::string_view prefix, std::size_t value, std::size_t width = 4) {
  const std::string digits = std::to_string(value);
  std::string out(prefix);
  if (digits.size() < width) out.append(width - digits.size(), '0');
  return out += digits;
}

std::string random_dna(std::size_t length, common::Rng& rng) {
  std::string out;
  out.reserve(length);
  for (std::size_t i = 0; i < length; ++i) out.push_back(kBases[rng.below(4)]);
  return out;
}

std::string random_protein(std::size_t length, common::Rng& rng) {
  std::string out;
  out.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    out.push_back(kAminoAcids[rng.below(kAminoAcids.size())]);
  }
  return out;
}

/// Point-mutates a protein retaining ~identity of residues.
std::string mutate_protein(std::string_view protein, double identity, common::Rng& rng) {
  std::string out(protein);
  for (char& aa : out) {
    if (!rng.chance(identity)) {
      char replacement = aa;
      while (replacement == aa) {
        replacement = kAminoAcids[rng.below(kAminoAcids.size())];
      }
      aa = replacement;
    }
  }
  return out;
}

/// Applies per-base substitution errors.
std::string add_errors(std::string_view dna, double rate, common::Rng& rng) {
  std::string out(dna);
  for (char& base : out) {
    if (rng.chance(rate)) {
      char replacement = base;
      while (replacement == base) replacement = kBases[rng.below(4)];
      base = replacement;
    }
  }
  return out;
}

}  // namespace

const std::string& Transcriptome::family_of_transcript(const std::string& tid) const {
  const auto g = transcript_gene.find(tid);
  if (g == transcript_gene.end()) {
    throw common::InvalidArgument("unknown transcript id: " + tid);
  }
  const auto f = gene_family.find(g->second);
  if (f == gene_family.end()) {
    throw common::InvalidArgument("unknown gene id: " + g->second);
  }
  return f->second;
}

bool Transcriptome::is_fusion(const std::string& tid_a, const std::string& tid_b) const {
  const auto a = transcript_gene.find(tid_a);
  const auto b = transcript_gene.find(tid_b);
  if (a == transcript_gene.end() || b == transcript_gene.end()) {
    throw common::InvalidArgument("unknown transcript id in is_fusion");
  }
  return a->second != b->second;
}

Transcriptome generate_transcriptome(const TranscriptomeParams& params) {
  if (params.families == 0) throw common::InvalidArgument("families must be > 0");
  if (params.paralogs_min == 0 || params.paralogs_min > params.paralogs_max) {
    throw common::InvalidArgument("bad paralog bounds");
  }
  if (params.protein_min < 30 || params.protein_min > params.protein_max) {
    throw common::InvalidArgument("bad protein length bounds (min 30 aa)");
  }
  if (params.fragment_min_frac <= 0 || params.fragment_min_frac > params.fragment_max_frac ||
      params.fragment_max_frac > 1.0) {
    throw common::InvalidArgument("bad fragment fraction bounds");
  }

  common::Rng rng(params.seed);
  Transcriptome txm;

  // The shared repeat element that unrelated genes may carry in a UTR.
  const std::string repeat = random_dna(params.repeat_length, rng);

  std::size_t gene_counter = 0;
  std::size_t transcript_counter = 0;

  for (std::size_t f = 0; f < params.families; ++f) {
    const std::string family_id = zero_padded("prot_", f);
    const auto protein_len = static_cast<std::size_t>(
        rng.range(static_cast<std::int64_t>(params.protein_min),
                  static_cast<std::int64_t>(params.protein_max)));
    const std::string family_protein = random_protein(protein_len, rng);
    txm.proteins.push_back(SeqRecord{family_id, "synthetic family protein",
                                     family_protein});

    const auto paralogs = static_cast<std::size_t>(
        rng.range(static_cast<std::int64_t>(params.paralogs_min),
                  static_cast<std::int64_t>(params.paralogs_max)));

    // Zipf-skewed expression: families with a low zipf rank draw get deeper
    // fragment coverage, creating a heavy-tailed cluster-size distribution.
    const std::size_t expression_rank =
        params.zipf_s > 0 ? rng.zipf(params.families, params.zipf_s) : f;
    const double expression_boost =
        1.0 + 2.0 / (1.0 + static_cast<double>(expression_rank));

    for (std::size_t p = 0; p < paralogs; ++p) {
      Gene gene;
      gene.id = zero_padded("gene_", gene_counter++);
      gene.family_id = family_id;
      gene.protein = p == 0 ? family_protein
                            : mutate_protein(family_protein, params.paralog_identity, rng);

      const std::string cds = reverse_translate(gene.protein, rng);
      std::string utr5 = random_dna(
          static_cast<std::size_t>(rng.range(static_cast<std::int64_t>(params.utr_min),
                                             static_cast<std::int64_t>(params.utr_max))),
          rng);
      std::string utr3 = random_dna(
          static_cast<std::size_t>(rng.range(static_cast<std::int64_t>(params.utr_min),
                                             static_cast<std::int64_t>(params.utr_max))),
          rng);
      if (rng.chance(params.repeat_gene_fraction)) {
        gene.has_repeat = true;
        // Insert the shared element at a UTR boundary so fragment windows
        // frequently expose it terminally (the CAP3 fusion trap).
        if (rng.chance(0.5)) {
          utr5 = repeat + utr5;
        } else {
          utr3 += repeat;
        }
      }
      gene.cds_start = utr5.size();
      gene.mrna = utr5 + cds + utr3;

      // Redundant fragment transcripts tiling the mRNA.
      const auto base_fragments = static_cast<std::size_t>(
          rng.range(static_cast<std::int64_t>(params.fragments_min),
                    static_cast<std::int64_t>(params.fragments_max)));
      const auto fragments = std::max<std::size_t>(
          1, static_cast<std::size_t>(static_cast<double>(base_fragments) *
                                      expression_boost));
      for (std::size_t t = 0; t < fragments; ++t) {
        const auto frag_len = static_cast<std::size_t>(
            static_cast<double>(gene.mrna.size()) *
            rng.uniform(params.fragment_min_frac, params.fragment_max_frac));
        const std::size_t max_start = gene.mrna.size() - frag_len;
        const auto start = static_cast<std::size_t>(rng.below(max_start + 1));
        std::string frag = add_errors(
            std::string_view(gene.mrna).substr(start, frag_len), params.error_rate, rng);

        SeqRecord rec;
        rec.id = zero_padded("tx_", transcript_counter++, 6);
        rec.description = gene.id;  // informational only; truth map is authoritative
        rec.seq = std::move(frag);
        txm.transcript_gene.emplace(rec.id, gene.id);
        txm.transcripts.push_back(std::move(rec));
      }

      txm.gene_family.emplace(gene.id, gene.family_id);
      txm.genes.push_back(std::move(gene));
    }
  }

  return txm;
}

std::vector<FastqRecord> simulate_reads(const Transcriptome& txm,
                                        std::size_t reads_per_gene,
                                        std::size_t read_length, common::Rng& rng) {
  std::vector<FastqRecord> reads;
  reads.reserve(txm.genes.size() * reads_per_gene);
  std::size_t counter = 0;
  for (const auto& gene : txm.genes) {
    if (gene.mrna.size() < read_length) continue;
    for (std::size_t r = 0; r < reads_per_gene; ++r) {
      const auto start =
          static_cast<std::size_t>(rng.below(gene.mrna.size() - read_length + 1));
      FastqRecord read;
      read.id = zero_padded("read_", counter++, 7);
      read.seq = std::string(gene.mrna.substr(start, read_length));
      read.qual.reserve(read_length);
      // Illumina-style 3' quality decay: high early, falling tail.
      for (std::size_t i = 0; i < read_length; ++i) {
        const double frac = static_cast<double>(i) / static_cast<double>(read_length);
        const double mean_q = 38.0 - 26.0 * frac * frac;
        const int q = std::clamp(static_cast<int>(rng.normal(mean_q, 3.0)), 2, 40);
        read.qual.push_back(static_cast<char>(33 + q));
        if (q < 12 && rng.chance(0.3)) {
          // Low-quality positions carry real miscalls.
          char replacement = read.seq[i];
          while (replacement == read.seq[i]) replacement = kBases[rng.below(4)];
          read.seq[i] = replacement;
        }
      }
      reads.push_back(std::move(read));
    }
  }
  return reads;
}

}  // namespace pga::bio
