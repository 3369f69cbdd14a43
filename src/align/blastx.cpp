#include "align/blastx.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>

#include "align/sw.hpp"
#include "bio/codon.hpp"
#include "common/error.hpp"

namespace pga::align {

namespace {

/// Packs a (subject, diagonal) seed into one sortable key: subject in the
/// high 32 bits, the diagonal bias-shifted so unsigned key order equals
/// (subject asc, diagonal asc) — the iteration order the old
/// std::map<pair<subject, diag>> accumulator produced, which downstream
/// tie-breaking depends on.
constexpr std::uint64_t kDiagBias = 1ULL << 31;

inline std::uint64_t pack_seed(std::uint32_t subject, long diag) {
  return (static_cast<std::uint64_t>(subject) << 32) |
         static_cast<std::uint32_t>(static_cast<long long>(diag) + kDiagBias);
}
inline std::uint32_t seed_subject(std::uint64_t key) {
  return static_cast<std::uint32_t>(key >> 32);
}
inline long seed_diag(std::uint64_t key) {
  return static_cast<long>(static_cast<long long>(key & 0xffffffffULL) -
                           static_cast<long long>(kDiagBias));
}

/// Per-thread scratch reused across search() calls: frame translations,
/// the reverse-complement buffer, the word-hit list and the flat seed
/// accumulator. Steady-state searches allocate nothing here.
struct SearchScratch {
  std::vector<bio::FrameTranslation> frames;
  std::string rc;
  std::vector<WordHit> word_hits;
  std::vector<std::uint64_t> seeds;
  std::vector<std::pair<std::size_t, long>> diags;  // (count, diagonal)
  PreparedSeq frame_query;  ///< current frame protein, encoded once
  /// The frame's candidate diagonals, every subject's in subject order,
  /// and their score-only results from one batch call.
  std::vector<ScoreOnlyCandidate> candidates;
  std::vector<ScoreOnlyResult> scores;
  /// Per subject with candidates: (subject, end of its candidate run).
  std::vector<std::pair<std::uint32_t, std::size_t>> subject_runs;
};

SearchScratch& search_scratch() {
  thread_local SearchScratch scratch;
  return scratch;
}

/// Converts a frame-protein residue range to 1-based nucleotide query
/// coordinates on the forward strand (BLASTX convention: reverse-strand
/// hits have qstart > qend).
void residue_range_to_nucleotides(int frame, std::size_t q_begin, std::size_t q_end,
                                  std::size_t dna_length, long& qstart, long& qend) {
  if (frame > 0) {
    qstart = static_cast<long>(bio::frame_to_forward_offset(frame, q_begin, dna_length)) + 1;
    qend = static_cast<long>(bio::frame_to_forward_offset(frame, q_end - 1, dna_length)) + 3;
  } else {
    // First codon of the alignment sits at the highest forward coordinates.
    const std::size_t first = bio::frame_to_forward_offset(frame, q_begin, dna_length);
    const std::size_t last = bio::frame_to_forward_offset(frame, q_end - 1, dna_length);
    qstart = static_cast<long>(first) + 3;  // 1-based top base of first codon
    qend = static_cast<long>(last) + 1;     // 1-based bottom base of last codon
  }
}

/// Rejects parameters the search cannot honour, before the index is built.
/// A NaN cutoff would make every `evalue > cutoff` test false and let every
/// candidate through, so non-finite statistics are refused outright.
const BlastxParams& validated(const BlastxParams& params) {
  if (params.min_seeds_per_diagonal == 0) {
    throw common::InvalidArgument("min_seeds_per_diagonal must be >= 1");
  }
  if (params.band == 0) throw common::InvalidArgument("band must be >= 1");
  if (!std::isfinite(params.evalue_cutoff) || params.evalue_cutoff < 0.0) {
    throw common::InvalidArgument("evalue_cutoff must be finite and >= 0");
  }
  if (!std::isfinite(params.ka.lambda) || params.ka.lambda <= 0.0 ||
      !std::isfinite(params.ka.k) || params.ka.k <= 0.0) {
    throw common::InvalidArgument("ka.lambda and ka.k must be finite and > 0");
  }
  if (params.gaps.open < 0 || params.gaps.extend < 0) {
    throw common::InvalidArgument("gap penalties must be >= 0");
  }
  return params;
}

}  // namespace

BlastxSearch::BlastxSearch(std::vector<bio::SeqRecord> proteins, BlastxParams params)
    : proteins_(std::move(proteins)),
      params_(validated(params)),
      index_(proteins_, params_.word_size, params_.neighbor_threshold) {
  const ScoringProfile& profile = ScoringProfile::protein_blosum62();
  prepared_subjects_.resize(proteins_.size());
  for (std::size_t i = 0; i < proteins_.size(); ++i) {
    prepared_subjects_[i].assign(proteins_[i].seq, profile);
  }
}

std::vector<TabularHit> BlastxSearch::search(const bio::SeqRecord& transcript) const {
  std::vector<TabularHit> hits;
  const auto k = static_cast<std::size_t>(params_.word_size);
  const double db_residues = static_cast<double>(index_.total_residues());
  const double query_residues = static_cast<double>(transcript.seq.size()) / 3.0;
  const ScoringProfile& profile = ScoringProfile::protein_blosum62();
  SearchScratch& scratch = search_scratch();

  // Best hit per subject across all frames (optional collapse).
  std::unordered_map<std::uint32_t, TabularHit> best_per_subject;

  bio::six_frame_translate(transcript.seq, scratch.frames, scratch.rc);
  for (const auto& ft : scratch.frames) {
    const std::string& fp = ft.protein;
    if (fp.size() < k) continue;
    // Encode the frame protein once; every candidate diagonal of every
    // subject below reuses it.
    scratch.frame_query.assign(fp, profile);

    // Collect word seeds as packed (subject, diagonal) keys — a flat
    // append + sort + run-length scan instead of a node-based map insert
    // per word hit.
    std::vector<std::uint64_t>& seeds = scratch.seeds;
    seeds.clear();
    std::vector<WordHit>& word_hits = scratch.word_hits;
    for (std::size_t q_pos = 0; q_pos + k <= fp.size(); ++q_pos) {
      word_hits.clear();
      index_.neighborhood(std::string_view(fp).substr(q_pos, k), word_hits);
      for (const WordHit& wh : word_hits) {
        const long diag = static_cast<long>(q_pos) - static_cast<long>(wh.position);
        seeds.push_back(pack_seed(wh.subject, diag));
      }
    }
    std::sort(seeds.begin(), seeds.end());

    // Walk runs of equal keys; a subject's candidate diagonals arrive in
    // ascending-diagonal order, exactly as the old map iteration fed them.
    std::vector<ScoreOnlyCandidate>& candidates = scratch.candidates;
    std::vector<std::pair<std::uint32_t, std::size_t>>& subject_runs =
        scratch.subject_runs;
    candidates.clear();
    subject_runs.clear();
    std::size_t run = 0;
    while (run < seeds.size()) {
      const std::uint32_t subject = seed_subject(seeds[run]);
      std::vector<std::pair<std::size_t, long>>& diags = scratch.diags;
      diags.clear();
      while (run < seeds.size() && seed_subject(seeds[run]) == subject) {
        const std::uint64_t key = seeds[run];
        std::size_t count = 0;
        while (run < seeds.size() && seeds[run] == key) {
          ++count;
          ++run;
        }
        if (count >= params_.min_seeds_per_diagonal) {
          diags.push_back({count, seed_diag(key)});
        }
      }
      if (diags.empty()) continue;

      std::sort(diags.begin(), diags.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
      if (diags.size() > params_.max_diagonals_per_subject) {
        diags.resize(params_.max_diagonals_per_subject);
      }
      for (const auto& [count, diag] : diags) {
        candidates.push_back({&prepared_subjects_[subject], diag});
      }
      subject_runs.push_back({subject, candidates.size()});
    }

    // One score-only batch over every subject's candidates in this frame.
    scratch.scores.resize(candidates.size());
    banded_score_only_batch(scratch.frame_query, candidates, profile, params_.band,
                            params_.gaps, scratch.scores);

    std::size_t begin = 0;
    for (const auto& [subject, end] : subject_runs) {
      // Only the winner (first strict maximum, matching the old
      // strict-greater update) pays for a traceback. Scores are identical
      // between the kernels, so the chosen alignment is too.
      int best_score = 0;
      long best_diag = 0;
      bool have_best = false;
      for (std::size_t c = begin; c < end; ++c) {
        if (scratch.scores[c].score > best_score) {
          best_score = scratch.scores[c].score;
          best_diag = candidates[c].diagonal;
          have_best = true;
        }
      }
      begin = end;
      if (!have_best) continue;
      // The traceback reports the winner's score-only score, so its bit
      // score and E-value are known now. Skip the traceback for a hit
      // that would be dropped anyway: one over the E-value cutoff, or one
      // that cannot strictly beat the subject's hit from an earlier frame.
      const double bits = bit_score(best_score, params_.ka);
      const double evalue = e_value(bits, query_residues, db_residues);
      if (evalue > params_.evalue_cutoff) continue;
      if (params_.best_hit_per_subject) {
        const auto earlier = best_per_subject.find(subject);
        if (earlier != best_per_subject.end() && !(bits > earlier->second.bitscore)) {
          continue;
        }
      }
      const LocalAlignment best_aln =
          banded_align(scratch.frame_query, prepared_subjects_[subject], profile,
                       best_diag, params_.band, params_.gaps);
      if (static_cast<long>(best_aln.alignment_length()) < params_.min_alignment_length) {
        continue;
      }

      TabularHit hit;
      hit.qseqid = transcript.id;
      hit.sseqid = proteins_[subject].id;
      hit.pident = best_aln.percent_identity();
      hit.length = static_cast<long>(best_aln.alignment_length());
      hit.mismatch = static_cast<long>(best_aln.mismatches);
      hit.gapopen = static_cast<long>(best_aln.gap_opens);
      residue_range_to_nucleotides(ft.frame, best_aln.q_begin, best_aln.q_end,
                                   transcript.seq.size(), hit.qstart, hit.qend);
      hit.sstart = static_cast<long>(best_aln.s_begin) + 1;
      hit.send = static_cast<long>(best_aln.s_end);
      hit.evalue = evalue;
      hit.bitscore = bits;

      if (params_.best_hit_per_subject) {
        best_per_subject.insert_or_assign(subject, std::move(hit));  // gated above
      } else {
        hits.push_back(std::move(hit));
      }
    }
  }

  if (params_.best_hit_per_subject) {
    hits.reserve(best_per_subject.size());
    for (auto& [subject, hit] : best_per_subject) hits.push_back(std::move(hit));
  }
  std::sort(hits.begin(), hits.end(), [](const TabularHit& a, const TabularHit& b) {
    if (a.bitscore != b.bitscore) return a.bitscore > b.bitscore;
    return a.sseqid < b.sseqid;
  });
  return hits;
}

std::vector<TabularHit> BlastxSearch::search_all(
    const std::vector<bio::SeqRecord>& transcripts, common::ThreadPool* pool) const {
  if (pool == nullptr || transcripts.size() < 2) {
    std::vector<TabularHit> all;
    for (const auto& t : transcripts) {
      auto hits = search(t);
      all.insert(all.end(), std::make_move_iterator(hits.begin()),
                 std::make_move_iterator(hits.end()));
    }
    return all;
  }

  // Work-stealing fan-out, one transcript per chunk: per-transcript slots
  // keep the concatenation in input order for any worker count, stealing
  // absorbs uneven transcripts, and the pool submits one task per worker
  // instead of one packaged_task + future per chunk.
  std::vector<std::vector<TabularHit>> per_transcript(transcripts.size());
  pool->parallel_for(transcripts.size(), /*chunk=*/1,
                     [&](std::size_t begin, std::size_t end, std::size_t) {
                       for (std::size_t i = begin; i < end; ++i) {
                         per_transcript[i] = search(transcripts[i]);
                       }
                     });
  std::vector<TabularHit> all;
  for (auto& hits : per_transcript) {
    all.insert(all.end(), std::make_move_iterator(hits.begin()),
               std::make_move_iterator(hits.end()));
  }
  return all;
}

}  // namespace pga::align
