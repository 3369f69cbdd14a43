#include "align/blastx.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>

#include "align/sw.hpp"
#include "bio/codon.hpp"
#include "common/error.hpp"

namespace pga::align {

namespace {

// Gapped BLAST's seeding constants (Altschul et al., Nucleic Acids Res.
// 25:3389, 1997) at NCBI blastx's defaults. The bit values convert to raw
// BLOSUM62 scores with the *ungapped* Karlin–Altschul parameters
// (lambda = 0.3176, K = 0.134), the way BLAST converts them:
//   X-drop   7 bits: 7 ln2 / lambda = 15.3, rounded up to 16;
//   trigger 22 bits: (22 ln2 + ln K) / lambda = 41.7, truncated to 41.
/// Two-hit window A: a hit more than this many residues past the last
/// recorded hit on its diagonal starts a new pair instead of extending.
/// The window is inclusive here (a pair exactly A apart extends); NCBI's
/// word finder starts a new pair at A, so it extends one distance fewer.
constexpr std::int32_t kTwoHitWindow = 40;
/// An ungapped extension stops once it falls this far below its best.
constexpr int kUngappedXDrop = 16;
/// An ungapped extension reaching this score marks its diagonal for the
/// gapped banded DP.
constexpr int kGapTrigger = 41;

/// Seeding state of one (subject, diagonal), valid only while `stamp`
/// equals the current frame's stamp: a new frame invalidates every entry
/// at once, so the array is never cleared between frames or searches.
struct DiagonalEntry {
  std::uint32_t stamp = 0;
  std::int32_t last_hit = 0;  ///< query offset of the last recorded hit
  std::uint16_t seeds = 0;    ///< word hits on the diagonal (saturating)
  bool triggered = false;     ///< an ungapped extension reached kGapTrigger
};
static_assert(sizeof(DiagonalEntry) <= 16);

/// A diagonal whose ungapped extension reached the trigger.
struct MarkedDiagonal {
  std::uint32_t subject;
  std::int32_t diagonal;  ///< q_pos - s_pos
  std::size_t entry;      ///< its index in the diagonal array
  std::uint32_t seeds;    ///< the entry's seed count once the frame is scanned
};

/// Per-thread scratch reused across search() calls: frame translations,
/// the reverse-complement buffer, the word-hit list, the diagonal array
/// and the candidate buffers. Steady-state searches allocate nothing here.
struct SearchScratch {
  std::vector<bio::FrameTranslation> frames;
  std::string rc;
  std::vector<WordHit> word_hits;
  /// One slab per subject, one entry per diagonal it can share with the
  /// query (see BlastxSearch::search for the layout).
  std::vector<DiagonalEntry> diagonals;
  std::uint32_t stamp = 0;  ///< the current frame's stamp
  std::vector<MarkedDiagonal> marked;  ///< the frame's marked diagonals
  PreparedSeq frame_query;  ///< current frame protein, encoded once
  /// The frame's candidate diagonals, every subject's in subject order,
  /// and their score-only results from one batch call.
  std::vector<ScoreOnlyCandidate> candidates;
  std::vector<ScoreOnlyResult> scores;
  /// Per subject with candidates: (subject, end of its candidate run).
  std::vector<std::pair<std::uint32_t, std::size_t>> subject_runs;

  /// Starts a frame with a fresh stamp. When the stamp wraps (once per
  /// 2^32 frames) the array is cleared for real.
  void next_frame() {
    if (++stamp == 0) {
      std::fill(diagonals.begin(), diagonals.end(), DiagonalEntry{});
      stamp = 1;
    }
  }
};

SearchScratch& search_scratch() {
  thread_local SearchScratch scratch;
  return scratch;
}

/// Gapped BLAST's ungapped two-hit extension, on one diagonal, of the word
/// hit at query offset `q` / subject offset `s` whose first hit ends at
/// query offset `first_end`. The extension starts after the
/// word's best-scoring prefix and runs left with X-drop; only if its best
/// extent reaches back to `first_end` does it continue to the right.
/// Returns the best ungapped score found.
int two_hit_extension(const PreparedSeq& query, const PreparedSeq& subject,
                      std::size_t q, std::size_t s, std::size_t first_end,
                      std::size_t k, const ScoringProfile& profile) {
  const std::uint8_t* qc = query.codes();
  const std::uint8_t* sc = subject.codes();
  int score = 0;
  int left = 0;
  std::size_t prefix = 0;
  for (std::size_t i = 0; i < k; ++i) {
    score += profile.score(qc[q + i], sc[s + i]);
    if (score > left) {
      left = score;
      prefix = i + 1;
    }
  }
  // Left from the last residue of the best prefix: `reach` is the leftmost
  // query offset of the best left extent.
  const std::size_t q_end = q + prefix;
  const std::size_t s_end = s + prefix;
  left = 0;
  score = 0;
  std::size_t reach = q_end;
  for (std::size_t d = 1; d <= std::min(q_end, s_end); ++d) {
    score += profile.score(qc[q_end - d], sc[s_end - d]);
    if (score > left) {
      left = score;
      reach = q_end - d;
    }
    if (left - score >= kUngappedXDrop) break;
  }
  if (reach > first_end) return left;
  int best = left;
  score = left;
  for (std::size_t i = q_end, j = s_end; i < query.size() && j < subject.size();
       ++i, ++j) {
    score += profile.score(qc[i], sc[j]);
    best = std::max(best, score);
    if (score <= 0 || best - score >= kUngappedXDrop) break;
  }
  return best;
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
  residue_offsets_.assign(proteins_.size() + 1, 0);
  for (std::size_t i = 0; i < proteins_.size(); ++i) {
    prepared_subjects_[i].assign(proteins_[i].seq, profile);
    residue_offsets_[i + 1] = residue_offsets_[i] + proteins_[i].seq.size();
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
  // Diagonal array layout: subject i owns |subject i| + Q entries starting
  // at residue_offsets_[i] + i * Q, where Q is the longest frame; the word
  // hit (q_pos, s_pos) lands at that start + Q + s_pos - q_pos. The array
  // only grows, and stale entries are told apart by their stamp.
  std::size_t longest_frame = 0;
  for (const auto& ft : scratch.frames) {
    longest_frame = std::max(longest_frame, ft.protein.size());
  }
  const std::size_t slab = longest_frame;
  const std::size_t array_size = residue_offsets_.back() + proteins_.size() * slab;
  if (scratch.diagonals.size() < array_size) scratch.diagonals.resize(array_size);

  for (const auto& ft : scratch.frames) {
    const std::string& fp = ft.protein;
    if (fp.size() < k) continue;
    // Encode the frame protein once; the ungapped extensions and every
    // candidate diagonal of every subject below reuse it.
    scratch.frame_query.assign(fp, profile);
    scratch.next_frame();
    const std::uint32_t stamp = scratch.stamp;

    // Scan word hits in query order. Each diagonal sees its hits in
    // ascending q_pos (one subject word per q_pos and diagonal), so the
    // two-hit rule needs only the diagonal's last recorded hit.
    std::vector<MarkedDiagonal>& marked = scratch.marked;
    marked.clear();
    std::vector<WordHit>& word_hits = scratch.word_hits;
    for (std::size_t q_pos = 0; q_pos + k <= fp.size(); ++q_pos) {
      word_hits.clear();
      index_.neighborhood(std::string_view(fp).substr(q_pos, k), word_hits);
      const auto q = static_cast<std::int32_t>(q_pos);
      for (const WordHit& wh : word_hits) {
        const std::size_t index = residue_offsets_[wh.subject] +
                                  (wh.subject + 1) * slab + wh.position - q_pos;
        DiagonalEntry& entry = scratch.diagonals[index];
        if (entry.stamp != stamp) entry = {stamp, -kTwoHitWindow - 1, 0, false};
        if (entry.seeds != std::numeric_limits<std::uint16_t>::max()) ++entry.seeds;
        if (entry.triggered) continue;
        const std::int32_t distance = q - entry.last_hit;
        // A hit overlapping the last recorded one adds no evidence and
        // does not replace it.
        if (distance < params_.word_size) continue;
        if (distance > kTwoHitWindow) {
          entry.last_hit = q;
          continue;
        }
        const std::size_t first_end = static_cast<std::size_t>(entry.last_hit) + k;
        if (two_hit_extension(scratch.frame_query, prepared_subjects_[wh.subject], q_pos,
                              wh.position, first_end, k, profile) >= kGapTrigger) {
          entry.triggered = true;
          marked.push_back({wh.subject, q - static_cast<std::int32_t>(wh.position),
                            index, 0});
        } else {
          entry.last_hit = q;
        }
      }
    }

    // Only marked diagonals with min_seeds_per_diagonal word hits become
    // candidates (a marked diagonal has at least two), ranked per subject
    // by (seed count desc, diagonal asc) and capped. The key is
    // unique per diagonal, so the order is total: any sort gives the
    // stable ranking.
    for (MarkedDiagonal& m : marked) m.seeds = scratch.diagonals[m.entry].seeds;
    std::erase_if(marked, [&](const MarkedDiagonal& m) {
      return m.seeds < params_.min_seeds_per_diagonal;
    });
    std::sort(marked.begin(), marked.end(),
              [](const MarkedDiagonal& a, const MarkedDiagonal& b) {
                if (a.subject != b.subject) return a.subject < b.subject;
                if (a.seeds != b.seeds) return a.seeds > b.seeds;
                return a.diagonal < b.diagonal;
              });
    std::vector<ScoreOnlyCandidate>& candidates = scratch.candidates;
    std::vector<std::pair<std::uint32_t, std::size_t>>& subject_runs =
        scratch.subject_runs;
    candidates.clear();
    subject_runs.clear();
    for (std::size_t m = 0; m < marked.size();) {
      const std::uint32_t subject = marked[m].subject;
      std::size_t taken = 0;
      for (; m < marked.size() && marked[m].subject == subject; ++m) {
        if (taken == params_.max_diagonals_per_subject) continue;
        candidates.push_back({&prepared_subjects_[subject], marked[m].diagonal});
        ++taken;
      }
      if (taken > 0) subject_runs.push_back({subject, candidates.size()});
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
