#include "align/sw.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "align/simd.hpp"
#include "align/sw_internal.hpp"
#include "common/error.hpp"

namespace pga::align {

namespace {

using detail::DpWorkspace;
using detail::KernelParams;
using detail::KernelSummary;
using detail::kDiagFromM;
using detail::kDiagFromX;
using detail::kMDirMask;
using detail::kNegInf;
using detail::kXOpenBit;
using detail::kYOpenBit;
using detail::row_hi;
using detail::row_lo;

// ---------------------------------------------------------------------------
// DP work counters: one cache-line-aligned node per thread, linked into a
// process-wide list and merged on read. Each node is written only by its
// owning thread (relaxed atomics keep the reads race-free), so parallel
// alignment runs stop bouncing a shared counter cache line — the per-item
// fetch_add contention the old three process-global atomics paid on every
// kernel invocation from every worker.
struct alignas(64) CounterNode {
  std::atomic<std::uint64_t> cells{0};
  std::atomic<std::uint64_t> tracebacks{0};
  std::atomic<std::uint64_t> score_only{0};
  CounterNode* next = nullptr;
};

std::atomic<CounterNode*> g_counter_head{nullptr};

CounterNode& local_counters() {
  // Nodes are intentionally never freed: a worker thread's tallies remain
  // visible in dp_counters() after the thread (or its pool) is gone. One
  // 64-byte node per kernel-touching thread over the process lifetime.
  thread_local CounterNode* node = [] {
    auto* n = new CounterNode;
    CounterNode* head = g_counter_head.load(std::memory_order_relaxed);
    do {
      n->next = head;
    } while (!g_counter_head.compare_exchange_weak(
        head, n, std::memory_order_release, std::memory_order_relaxed));
    return n;
  }();
  return *node;
}

DpWorkspace& workspace() {
  thread_local DpWorkspace ws;
  return ws;
}

/// Fewest lanes banded_align_batch runs through the pair-batch kernel. A
/// batch costs the same with 1 lane as with 16, about what 8 per-pair
/// tracebacks cost (400 x 400 DNA pairs at band 48 on AVX2).
constexpr std::size_t kMinPairBatchLanes = 9;

// ---------------------------------------------------------------------------
// Scalar band-compressed Gotoh kernel — the mandatory fallback and the
// reference implementation the golden fixtures pin. With Traceback, fills
// ws.tb (tb_width bytes per row); cell values are identical to the classic
// full-matrix recurrence: neighbours outside the band read as M = 0,
// X = Y = -inf, exactly the values the full layout held there.
template <bool Traceback>
KernelSummary scalar_kernel(const KernelParams& kp, DpWorkspace& ws) {
  const long n = kp.n;
  const long m = kp.m;
  const long diagonal = kp.diagonal;
  const long band = kp.band;

  const long w = detail::tb_width(m, band);
  const auto width = static_cast<std::size_t>(w);
  for (auto& row : ws.band_rows) row.resize(width);
  if (Traceback) ws.tb.resize(static_cast<std::size_t>(n) * width);

  int* m_prev = ws.band_rows[0].data();
  int* x_prev = ws.band_rows[1].data();
  int* y_prev = ws.band_rows[2].data();
  int* m_cur = ws.band_rows[3].data();
  int* x_cur = ws.band_rows[4].data();
  int* y_cur = ws.band_rows[5].data();

  const int open_cost = kp.open_cost;
  const int extend = kp.extend;
  KernelSummary res;

  long lo_prev = 1, hi_prev = 0;  // row 0 holds only defaults
  for (long i = 1; i <= n; ++i) {
    const long lo = row_lo(i, diagonal, band);
    const long hi = row_hi(i, diagonal, band, m);
    if (lo > hi) {
      lo_prev = 1;
      hi_prev = 0;  // next row reads pure defaults
      continue;
    }
    res.cells += static_cast<std::uint64_t>(hi - lo + 1);
    const int* score_row = kp.profile->row(kp.q_codes[i - 1]);
    // Reads from the previous row; out-of-band cells held M=0, X=Y=-inf.
    const auto prev_m_at = [&](long j) {
      return (j >= lo_prev && j <= hi_prev) ? m_prev[j - lo_prev] : 0;
    };
    const auto prev_x_at = [&](long j) {
      return (j >= lo_prev && j <= hi_prev) ? x_prev[j - lo_prev] : kNegInf;
    };
    const auto prev_y_at = [&](long j) {
      return (j >= lo_prev && j <= hi_prev) ? y_prev[j - lo_prev] : kNegInf;
    };
    int m_left = 0;        // M at (i, lo-1): column 0 or out-of-band, = 0
    int x_left = kNegInf;  // X at (i, lo-1)
    unsigned char* tb_row =
        Traceback ? ws.tb.data() + static_cast<std::size_t>(i - 1) * width : nullptr;
    for (long j = lo; j <= hi; ++j) {
      const int sub = score_row[kp.s_codes[j - 1]];

      // Substitution state.
      int from = 0;
      unsigned char dir = 0;
      const int m_diag = prev_m_at(j - 1);
      const int x_diag = prev_x_at(j - 1);
      const int y_diag = prev_y_at(j - 1);
      if (m_diag > from) { from = m_diag; dir = 1; }
      if (x_diag > from) { from = x_diag; dir = 2; }
      if (y_diag > from) { from = y_diag; dir = 3; }
      // dir == 0 means the local alignment starts at this cell.
      int m_val = from + sub;
      unsigned char tb_byte = dir;
      if (m_val <= 0) {
        m_val = 0;
        tb_byte = 0;
      }

      // Gap in query (moves left along subject).
      const int x_open = m_left - open_cost;
      const int x_ext = x_left - extend;
      int x_val;
      if (x_open >= x_ext) {
        x_val = x_open;
        tb_byte |= kXOpenBit;
      } else {
        x_val = x_ext;
      }

      // Gap in subject (moves up along query).
      const int y_open = prev_m_at(j) - open_cost;
      const int y_ext = prev_y_at(j) - extend;
      int y_val;
      if (y_open >= y_ext) {
        y_val = y_open;
        tb_byte |= kYOpenBit;
      } else {
        y_val = y_ext;
      }

      m_cur[j - lo] = m_val;
      x_cur[j - lo] = x_val;
      y_cur[j - lo] = y_val;
      if (Traceback) tb_row[j - lo] = tb_byte;
      if (m_val > res.best) {
        res.best = m_val;
        res.best_i = i;
        res.best_j = j;
      }
      m_left = m_val;
      x_left = x_val;
    }
    std::swap(m_prev, m_cur);
    std::swap(x_prev, x_cur);
    std::swap(y_prev, y_cur);
    lo_prev = lo;
    hi_prev = hi;
  }
  return res;
}

// ---------------------------------------------------------------------------
// Dispatch: PGA_SW_DISPATCH env knob, test override, CPU detection.

std::atomic<int> g_level_override{-1};

SimdLevel env_level() {
  static const SimdLevel level = [] {
    if (const char* env = std::getenv("PGA_SW_DISPATCH")) {
      if (std::strcmp(env, "scalar") == 0) return SimdLevel::kScalar;
      if (std::strcmp(env, "avx2") == 0) {
        return cpu_supports_avx2() ? SimdLevel::kAvx2 : SimdLevel::kScalar;
      }
      // "auto" and anything unrecognized fall through to detection.
    }
    return cpu_supports_avx2() ? SimdLevel::kAvx2 : SimdLevel::kScalar;
  }();
  return level;
}

/// True when the AVX2 16-bit kernels may run on this profile and gaps.
bool use_avx2_16bit(const ScoringProfile& profile, const GapPenalties& gaps) {
  return active_simd_level() == SimdLevel::kAvx2 &&
         detail::fits_16bit(profile, gaps);
}

/// Runs the dispatched kernel: the 16-bit AVX2 row kernel when it applies
/// and its best score stays clear of INT16_MAX, else the scalar kernel.
template <bool Traceback>
KernelSummary run_kernel(const KernelParams& kp, const GapPenalties& gaps,
                         DpWorkspace& ws) {
  if (detail::tb_width(kp.m, kp.band) >= 8 && use_avx2_16bit(*kp.profile, gaps)) {
    const KernelSummary res = detail::banded_kernel_avx2(kp, ws, Traceback);
    if (!detail::needs_scalar_rerun(*kp.profile, res.best)) return res;
  }
  return scalar_kernel<Traceback>(kp, ws);
}

// ---------------------------------------------------------------------------
// Traceback from the best substitution cell, shared by every kernel.
// `tb_byte(i, j)` returns the cell's packed byte, or 0 outside the band —
// M stops, X/Y extend — matching the defaults the full-matrix layout kept
// in its unvisited cells. Matches are counted on the characters.
template <typename TbByte>
void walk_traceback(std::string_view q, std::string_view s, const KernelSummary& res,
                    LocalAlignment* aln, TbByte tb_byte) {
  aln->score = res.best;
  aln->q_end = static_cast<std::size_t>(res.best_i);
  aln->s_end = static_cast<std::size_t>(res.best_j);
  long i = res.best_i, j = res.best_j;
  char state = 'M';
  while (i > 0 && j > 0) {
    const unsigned char byte = tb_byte(i, j);
    if (state == 'M') {
      if (q[static_cast<std::size_t>(i - 1)] == s[static_cast<std::size_t>(j - 1)]) {
        ++aln->matches;
      } else {
        ++aln->mismatches;
      }
      const unsigned char dir = byte & kMDirMask;
      --i;
      --j;
      if (dir == 0) break;
      if (dir == kDiagFromM) state = 'M';
      else if (dir == kDiagFromX) state = 'X';
      else state = 'Y';
    } else if (state == 'X') {
      ++aln->gap_residues;
      --j;
      if (byte & kXOpenBit) {
        ++aln->gap_opens;
        state = 'M';
      }
    } else {  // 'Y'
      ++aln->gap_residues;
      --i;
      if (byte & kYOpenBit) {
        ++aln->gap_opens;
        state = 'M';
      }
    }
  }
  aln->q_begin = static_cast<std::size_t>(i);
  aln->s_begin = static_cast<std::size_t>(j);
}

// ---------------------------------------------------------------------------
// Shared entry: run the dispatched kernel, update this thread's counters,
// then (for traceback runs) walk the packed band both kernels fill.

KernelParams make_params(const std::uint8_t* q_codes, long n,
                         const std::uint8_t* s_codes, long m,
                         const ScoringProfile& profile, const GapPenalties& gaps,
                         long diagonal, std::size_t band_in) {
  KernelParams kp;
  kp.q_codes = q_codes;
  kp.s_codes = s_codes;
  kp.n = n;
  kp.m = m;
  kp.profile = &profile;
  kp.open_cost = gaps.open + gaps.extend;
  kp.extend = gaps.extend;
  kp.diagonal = diagonal;
  // Wider bands add no reachable cells.
  kp.band = static_cast<long>(
      std::min<std::size_t>(band_in, static_cast<std::size_t>(n + m)));
  return kp;
}

template <bool Traceback>
void run_banded(std::string_view q, const std::uint8_t* q_codes,
                std::string_view s, const std::uint8_t* s_codes,
                const ScoringProfile& profile, const GapPenalties& gaps,
                long diagonal, std::size_t band_in, LocalAlignment* aln,
                ScoreOnlyResult* score_out) {
  const long n = static_cast<long>(q.size());
  const long m = static_cast<long>(s.size());
  if (n == 0 || m == 0) return;

  const KernelParams kp =
      make_params(q_codes, n, s_codes, m, profile, gaps, diagonal, band_in);
  DpWorkspace& ws = workspace();
  const long width = detail::tb_width(m, kp.band);
  const KernelSummary res = run_kernel<Traceback>(kp, gaps, ws);

  CounterNode& counters = local_counters();
  counters.cells.fetch_add(res.cells, std::memory_order_relaxed);
  if (Traceback) {
    counters.tracebacks.fetch_add(1, std::memory_order_relaxed);
  } else {
    counters.score_only.fetch_add(1, std::memory_order_relaxed);
  }

  if (res.best <= 0) return;

  if (!Traceback) {
    score_out->score = res.best;
    score_out->q_end = static_cast<std::size_t>(res.best_i);
    score_out->s_end = static_cast<std::size_t>(res.best_j);
    return;
  }
  walk_traceback(q, s, res, aln, [&](long i, long j) -> unsigned char {
    const long lo = row_lo(i, diagonal, kp.band);
    const long hi = row_hi(i, diagonal, kp.band, m);
    return (j >= lo && j <= hi)
               ? ws.tb[static_cast<std::size_t>(i - 1) * static_cast<std::size_t>(width) +
                       static_cast<std::size_t>(j - lo)]
               : 0;
  });
}

/// Per-thread PreparedSeq scratch for the string_view entry points: the
/// encode-once buffers are reused across calls, so the steady-state
/// kernel still allocates nothing.
struct PreparedScratch {
  PreparedSeq query, subject;
};

PreparedScratch& prepared_scratch() {
  thread_local PreparedScratch scratch;
  return scratch;
}

/// Thread-cached DNA profile: rebuilding costs a 1.3 KB table fill, but
/// the overlap phase calls the kernel per candidate pair with constant
/// (match, mismatch), so caching avoids even that.
const ScoringProfile& dna_profile(int match, int mismatch) {
  thread_local int cached_match = std::numeric_limits<int>::min();
  thread_local int cached_mismatch = 0;
  thread_local ScoringProfile profile = ScoringProfile::dna(1, -2);
  if (cached_match != match || cached_mismatch != mismatch) {
    profile = ScoringProfile::dna(match, mismatch);
    cached_match = match;
    cached_mismatch = mismatch;
  }
  return profile;
}

void check_dna_params(const char* who, int match, int mismatch) {
  if (match <= 0 || mismatch >= 0) {
    throw common::InvalidArgument(std::string(who) +
                                  ": need match > 0 > mismatch");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Dispatch control (declared in align/simd.hpp).

bool cpu_supports_avx2() {
#if PGA_HAVE_AVX2_KERNEL
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported && detail::avx2_kernel_compiled();
#else
  return false;
#endif
}

SimdLevel active_simd_level() {
  const int forced = g_level_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<SimdLevel>(forced);
  return env_level();
}

const char* simd_level_name(SimdLevel level) {
  return level == SimdLevel::kAvx2 ? "avx2" : "scalar";
}

const char* active_simd_isa() { return simd_level_name(active_simd_level()); }

void set_simd_level(SimdLevel level) {
  if (level == SimdLevel::kAvx2 && !cpu_supports_avx2()) {
    level = SimdLevel::kScalar;
  }
  g_level_override.store(static_cast<int>(level), std::memory_order_relaxed);
}

void reset_simd_level() {
  g_level_override.store(-1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Public entry points.

LocalAlignment banded_align(const PreparedSeq& query, const PreparedSeq& subject,
                            const ScoringProfile& profile, long diagonal,
                            std::size_t band, const GapPenalties& gaps) {
  LocalAlignment aln;
  run_banded<true>(query.chars(), query.codes(), subject.chars(), subject.codes(),
                   profile, gaps, diagonal, band, &aln, nullptr);
  return aln;
}

ScoreOnlyResult banded_score_only(const PreparedSeq& query,
                                  const PreparedSeq& subject,
                                  const ScoringProfile& profile, long diagonal,
                                  std::size_t band, const GapPenalties& gaps) {
  ScoreOnlyResult result;
  run_banded<false>(query.chars(), query.codes(), subject.chars(), subject.codes(),
                    profile, gaps, diagonal, band, nullptr, &result);
  return result;
}

void banded_score_only_batch(const PreparedSeq& query,
                             std::span<const ScoreOnlyCandidate> candidates,
                             const ScoringProfile& profile, std::size_t band,
                             const GapPenalties& gaps,
                             std::span<ScoreOnlyResult> results) {
  if (results.size() != candidates.size()) {
    throw common::InvalidArgument(
        "banded_score_only_batch: results and candidates differ in size");
  }
  const long n = static_cast<long>(query.size());
  // A lane shares the batch's band, so its band must not be clamped to
  // n + m; the band-relative offsets must fit int16; and, like the row
  // kernel, it needs a band row of at least 8 cells.
  const bool batch =
      n > 0 && use_avx2_16bit(profile, gaps) &&
      band <= static_cast<std::size_t>(std::numeric_limits<std::int16_t>::max() / 2);
  const auto batchable = [&](const PreparedSeq& s) {
    const long m = static_cast<long>(s.size());
    return batch && m > 0 && band <= static_cast<std::size_t>(n + m) &&
           detail::tb_width(m, static_cast<long>(band)) >= 8;
  };

  detail::BatchLane lanes[detail::kBatchLanes];
  std::size_t lane_index[detail::kBatchLanes];
  KernelSummary lane_out[detail::kBatchLanes];
  std::size_t count = 0;
  std::uint64_t cells = 0;
  std::uint64_t calls = 0;
  DpWorkspace& ws = workspace();
  KernelParams kp = make_params(query.codes(), n, nullptr, 0, profile, gaps, 0, band);
  kp.band = static_cast<long>(band);  // no lane clamps it (see batchable)
  const auto flush = [&] {
    detail::banded_batch_avx2(kp, lanes, count, ws, lane_out);
    for (std::size_t l = 0; l < count; ++l) {
      KernelSummary res = lane_out[l];
      if (detail::needs_scalar_rerun(profile, res.best)) {
        KernelParams single = kp;
        single.s_codes = lanes[l].s_codes;
        single.m = lanes[l].m;
        single.diagonal = lanes[l].diagonal;
        res = scalar_kernel<false>(single, ws);
      }
      cells += detail::band_cells(n, lanes[l].m, lanes[l].diagonal, kp.band);
      ++calls;
      ScoreOnlyResult& r = results[lane_index[l]];
      r = ScoreOnlyResult{};
      if (res.best > 0) {
        r.score = res.best;
        r.q_end = static_cast<std::size_t>(res.best_i);
        r.s_end = static_cast<std::size_t>(res.best_j);
      }
    }
    count = 0;
  };

  // A batch computes the union of its lanes' row ranges, so lanes with
  // close diagonals share vectors: taking candidates in diagonal order
  // cut the BLASTX workload's batch cells by 18%. Results still land
  // at their candidate's index.
  std::vector<std::size_t>& order = ws.batch_order;
  order.resize(candidates.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return candidates[x].diagonal < candidates[y].diagonal;
  });
  for (const std::size_t k : order) {
    const PreparedSeq& subject = *candidates[k].subject;
    if (!batchable(subject)) {
      results[k] = banded_score_only(query, subject, profile,
                                     candidates[k].diagonal, band, gaps);
      continue;
    }
    lanes[count] = {subject.codes(), static_cast<long>(subject.size()),
                    candidates[k].diagonal};
    lane_index[count] = k;
    if (++count == detail::kBatchLanes) flush();
  }
  if (count > 0) flush();

  CounterNode& counters = local_counters();
  counters.cells.fetch_add(cells, std::memory_order_relaxed);
  counters.score_only.fetch_add(calls, std::memory_order_relaxed);
}

std::size_t band_rows(std::size_t n, std::size_t m, long diagonal, std::size_t band) {
  if (n == 0 || m == 0) return 0;
  const long b = static_cast<long>(std::min(band, n + m));
  const long rows = detail::band_row_end(static_cast<long>(n), static_cast<long>(m),
                                         diagonal, b) -
                    detail::band_row_begin(diagonal, b) + 1;
  return rows > 0 ? static_cast<std::size_t>(rows) : 0;
}

void banded_align_batch(std::span<const AlignmentPair> pairs,
                        const ScoringProfile& profile, std::size_t band,
                        const GapPenalties& gaps,
                        std::span<LocalAlignment> results) {
  if (results.size() != pairs.size()) {
    throw common::InvalidArgument(
        "banded_align_batch: results and pairs differ in size");
  }
  // The kernel scores cells by code equality at 16 bits and relies on a
  // mismatch lowering the score (steps past a lane's last row must not
  // raise its best); its band offsets must fit int16 and the pair indices
  // the 32-bit half of a sort key.
  const bool batch =
      profile.identity_scores() && profile.mismatch_score() < 0 &&
      use_avx2_16bit(profile, gaps) &&
      band <= static_cast<std::size_t>(std::numeric_limits<std::int16_t>::max() / 2) &&
      pairs.size() <= std::numeric_limits<std::uint32_t>::max();
  const std::size_t stride =
      batch ? static_cast<std::size_t>(detail::pair_tb_stride(static_cast<long>(band))) : 1;
  const std::size_t max_rows =
      batch ? detail::kPairBatchTracebackBytes / (detail::kBatchLanes * stride) : 0;
  const auto single = [&](std::size_t k) {
    results[k] = banded_align(*pairs[k].query, *pairs[k].subject, profile,
                              pairs[k].diagonal, band, gaps);
  };

  // Sort keys (rows << 32 | index): a batch runs as many steps as its
  // tallest lane, so lanes of similar row count belong together.
  DpWorkspace& ws = workspace();
  std::vector<std::size_t>& order = ws.batch_order;
  order.clear();
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const std::size_t n = pairs[k].query->size();
    const std::size_t m = pairs[k].subject->size();
    const std::size_t rows = batch ? band_rows(n, m, pairs[k].diagonal, band) : 0;
    // Like the row kernel, the batch needs an unclamped band and band rows
    // of at least 8 cells.
    if (rows == 0 || rows > max_rows || band > n + m ||
        detail::tb_width(static_cast<long>(m), static_cast<long>(band)) < 8) {
      single(k);
      continue;
    }
    order.push_back((static_cast<std::uint64_t>(rows) << 32) | k);
  }
  std::sort(order.begin(), order.end());
  // Sized for the tallest lane, the last in row order.
  std::vector<unsigned char> tb(
      order.empty() ? 0 : (order.back() >> 32) * stride * detail::kBatchLanes);

  detail::PairBatchParams pp;
  pp.match = profile.match_score();
  pp.mismatch = profile.mismatch_score();
  pp.open_cost = gaps.open + gaps.extend;
  pp.extend = gaps.extend;
  pp.band = static_cast<long>(band);
  detail::PairLane lanes[detail::kBatchLanes];
  KernelSummary lane_out[detail::kBatchLanes];
  std::uint64_t cells = 0;
  std::uint64_t calls = 0;
  for (std::size_t g = 0; g < order.size(); g += detail::kBatchLanes) {
    const std::size_t count = std::min(detail::kBatchLanes, order.size() - g);
    const auto index = [&](std::size_t l) {
      return static_cast<std::size_t>(order[g + l] & 0xffffffffULL);
    };
    // A short tail batch costs as much as a full one; a few lanes run
    // faster one by one.
    if (count < kMinPairBatchLanes) {
      for (std::size_t l = 0; l < count; ++l) single(index(l));
      continue;
    }
    for (std::size_t l = 0; l < count; ++l) {
      const AlignmentPair& p = pairs[index(l)];
      lanes[l] = {p.query->codes(), static_cast<long>(p.query->size()),
                  p.subject->codes(), static_cast<long>(p.subject->size()),
                  p.diagonal};
    }
    detail::banded_pair_batch_avx2(pp, lanes, count, ws, tb.data(), lane_out);
    for (std::size_t l = 0; l < count; ++l) {
      const std::size_t k = index(l);
      if (detail::needs_scalar_rerun(profile, lane_out[l].best)) {
        single(k);
        continue;
      }
      cells += detail::band_cells(lanes[l].n, lanes[l].m, lanes[l].diagonal, pp.band);
      ++calls;
      LocalAlignment aln;
      if (lane_out[l].best > 0) {
        walk_traceback(pairs[k].query->chars(), pairs[k].subject->chars(), lane_out[l],
                       &aln, [&](long i, long j) {
                         return detail::pair_batch_tb_byte(tb.data(), lanes[l], l,
                                                           pp.band, i, j);
                       });
      }
      results[k] = aln;
    }
  }

  CounterNode& counters = local_counters();
  counters.cells.fetch_add(cells, std::memory_order_relaxed);
  counters.tracebacks.fetch_add(calls, std::memory_order_relaxed);
}

LocalAlignment banded_align(std::string_view query, std::string_view subject,
                            const ScoringProfile& profile, long diagonal,
                            std::size_t band, const GapPenalties& gaps) {
  PreparedScratch& scratch = prepared_scratch();
  scratch.query.assign(query, profile);
  scratch.subject.assign(subject, profile);
  return banded_align(scratch.query, scratch.subject, profile, diagonal, band,
                      gaps);
}

ScoreOnlyResult banded_score_only(std::string_view query, std::string_view subject,
                                  const ScoringProfile& profile, long diagonal,
                                  std::size_t band, const GapPenalties& gaps) {
  PreparedScratch& scratch = prepared_scratch();
  scratch.query.assign(query, profile);
  scratch.subject.assign(subject, profile);
  return banded_score_only(scratch.query, scratch.subject, profile, diagonal,
                           band, gaps);
}

ScoreOnlyResult banded_score_only_dna(std::string_view query,
                                      std::string_view subject, long diagonal,
                                      std::size_t band, int match, int mismatch,
                                      const GapPenalties& gaps) {
  check_dna_params("banded_score_only_dna", match, mismatch);
  return banded_score_only(query, subject, dna_profile(match, mismatch), diagonal,
                           band, gaps);
}

LocalAlignment smith_waterman(std::string_view query, std::string_view subject,
                              const GapPenalties& gaps) {
  return banded_align(query, subject, ScoringProfile::protein_blosum62(),
                      /*diagonal=*/0, query.size() + subject.size() + 2, gaps);
}

LocalAlignment banded_smith_waterman(std::string_view query, std::string_view subject,
                                     long diagonal, std::size_t band,
                                     const GapPenalties& gaps) {
  return banded_align(query, subject, ScoringProfile::protein_blosum62(), diagonal,
                      band, gaps);
}

LocalAlignment smith_waterman_dna(std::string_view query, std::string_view subject,
                                  int match, int mismatch, const GapPenalties& gaps) {
  check_dna_params("smith_waterman_dna", match, mismatch);
  return banded_align(query, subject, dna_profile(match, mismatch), /*diagonal=*/0,
                      query.size() + subject.size() + 2, gaps);
}

LocalAlignment banded_smith_waterman_dna(std::string_view query,
                                         std::string_view subject, long diagonal,
                                         std::size_t band, int match, int mismatch,
                                         const GapPenalties& gaps) {
  check_dna_params("banded_smith_waterman_dna", match, mismatch);
  return banded_align(query, subject, dna_profile(match, mismatch), diagonal, band,
                      gaps);
}

DpCounters dp_counters() {
  DpCounters c;
  for (const CounterNode* node = g_counter_head.load(std::memory_order_acquire);
       node != nullptr; node = node->next) {
    c.cells += node->cells.load(std::memory_order_relaxed);
    c.tracebacks += node->tracebacks.load(std::memory_order_relaxed);
    c.score_only += node->score_only.load(std::memory_order_relaxed);
  }
  return c;
}

void reset_dp_counters() {
  for (CounterNode* node = g_counter_head.load(std::memory_order_acquire);
       node != nullptr; node = node->next) {
    node->cells.store(0, std::memory_order_relaxed);
    node->tracebacks.store(0, std::memory_order_relaxed);
    node->score_only.store(0, std::memory_order_relaxed);
  }
}

}  // namespace pga::align
