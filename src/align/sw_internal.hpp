// Internals shared by the scalar and SIMD banded-Gotoh kernels.
//
// Both implementations fill the same packed traceback layout and report
// the same (best, best_i, best_j, cells) summary, so the public entry
// points in sw.cpp can run either kernel and share one traceback walk,
// one counter update and one result struct. Nothing here is public API.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "align/scoring.hpp"

// The AVX2 kernel is compiled (behind a runtime CPU check) whenever the
// toolchain targets x86-64 with GCC/Clang function-level target support.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PGA_HAVE_AVX2_KERNEL 1
#else
#define PGA_HAVE_AVX2_KERNEL 0
#endif

namespace pga::align::detail {

constexpr int kNegInf = std::numeric_limits<int>::min() / 4;

/// The 16-bit vector kernels' out-of-band X/Y value. Every in-band X/Y is
/// >= -(open + extend), so with gap costs below kGapLimit16 the sentinel
/// and everything derived from it by saturating subtraction stays below
/// every in-band value — the comparisons come out as with kNegInf.
constexpr std::int16_t kNegInf16 = std::numeric_limits<std::int16_t>::min() / 2;
/// The 16-bit kernels run only when open + 16 * extend is below this.
constexpr long kGapLimit16 = -kNegInf16 / 2;

/// True when the 16-bit kernels compute exactly the scalar kernel's cells
/// for this profile and these gap costs (a run must still fall back to
/// scalar when its best score ends up near INT16_MAX; see
/// needs_scalar_rerun).
inline bool fits_16bit(const ScoringProfile& profile, const GapPenalties& gaps) {
  return profile.fits_int8() && gaps.open >= 0 && gaps.extend >= 0 &&
         static_cast<long>(gaps.open) + 16L * gaps.extend < kGapLimit16;
}

/// A 16-bit run whose best score came within max_score() of INT16_MAX may
/// have saturated an M cell; below that, no cell ever did.
inline bool needs_scalar_rerun(const ScoringProfile& profile, int best) {
  return best >= std::numeric_limits<std::int16_t>::max() - profile.max_score();
}

// Traceback states, packed one byte per in-band cell:
//   bits 0-1  M-state source (0 = local start, 1 = M, 2 = X, 3 = Y)
//   bit  2    X-state opened a gap here (else extended)
//   bit  3    Y-state opened a gap here (else extended)
constexpr unsigned char kMDirMask = 0x3;
constexpr unsigned char kDiagFromM = 1;
constexpr unsigned char kDiagFromX = 2;
constexpr unsigned char kYOpenBit = 0x8;
constexpr unsigned char kXOpenBit = 0x4;

/// The band of row i covers columns [row_lo, row_hi] (1-based, clamped to
/// [1, m]); empty when row_lo > row_hi.
inline long row_lo(long i, long diagonal, long band) {
  return i - diagonal - band < 1 ? 1 : i - diagonal - band;
}
inline long row_hi(long i, long diagonal, long band, long m) {
  return i - diagonal + band > m ? m : i - diagonal + band;
}

/// Traceback row width shared by both kernels: a band row never holds more
/// than min(m, 2*band+1) cells.
inline long tb_width(long m, long band) {
  return m < 2 * band + 1 ? m : 2 * band + 1;
}

/// Number of in-band cells of an n x m banded run: the sum over the
/// 2*band+1 diagonals d = i - j of the cells each has in the matrix.
/// `band` is pre-clamped to n + m, as the kernels see it.
inline std::uint64_t band_cells(long n, long m, long diagonal, long band) {
  std::uint64_t cells = 0;
  const long d_lo = std::max(diagonal - band, 1 - m);
  const long d_hi = std::min(diagonal + band, n - 1);
  for (long d = d_lo; d <= d_hi; ++d) {
    // Diagonal d holds rows max(1, 1 + d) .. min(n, m + d).
    cells += static_cast<std::uint64_t>(std::min(n, m + d) - std::max(1L, 1 + d) + 1);
  }
  return cells;
}

/// Rows of an n x m band around `diagonal` that hold an in-band cell: one
/// contiguous interval [band_row_begin, band_row_end] (empty when begin >
/// end), since the band needs i - diagonal + band >= 1 and
/// i - diagonal - band <= m.
inline long band_row_begin(long diagonal, long band) {
  return std::max(1L, diagonal - band + 1);
}
inline long band_row_end(long n, long m, long diagonal, long band) {
  return std::min(n, m + diagonal + band);
}

/// Reused per-thread DP storage. `band_rows` are the scalar kernel's six
/// rolling band-compressed rows; `col_rows` are the 16-bit row kernel's
/// six rolling absolute-column rows (index = subject column, 16 lanes of
/// slack for full-vector overreads/overstores past the band edge); `tb`
/// is the packed traceback band both kernels fill in the identical
/// [row * width + (col - row_lo)] layout. `batch_rows` and `batch_codes`
/// are the batch kernels' band-relative M/X/Y rows and their
/// [position][lane] subject codes; `batch_order` is the order a batched
/// call takes its candidates in. The pair-batch kernel adds its
/// [step][lane] query and [position][lane] subject code words
/// (`batch_query`, `batch_subject`); its traceback buffer belongs to the
/// banded_align_batch call, not to the thread. Capacity persists across
/// calls, so the steady-state kernels allocate nothing else.
struct DpWorkspace {
  std::vector<int> band_rows[6];
  std::vector<std::int16_t> col_rows[6];
  std::vector<unsigned char> tb;
  std::vector<std::int16_t> batch_rows;
  std::vector<std::uint8_t> batch_codes;
  std::vector<std::size_t> batch_order;
  std::vector<std::int16_t> batch_query;
  std::vector<std::int16_t> batch_subject;
};

/// One banded-Gotoh invocation, fully described. `band` is pre-clamped to
/// n + m; code pointers carry ScoringProfile::kCodePadding slack bytes.
struct KernelParams {
  const std::uint8_t* q_codes = nullptr;
  const std::uint8_t* s_codes = nullptr;
  long n = 0, m = 0;
  const ScoringProfile* profile = nullptr;
  int open_cost = 0;  ///< gaps.open + gaps.extend (cost of a length-1 gap)
  int extend = 0;
  long diagonal = 0, band = 0;
};

/// What a kernel reports back: the best substitution-state score, the
/// first cell attaining it in row-major scan order, and the number of
/// in-band cells evaluated (the DpCounters increment).
struct KernelSummary {
  int best = 0;
  long best_i = 0, best_j = 0;
  std::uint64_t cells = 0;
};

/// AVX2 16-bit row-vectorized kernel (sw_simd_avx2.cpp). Requires
/// tb_width(m, band) >= 8, fits_16bit() and cpu_supports_avx2(); fills
/// ws.tb when `traceback`, cell-for-cell identical to the scalar kernel
/// unless needs_scalar_rerun() holds for the returned best.
KernelSummary banded_kernel_avx2(const KernelParams& kp, DpWorkspace& ws,
                                 bool traceback);

/// Lanes per batch-kernel call.
constexpr std::size_t kBatchLanes = 16;

/// One lane of the batch kernel: a subject and the diagonal to band on.
struct BatchLane {
  const std::uint8_t* s_codes = nullptr;
  long m = 0;
  long diagonal = 0;
};

/// AVX2 16-bit score-only kernel over up to kBatchLanes (subject,
/// diagonal) lanes that share the query, profile, gaps and band
/// (kp.s_codes, kp.m and kp.diagonal are unused). Every lane needs
/// m >= 1, band <= n + m and tb_width(m, band) >= 8, and
/// 2 * band + 1 <= INT16_MAX; the profile and gaps must pass fits_16bit().
/// Writes best, best_i, best_j per lane into out[0, count); cells are
/// left 0 (the caller counts them with band_cells).
void banded_batch_avx2(const KernelParams& kp, const BatchLane* lanes,
                       std::size_t count, DpWorkspace& ws, KernelSummary* out);

/// Bytes per lane and step of the pair-batch traceback buffer, laid out
/// [step][t / 2][lane]: a byte holds the 4-bit traceback states of
/// offsets 2u (low nibble) and 2u + 1.
inline long pair_tb_stride(long band) { return band + 1; }

/// Upper bound on the pair-batch kernel's traceback buffer: a lane is
/// batched only when its steps * kBatchLanes * pair_tb_stride(band)
/// bytes fit. It also keeps every (step, offset) cell key below 2^16.
/// The buffer lives for one banded_align_batch call: kept per thread, it
/// would outlive the call in every pool and slot thread.
constexpr std::size_t kPairBatchTracebackBytes = std::size_t{1} << 19;

/// One lane of the pair-batch kernel: its own query, subject and diagonal.
struct PairLane {
  const std::uint8_t* q_codes = nullptr;
  long n = 0;
  const std::uint8_t* s_codes = nullptr;
  long m = 0;
  long diagonal = 0;
};

/// The shared settings of one pair-batch call: an identity profile's
/// scores (ScoringProfile::identity_scores(), with mismatch < 0), the gap
/// model and the band.
struct PairBatchParams {
  int match = 0;
  int mismatch = 0;
  int open_cost = 0;  ///< gaps.open + gaps.extend
  int extend = 0;
  long band = 0;
};

/// AVX2 16-bit traceback kernel over up to kBatchLanes unrelated pairs.
/// Lane l runs rows band_row_begin .. band_row_end of its own pair, one
/// row per step, so lanes with similar row counts belong together. Every
/// lane needs n, m >= 1, band <= n + m, tb_width(m, band) >= 8,
/// 2 * band + 1 <= INT16_MAX and its steps times kBatchLanes *
/// pair_tb_stride(band) within kPairBatchTracebackBytes; match, mismatch
/// and the gaps must pass fits_16bit() as a dna() profile would, with
/// mismatch < 0. Writes best, best_i,
/// best_j per lane into out[0, count) (cells left 0) and fills `tb`
/// (steps * kBatchLanes * pair_tb_stride(band) bytes) so that
/// pair_batch_tb_byte() reads the scalar kernel's traceback byte of any
/// cell; all exact unless needs_scalar_rerun() holds for the best.
void banded_pair_batch_avx2(const PairBatchParams& pp, const PairLane* lanes,
                            std::size_t count, DpWorkspace& ws, unsigned char* tb,
                            KernelSummary* out);

/// Traceback byte of cell (i, j) of lane `lane` after
/// banded_pair_batch_avx2: 0 outside the lane's band, as the scalar
/// kernel's walk reads there.
inline unsigned char pair_batch_tb_byte(const unsigned char* tb, const PairLane& lane,
                                        std::size_t lane_index, long band, long i,
                                        long j) {
  const long step = i - band_row_begin(lane.diagonal, band);
  const long t = j - (i - lane.diagonal - band);
  if (step < 0 || t < 0 || t > 2 * band) return 0;
  const unsigned char pair =
      tb[(static_cast<std::size_t>(step) * static_cast<std::size_t>(pair_tb_stride(band)) +
          static_cast<std::size_t>(t / 2)) *
             kBatchLanes +
         lane_index];
  return (t & 1) != 0 ? pair >> 4 : pair & 0xf;
}

/// True when banded_kernel_avx2 is compiled into this binary (the runtime
/// CPU check lives in cpu_supports_avx2()).
bool avx2_kernel_compiled();

}  // namespace pga::align::detail
