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

/// Reused per-thread DP storage. `band_rows` are the scalar kernel's six
/// rolling band-compressed rows; `col_rows` are the 16-bit row kernel's
/// six rolling absolute-column rows (index = subject column, 16 lanes of
/// slack for full-vector overreads/overstores past the band edge); `tb`
/// is the packed traceback band both kernels fill in the identical
/// [row * width + (col - row_lo)] layout. `batch_rows` and `batch_codes`
/// are the batch kernel's band-relative M/X/Y rows and its
/// [position][lane] subject codes; `batch_order` is the order a batched
/// call takes its candidates in. Capacity persists across calls, so the
/// steady-state kernels allocate nothing.
struct DpWorkspace {
  std::vector<int> band_rows[6];
  std::vector<std::int16_t> col_rows[6];
  std::vector<unsigned char> tb;
  std::vector<std::int16_t> batch_rows;
  std::vector<std::uint8_t> batch_codes;
  std::vector<std::size_t> batch_order;
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

/// True when banded_kernel_avx2 is compiled into this binary (the runtime
/// CPU check lives in cpu_supports_avx2()).
bool avx2_kernel_compiled();

}  // namespace pga::align::detail
