// AVX2 16-bit banded Gotoh kernels: a row kernel for one pair, a
// score-only batch kernel for up to 16 (subject, diagonal) candidates of
// one query, and a traceback batch kernel for up to 16 unrelated pairs.
//
// Both run the scalar kernel's recurrence in sw.cpp on 16 int16 lanes per
// vector — never a different cell value:
//
//   * Substitution scores need no gather. The profile's int8 copy holds
//     one 32-byte row per query code; two `pshufb` lookups on the subject
//     codes (low and high 16 entries), a blend on code bit 4 and a sign
//     extension give 16 int16 scores.
//   * Arithmetic saturates (adds/subs_epi16), and saturation never changes
//     a cell the scalar kernel would keep. Every in-band M is >= 0 and
//     every in-band X/Y is >= -(open + extend): each has a gap-open term
//     from an M that is >= 0, or from an out-of-band M that reads as 0.
//     So only values derived from the out-of-band sentinel kNegInf16 can
//     saturate low, and they stay below every in-band value, so they
//     compare as kNegInf did in 32 bits (fits_16bit() keeps the gap costs
//     well clear of the sentinel). High saturation would first show as an
//     M cell of INT16_MAX, and every X/Y value is at most some M, so the
//     best score is the largest value in the band: when it comes within
//     max_score() of INT16_MAX the caller reruns the pair on the scalar
//     kernel (needs_scalar_rerun()).
//
// Row kernel. M (substitution) and Y (gap-in-subject) depend only on the
// previous row, so each row computes them 16 columns at a time. X
// (gap-in-query) carries the one intra-row dependency,
// X[j] = max(M[j-1] - open, X[j-1] - extend), which expands to a
// max-prefix scan with linear decay: X[j] = max_k(c[k] - (j-k)·extend)
// over the vector's gap-open candidates c, maxed with the previous
// vector's last X minus (lane+1)·extend. The scan is Kogge–Stone: shifts
// by 1, 2, 4 and 8 lanes (permute2x128 + alignr), subtracting d·extend
// per step. Unlike Farrar's query-striped layout (which assumes
// a full, unbanded matrix and a lazy-F fixup), this keeps the band's
// row-major order, so out-of-band defaults (M = 0, X = Y = -inf), the
// in-band cell count and the packed traceback band (16 bytes per store,
// in the scalar kernel's layout) are bit-compatible with the scalar
// kernel, and sw.cpp walks the traceback the same way for both.
//
// Rows live in absolute-column arrays (index = subject column) with 16
// lanes of slack: full vectors may read/write up to 15 lanes past the
// band edge. Dead lanes compute values that are never consumed — the
// row-max update masks them, the boundary columns the next row reads
// beyond the written band are re-patched to out-of-band defaults, and
// the traceback walk only visits in-band bytes.
//
// Batch kernel. Lanes are candidates, in a band-relative layout: lane
// offset t in row i is column i - diagonal - band + t. There M reads the
// previous row at the same t, Y reads it at t + 1, and X reads the
// current row at t - 1, so no vector needs an intra-vector scan and the
// 16 lanes are independent. Each row is updated in place in ascending t.
// The subject codes are copied once per batch into a [position][lane]
// byte buffer (position = i + t), so the codes of cell (i, t) for all 16
// lanes are one 16-byte load; cells outside a lane's matrix carry a code
// with bit 7 set (pshufb yields 0 for it) and are forced to M = 0,
// X = Y = -inf, the values the scalar kernel reads outside the band.
// The best cell per lane is tracked with a strict greater-than as (i, t)
// in ascending row and column order, the scalar kernel's row-major scan.
//
// Pair-batch kernel. The same band-relative layout, but every lane is its
// own (query, subject, diagonal) pair and steps through its own band
// rows: step s is row band_row_begin + s of the lane's pair. Only
// identity profiles qualify, so a cell scores by comparing int16 code
// words (query words by step, subject words by position s + t) instead
// of looking up a table row. Cells outside a lane's matrix need no mask,
// because the mismatch is negative: left of the matrix every cell reads
// only cells left of it or the initial row, so M stays 0 and X, Y stay
// at or below -(open + extend), the values the scalar kernel reads out
// of band. Right of the matrix, and in the steps past a lane's last row
// (whose query word never matches), every M is a mismatch below some
// earlier cell, so below the lane's best, and no cell in the matrix
// reads them. The best cell is the largest unsigned key step * width + t
// among strict improvements. Traceback states are 4 bits; two offsets
// share a byte of the caller's [step][t / 2][lane] buffer.
#include "align/sw_internal.hpp"

#if PGA_HAVE_AVX2_KERNEL

#include <immintrin.h>

#include <algorithm>
#include <cstring>

namespace pga::align::detail {

namespace {

#define PGA_AVX2_INLINE \
  __attribute__((target("avx2"), always_inline)) static inline

/// result[l] = v[l - D] for l >= D, else prev[16 + l - D]: v shifted up by
/// D int16 lanes, the low lanes filled from the top lanes of `prev`.
template <int D>
PGA_AVX2_INLINE __m256i shift_in(__m256i v, __m256i prev) {
  // t = [prev.hi, v.lo]; for D < 8 alignr joins each 128-bit half of v
  // with the half below it.
  const __m256i t = _mm256_permute2x128_si256(v, prev, 0x03);
  if constexpr (D == 8) {
    return t;
  } else {
    return _mm256_alignr_epi8(v, t, 16 - 2 * D);
  }
}

/// 16 int16 substitution scores of one query code (its int8 row split in
/// `lo`/`hi` halves) against 16 subject codes. Codes with bit 7 set score 0.
PGA_AVX2_INLINE __m256i substitution_scores(__m128i lo, __m128i hi,
                                            __m128i codes) {
  const __m128i from_lo = _mm_shuffle_epi8(lo, codes);
  const __m128i from_hi = _mm_shuffle_epi8(hi, codes);
  // Bit 4 of each code byte moves to bit 7, the blend's selector bit
  // (a 16-bit shift never carries into a byte's own bit 7).
  const __m128i pick_hi = _mm_slli_epi16(codes, 3);
  return _mm256_cvtepi8_epi16(_mm_blendv_epi8(from_lo, from_hi, pick_hi));
}

/// Every lane = lane 15 of v.
PGA_AVX2_INLINE __m256i broadcast_last(__m256i v) {
  // Each dword becomes dword 7 (lanes 14, 15); bytes 2-3 pick lane 15.
  const __m256i pair = _mm256_permutevar8x32_epi32(v, _mm256_set1_epi32(7));
  return _mm256_shuffle_epi8(pair, _mm256_set1_epi16(0x0302));
}

PGA_AVX2_INLINE int hmax_epi16(__m256i v) {
  __m128i a =
      _mm_max_epi16(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  a = _mm_max_epi16(a, _mm_srli_si128(a, 8));
  a = _mm_max_epi16(a, _mm_srli_si128(a, 4));
  a = _mm_max_epi16(a, _mm_srli_si128(a, 2));
  return static_cast<std::int16_t>(_mm_cvtsi128_si32(a));
}

template <bool Traceback>
__attribute__((target("avx2"))) KernelSummary avx2_kernel(const KernelParams& kp,
                                                          DpWorkspace& ws) {
  const long n = kp.n;
  const long m = kp.m;
  const long diagonal = kp.diagonal;
  const long band = kp.band;
  const long width = tb_width(m, band);
  KernelSummary res;

  const long i_begin = band_row_begin(diagonal, band);
  const long i_end = band_row_end(n, m, diagonal, band);
  if (i_begin > i_end) return res;

  const std::size_t cols = static_cast<std::size_t>(m) + 1 + 16;
  for (auto& row : ws.col_rows) row.resize(cols);
  if (Traceback) {
    ws.tb.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(width) +
                 16);
  }

  std::int16_t* pm = ws.col_rows[0].data();
  std::int16_t* px = ws.col_rows[1].data();
  std::int16_t* py = ws.col_rows[2].data();
  std::int16_t* cm = ws.col_rows[3].data();
  std::int16_t* cx = ws.col_rows[4].data();
  std::int16_t* cy = ws.col_rows[5].data();

  const auto ext = static_cast<std::int16_t>(kp.extend);
  const __m256i vzero = _mm256_setzero_si256();
  const __m256i vone = _mm256_set1_epi16(1);
  const __m256i vdir2 = _mm256_set1_epi16(2);
  const __m256i vdir3 = _mm256_set1_epi16(3);
  const __m256i vneg = _mm256_set1_epi16(kNegInf16);
  const __m256i vopen = _mm256_set1_epi16(static_cast<std::int16_t>(kp.open_cost));
  const __m256i vext = _mm256_set1_epi16(ext);
  const __m256i vext2 = _mm256_set1_epi16(static_cast<std::int16_t>(2 * ext));
  const __m256i vext4 = _mm256_set1_epi16(static_cast<std::int16_t>(4 * ext));
  const __m256i vext8 = _mm256_set1_epi16(static_cast<std::int16_t>(8 * ext));
  const __m256i vdecay = _mm256_mullo_epi16(
      vext, _mm256_setr_epi16(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16));
  const __m256i all_lanes = _mm256_cmpeq_epi16(vzero, vzero);
  const __m256i vxbit = _mm256_set1_epi16(kXOpenBit);
  const __m256i vybit = _mm256_set1_epi16(kYOpenBit);
  const __m256i lane_idx = _mm256_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                             11, 12, 13, 14, 15);

  // Seed the previous row with out-of-band defaults over the first row's
  // read span; later rows only re-patch the <=1 column the band grew by.
  {
    const long lo0 = row_lo(i_begin, diagonal, band);
    const long hi0 = row_hi(i_begin, diagonal, band, m);
    for (long c = lo0 - 1; c <= hi0; ++c) {
      pm[c] = 0;
      px[c] = kNegInf16;
      py[c] = kNegInf16;
    }
  }
  long valid_hi = row_hi(i_begin, diagonal, band, m);

  for (long i = i_begin; i <= i_end; ++i) {
    const long lo = row_lo(i, diagonal, band);
    const long hi = row_hi(i, diagonal, band, m);
    res.cells += static_cast<std::uint64_t>(hi - lo + 1);
    // Columns the band grew into read as out-of-band in the previous row
    // (and overwrite any dead-lane values a full-vector store left).
    for (long c = valid_hi + 1; c <= hi; ++c) {
      pm[c] = 0;
      px[c] = kNegInf16;
      py[c] = kNegInf16;
    }
    // Column lo-1 of the current row is out-of-band: the next row's
    // diagonal reads land here.
    cm[lo - 1] = 0;
    cx[lo - 1] = kNegInf16;
    cy[lo - 1] = kNegInf16;

    const std::int8_t* srow = kp.profile->row8(kp.q_codes[i - 1]);
    const __m128i tbl_lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(srow));
    const __m128i tbl_hi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(srow + 16));
    unsigned char* tb_row =
        Traceback
            ? ws.tb.data() + static_cast<std::size_t>(i - 1) *
                                 static_cast<std::size_t>(width)
            : nullptr;
    __m256i rowmax = vzero;
    // In-band lanes of the row's last vector.
    const __m256i last_valid = _mm256_cmpgt_epi16(
        _mm256_set1_epi16(static_cast<std::int16_t>((hi - lo) % 16 + 1)), lane_idx);
    // The previous vector's M and X; lane 15 holds column j0-1. Kept in
    // registers: reloading cm/cx at j0-1 right after the j0 store is a
    // partial-overlap load that defeats store-to-load forwarding.
    __m256i m_before = vzero;  // M at (i, lo-1) = 0
    __m256i x_before = vneg;   // X at (i, lo-1) = -inf

    for (long j0 = lo; j0 <= hi; j0 += 16) {
      // M state (and traceback direction) from the previous row.
      const __m256i sub = substitution_scores(
          tbl_lo, tbl_hi,
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(kp.s_codes + j0 - 1)));
      const __m256i md =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pm + j0 - 1));
      const __m256i xd =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(px + j0 - 1));
      const __m256i yd =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(py + j0 - 1));
      __m256i from;
      __m256i dir = vzero;
      if constexpr (Traceback) {
        // dir = first strict improver over the running max, in the scalar
        // kernel's 0, M, X, Y comparison order.
        from = vzero;
        const __m256i c1 = _mm256_cmpgt_epi16(md, from);
        from = _mm256_max_epi16(from, md);
        dir = _mm256_and_si256(c1, vone);
        const __m256i c2 = _mm256_cmpgt_epi16(xd, from);
        from = _mm256_max_epi16(from, xd);
        dir = _mm256_blendv_epi8(dir, vdir2, c2);
        const __m256i c3 = _mm256_cmpgt_epi16(yd, from);
        from = _mm256_max_epi16(from, yd);
        dir = _mm256_blendv_epi8(dir, vdir3, c3);
      } else {
        from = _mm256_max_epi16(_mm256_max_epi16(md, xd),
                                _mm256_max_epi16(yd, vzero));
      }
      const __m256i m_raw = _mm256_adds_epi16(from, sub);
      const __m256i m_val = _mm256_max_epi16(m_raw, vzero);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(cm + j0), m_val);

      // Y state — previous row only.
      const __m256i pmj =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pm + j0));
      const __m256i pyj =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(py + j0));
      const __m256i y_open = _mm256_subs_epi16(pmj, vopen);
      const __m256i y_ext = _mm256_subs_epi16(pyj, vext);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(cy + j0),
                          _mm256_max_epi16(y_open, y_ext));

      // Track the row maximum over in-band lanes only (M >= 0, so a
      // zeroed dead lane never wins).
      rowmax = _mm256_max_epi16(
          rowmax, _mm256_and_si256(m_val, j0 + 15 <= hi ? all_lanes : last_valid));

      // X state: gap-open candidates from the left-neighbour M (m_val
      // shifted one lane, column j0-1 from the previous vector), their
      // decaying max scan, then the previous vector's last X decayed
      // across the lanes. Applying that carry after the scan keeps the
      // chain between vectors short.
      const __m256i a = _mm256_subs_epi16(shift_in<1>(m_val, m_before), vopen);
      __m256i v = a;
      v = _mm256_max_epi16(v, _mm256_subs_epi16(shift_in<1>(v, vneg), vext));
      v = _mm256_max_epi16(v, _mm256_subs_epi16(shift_in<2>(v, vneg), vext2));
      v = _mm256_max_epi16(v, _mm256_subs_epi16(shift_in<4>(v, vneg), vext4));
      v = _mm256_max_epi16(v, _mm256_subs_epi16(shift_in<8>(v, vneg), vext8));
      const __m256i x_val = _mm256_max_epi16(
          v, _mm256_subs_epi16(broadcast_last(x_before), vdecay));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(cx + j0), x_val);

      if constexpr (Traceback) {
        // dir survives only where the unclamped M is positive; the gap
        // bits record open-vs-extend ties exactly like the scalar kernel
        // (>= favors opening).
        __m256i tb16 = _mm256_and_si256(dir, _mm256_cmpgt_epi16(m_raw, vzero));
        tb16 = _mm256_or_si256(
            tb16, _mm256_andnot_si256(_mm256_cmpgt_epi16(y_ext, y_open), vybit));
        const __m256i x_ext_v =
            _mm256_subs_epi16(shift_in<1>(x_val, x_before), vext);
        tb16 = _mm256_or_si256(
            tb16, _mm256_andnot_si256(_mm256_cmpgt_epi16(x_ext_v, a), vxbit));
        // 16 small values to 16 bytes (dead lanes land at offsets the
        // walk never visits).
        const __m128i p8 = _mm_packus_epi16(_mm256_castsi256_si128(tb16),
                                            _mm256_extracti128_si256(tb16, 1));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(tb_row + (j0 - lo)), p8);
      }

      m_before = m_val;
      x_before = x_val;
    }

    // The scalar kernel's strictly-greater update records the first cell
    // (row-major) attaining the final maximum, i.e. the first row that
    // improves the running best, and within it the first occurrence of
    // the row maximum.
    const __m256i improves = _mm256_cmpgt_epi16(
        rowmax, _mm256_set1_epi16(static_cast<std::int16_t>(res.best)));
    if (_mm256_movemask_epi8(improves) != 0) {
      const int row_max = hmax_epi16(rowmax);
      res.best = row_max;
      res.best_i = i;
      // First column holding the maximum, 16 columns per compare. Only
      // lanes past hi hold dead values, and the maximum sits at or before
      // hi, so the first hit is always in band.
      const __m256i target = _mm256_set1_epi16(static_cast<std::int16_t>(row_max));
      for (long j0 = lo;; j0 += 16) {
        const unsigned hits = static_cast<unsigned>(_mm256_movemask_epi8(
            _mm256_cmpeq_epi16(
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cm + j0)),
                target)));
        if (hits != 0) {
          res.best_j = j0 + __builtin_ctz(hits) / 2;
          break;
        }
      }
    }

    std::swap(pm, cm);
    std::swap(px, cx);
    std::swap(py, cy);
    valid_hi = hi;
  }
  return res;
}

/// Subject code of a batch cell outside its lane's matrix.
constexpr std::uint8_t kOutsideCode = 0x80;

__attribute__((target("avx2"))) void batch_kernel(const KernelParams& kp,
                                                  const BatchLane* lanes,
                                                  std::size_t count,
                                                  DpWorkspace& ws,
                                                  KernelSummary* out) {
  const long n = kp.n;
  const long band = kp.band;
  const long width = 2 * band + 1;  // offsets t = 0 .. 2*band
  for (std::size_t l = 0; l < count; ++l) out[l] = KernelSummary{};

  // Rows where some lane has a cell.
  long i_begin = n + 1;
  long i_end = 0;
  for (std::size_t l = 0; l < count; ++l) {
    i_begin = std::min(i_begin, band_row_begin(lanes[l].diagonal, band));
    i_end = std::max(i_end, band_row_end(n, lanes[l].m, lanes[l].diagonal, band));
  }
  if (i_begin > i_end) return;

  // Codes by position p = i + t, rows p - i_begin; lane l's column at p is
  // j = p - diagonal - band, inside the matrix for 1 <= j <= m.
  const long positions = i_end - i_begin + 1 + 2 * band;
  ws.batch_codes.resize(static_cast<std::size_t>(positions) * kBatchLanes);
  std::uint8_t* codes = ws.batch_codes.data();
  std::memset(codes, kOutsideCode, ws.batch_codes.size());
  for (std::size_t l = 0; l < count; ++l) {
    const long shift = lanes[l].diagonal + band;
    const long p_lo = std::max(i_begin, shift + 1);
    const long p_hi = std::min(i_begin + positions - 1, shift + lanes[l].m);
    const std::uint8_t* s = lanes[l].s_codes;
    for (long p = p_lo; p <= p_hi; ++p) {
      codes[static_cast<std::size_t>(p - i_begin) * kBatchLanes + l] =
          s[p - shift - 1];
    }
  }

  // One band row of M, X and Y per lane, updated in place. Slot `width`
  // of M and Y is the out-of-band column right of the band, never written.
  const std::size_t slots = static_cast<std::size_t>(width) + 1;
  ws.batch_rows.resize(3 * slots * kBatchLanes);
  std::int16_t* rm = ws.batch_rows.data();
  std::int16_t* rx = rm + slots * kBatchLanes;
  std::int16_t* ry = rx + slots * kBatchLanes;
  std::fill(rm, rm + slots * kBatchLanes, std::int16_t{0});
  std::fill(rx, ry + slots * kBatchLanes, kNegInf16);

  const __m256i vzero = _mm256_setzero_si256();
  const __m256i vone = _mm256_set1_epi16(1);
  const __m256i vneg = _mm256_set1_epi16(kNegInf16);
  const __m256i vopen = _mm256_set1_epi16(static_cast<std::int16_t>(kp.open_cost));
  const __m256i vext = _mm256_set1_epi16(static_cast<std::int16_t>(kp.extend));
  const auto at = [](std::int16_t* row, long t) {
    return reinterpret_cast<__m256i*>(row + static_cast<std::size_t>(t) * kBatchLanes);
  };

  __m256i best = vzero;
  __m256i best_t = vzero;
  long best_i[kBatchLanes] = {};
  for (long i = i_begin; i <= i_end; ++i) {
    const std::int8_t* srow = kp.profile->row8(kp.q_codes[i - 1]);
    const __m128i tbl_lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(srow));
    const __m128i tbl_hi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(srow + 16));
    const std::uint8_t* row_codes =
        codes + static_cast<std::size_t>(i - i_begin) * kBatchLanes;
    const __m256i best_before = best;
    __m256i m_left = vzero;  // column left of the band: M = 0, X = -inf
    __m256i x_left = vneg;
    __m256i m_up = _mm256_loadu_si256(at(rm, 0));  // previous row, offset t
    __m256i y_up = _mm256_loadu_si256(at(ry, 0));
    __m256i t_vec = vzero;
    for (long t = 0; t < width; ++t) {
      const __m128i c8 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
          row_codes + static_cast<std::size_t>(t) * kBatchLanes));
      const __m256i sub = substitution_scores(tbl_lo, tbl_hi, c8);
      const __m256i outside = _mm256_srai_epi16(_mm256_cvtepi8_epi16(c8), 15);
      const __m256i x_up = _mm256_loadu_si256(at(rx, t));
      const __m256i m_up_next = _mm256_loadu_si256(at(rm, t + 1));
      const __m256i y_up_next = _mm256_loadu_si256(at(ry, t + 1));

      const __m256i from = _mm256_max_epi16(_mm256_max_epi16(m_up, x_up),
                                            _mm256_max_epi16(y_up, vzero));
      const __m256i m_val = _mm256_andnot_si256(
          outside, _mm256_max_epi16(_mm256_adds_epi16(from, sub), vzero));
      const __m256i y_val = _mm256_blendv_epi8(
          _mm256_max_epi16(_mm256_subs_epi16(m_up_next, vopen),
                           _mm256_subs_epi16(y_up_next, vext)),
          vneg, outside);
      const __m256i x_val = _mm256_blendv_epi8(
          _mm256_max_epi16(_mm256_subs_epi16(m_left, vopen),
                           _mm256_subs_epi16(x_left, vext)),
          vneg, outside);
      _mm256_storeu_si256(at(rm, t), m_val);
      _mm256_storeu_si256(at(rx, t), x_val);
      _mm256_storeu_si256(at(ry, t), y_val);

      const __m256i gt = _mm256_cmpgt_epi16(m_val, best);
      best = _mm256_max_epi16(best, m_val);
      best_t = _mm256_blendv_epi8(best_t, t_vec, gt);
      t_vec = _mm256_add_epi16(t_vec, vone);

      m_left = m_val;
      x_left = x_val;
      m_up = m_up_next;
      y_up = y_up_next;
    }
    // Two mask bits per int16 lane.
    unsigned improved = static_cast<unsigned>(
        _mm256_movemask_epi8(_mm256_cmpgt_epi16(best, best_before)));
    while (improved != 0) {
      best_i[__builtin_ctz(improved) / 2] = i;
      improved &= improved - 1;
      improved &= improved - 1;
    }
  }

  alignas(32) std::int16_t best_lanes[kBatchLanes];
  alignas(32) std::int16_t best_t_lanes[kBatchLanes];
  _mm256_store_si256(reinterpret_cast<__m256i*>(best_lanes), best);
  _mm256_store_si256(reinterpret_cast<__m256i*>(best_t_lanes), best_t);
  for (std::size_t l = 0; l < count; ++l) {
    if (best_lanes[l] <= 0) continue;
    out[l].best = best_lanes[l];
    out[l].best_i = best_i[l];
    out[l].best_j = best_i[l] - lanes[l].diagonal - band + best_t_lanes[l];
  }
}

/// Pair-batch code words: a query code by step, a subject code by
/// position. Outside its lane's matrix a subject word is kOutside; the
/// catch-all query code, the steps past a lane's last row and unused lanes
/// take kNeverMatches. Neither equals any word of the other side.
constexpr std::int16_t kOutside = -1;
constexpr std::int16_t kNeverMatches = 0x40;

/// The pair-batch kernel's loop-invariant vectors.
struct PairConstants {
  __m256i zero, one, dir2, dir3, mismatch, gain, open, ext, xbit, ybit;
};

__attribute__((target("avx2"))) PairConstants pair_constants(const PairBatchParams& pp) {
  PairConstants k;
  k.zero = _mm256_setzero_si256();
  k.one = _mm256_set1_epi16(1);
  k.dir2 = _mm256_set1_epi16(2);
  k.dir3 = _mm256_set1_epi16(3);
  k.mismatch = _mm256_set1_epi16(static_cast<std::int16_t>(pp.mismatch));
  k.gain = _mm256_set1_epi16(static_cast<std::int16_t>(pp.match - pp.mismatch));
  k.open = _mm256_set1_epi16(static_cast<std::int16_t>(pp.open_cost));
  k.ext = _mm256_set1_epi16(static_cast<std::int16_t>(pp.extend));
  k.xbit = _mm256_set1_epi16(kXOpenBit);
  k.ybit = _mm256_set1_epi16(kYOpenBit);
  return k;
}

/// What the pair-batch kernel carries from cell to cell: the left
/// neighbour's M and X, the previous row's M and Y at this offset, and
/// the best-cell tracking.
struct PairState {
  __m256i m_left, x_left, m_up, y_up, best, best_key, key;
};

PGA_AVX2_INLINE __m256i* pair_row(std::int16_t* row, long t) {
  return reinterpret_cast<__m256i*>(row + static_cast<std::size_t>(t) * kBatchLanes);
}

/// 16 int16 values below 256 to 16 bytes at `out`.
PGA_AVX2_INLINE void store_tb_bytes(unsigned char* out, __m256i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                   _mm_packus_epi16(_mm256_castsi256_si128(v),
                                    _mm256_extracti128_si256(v, 1)));
}

/// One cell (offset t of the current step) for all 16 lanes: updates the
/// band rows in place and the state, and returns the scalar kernel's
/// traceback byte of each lane's cell.
PGA_AVX2_INLINE __m256i pair_cell(PairState& st, const PairConstants& k, __m256i q16,
                                  const std::int16_t* step_subject, std::int16_t* rm,
                                  std::int16_t* rx, std::int16_t* ry, long t) {
  const __m256i s16 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
      step_subject + static_cast<std::size_t>(t) * kBatchLanes));
  const __m256i sub = _mm256_add_epi16(
      k.mismatch, _mm256_and_si256(_mm256_cmpeq_epi16(s16, q16), k.gain));
  const __m256i x_up = _mm256_loadu_si256(pair_row(rx, t));
  const __m256i m_up_next = _mm256_loadu_si256(pair_row(rm, t + 1));
  const __m256i y_up_next = _mm256_loadu_si256(pair_row(ry, t + 1));

  // dir = first strict improver over the running max, in the scalar
  // kernel's 0, M, X, Y comparison order: the largest of 1, 2, 3 whose
  // comparison holds.
  __m256i from = _mm256_max_epi16(st.m_up, k.zero);
  __m256i dir = _mm256_and_si256(_mm256_cmpgt_epi16(st.m_up, k.zero), k.one);
  dir = _mm256_max_epi16(dir, _mm256_and_si256(_mm256_cmpgt_epi16(x_up, from), k.dir2));
  from = _mm256_max_epi16(from, x_up);
  dir = _mm256_max_epi16(dir, _mm256_and_si256(_mm256_cmpgt_epi16(st.y_up, from), k.dir3));
  from = _mm256_max_epi16(from, st.y_up);
  const __m256i m_raw = _mm256_adds_epi16(from, sub);
  const __m256i m_val = _mm256_max_epi16(m_raw, k.zero);

  const __m256i y_open = _mm256_subs_epi16(m_up_next, k.open);
  const __m256i y_ext = _mm256_subs_epi16(y_up_next, k.ext);
  const __m256i x_open = _mm256_subs_epi16(st.m_left, k.open);
  const __m256i x_ext = _mm256_subs_epi16(st.x_left, k.ext);
  const __m256i x_val = _mm256_max_epi16(x_open, x_ext);
  _mm256_storeu_si256(pair_row(rm, t), m_val);
  _mm256_storeu_si256(pair_row(rx, t), x_val);
  _mm256_storeu_si256(pair_row(ry, t), _mm256_max_epi16(y_open, y_ext));

  st.best_key = _mm256_max_epu16(
      st.best_key, _mm256_and_si256(_mm256_cmpgt_epi16(m_val, st.best), st.key));
  st.best = _mm256_max_epi16(st.best, m_val);
  st.key = _mm256_add_epi16(st.key, k.one);
  st.m_left = m_val;
  st.x_left = x_val;
  st.m_up = m_up_next;
  st.y_up = y_up_next;

  // dir where M stays positive, and the gap bits where opening ties or
  // beats extending.
  __m256i tb16 = _mm256_and_si256(dir, _mm256_cmpgt_epi16(m_raw, k.zero));
  tb16 = _mm256_or_si256(tb16, _mm256_andnot_si256(_mm256_cmpgt_epi16(y_ext, y_open), k.ybit));
  return _mm256_or_si256(tb16,
                         _mm256_andnot_si256(_mm256_cmpgt_epi16(x_ext, x_open), k.xbit));
}

__attribute__((target("avx2"))) void pair_batch_kernel(const PairBatchParams& pp,
                                                       const PairLane* lanes,
                                                       std::size_t count,
                                                       DpWorkspace& ws,
                                                       unsigned char* tb,
                                                       KernelSummary* out) {
  const long band = pp.band;
  const long width = 2 * band + 1;  // offsets t = 0 .. 2*band
  long begin[kBatchLanes] = {};
  long rows[kBatchLanes] = {};
  long steps = 0;
  for (std::size_t l = 0; l < count; ++l) {
    out[l] = KernelSummary{};
    begin[l] = band_row_begin(lanes[l].diagonal, band);
    rows[l] = band_row_end(lanes[l].n, lanes[l].m, lanes[l].diagonal, band) -
              begin[l] + 1;
    steps = std::max(steps, rows[l]);
  }
  if (steps <= 0) return;

  // Query words by step: lane l's step s is row begin[l] + s.
  ws.batch_query.assign(static_cast<std::size_t>(steps) * kBatchLanes, kNeverMatches);
  std::int16_t* query = ws.batch_query.data();
  for (std::size_t l = 0; l < count; ++l) {
    const std::uint8_t* q = lanes[l].q_codes + (begin[l] - 1);
    for (long r = 0; r < rows[l]; ++r) {
      query[static_cast<std::size_t>(r) * kBatchLanes + l] =
          q[r] == ScoringProfile::kDnaOtherCode ? kNeverMatches : q[r];
    }
  }

  // Subject words by position p = s + t: lane l's column there is
  // j = begin[l] - diagonal - band + p, inside the matrix for 1 <= j <= m.
  const long positions = steps + width - 1;
  ws.batch_subject.assign(static_cast<std::size_t>(positions) * kBatchLanes, kOutside);
  std::int16_t* subject = ws.batch_subject.data();
  for (std::size_t l = 0; l < count; ++l) {
    const long col0 = begin[l] - lanes[l].diagonal - band;
    const long p_lo = std::max(0L, 1 - col0);
    const long p_hi = std::min(positions - 1, lanes[l].m - col0);
    const std::uint8_t* sc = lanes[l].s_codes;
    for (long p = p_lo; p <= p_hi; ++p) {
      subject[static_cast<std::size_t>(p) * kBatchLanes + l] = sc[col0 + p - 1];
    }
  }

  // One band row of M, X and Y per lane, updated in place; slot `width`
  // of M and Y is the out-of-band column right of the band.
  const std::size_t slots = static_cast<std::size_t>(width) + 1;
  ws.batch_rows.resize(3 * slots * kBatchLanes);
  std::int16_t* rm = ws.batch_rows.data();
  std::int16_t* rx = rm + slots * kBatchLanes;
  std::int16_t* ry = rx + slots * kBatchLanes;
  std::fill(rm, rm + slots * kBatchLanes, std::int16_t{0});
  std::fill(rx, ry + slots * kBatchLanes, kNegInf16);

  const PairConstants k = pair_constants(pp);
  PairState st;
  st.best = _mm256_setzero_si256();
  // Cell (s, t) has key s * width + t, increasing in the scalar kernel's
  // row-major scan order; the caller keeps steps * width within 2^16, so
  // the key of the last strict improvement is the largest, unsigned.
  st.best_key = _mm256_setzero_si256();
  st.key = _mm256_setzero_si256();
  for (long s = 0; s < steps; ++s) {
    const __m256i q16 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
        query + static_cast<std::size_t>(s) * kBatchLanes));
    const std::int16_t* step_subject = subject + static_cast<std::size_t>(s) * kBatchLanes;
    st.m_left = _mm256_setzero_si256();  // left of the band: M = 0, X = -inf
    st.x_left = _mm256_set1_epi16(kNegInf16);
    st.m_up = _mm256_loadu_si256(pair_row(rm, 0));  // previous row, offset t
    st.y_up = _mm256_loadu_si256(pair_row(ry, 0));
    // Two offsets per traceback byte: t even in the low nibble.
    long t = 0;
    for (; t + 1 < width; t += 2) {
      const __m256i lo = pair_cell(st, k, q16, step_subject, rm, rx, ry, t);
      const __m256i hi = pair_cell(st, k, q16, step_subject, rm, rx, ry, t + 1);
      store_tb_bytes(tb, _mm256_or_si256(lo, _mm256_slli_epi16(hi, 4)));
      tb += kBatchLanes;
    }
    if (t < width) {
      store_tb_bytes(tb, pair_cell(st, k, q16, step_subject, rm, rx, ry, t));
      tb += kBatchLanes;
    }
  }
  alignas(32) std::uint16_t best_lanes[kBatchLanes];
  alignas(32) std::uint16_t key_lanes[kBatchLanes];
  _mm256_store_si256(reinterpret_cast<__m256i*>(best_lanes), st.best);
  _mm256_store_si256(reinterpret_cast<__m256i*>(key_lanes), st.best_key);
  for (std::size_t l = 0; l < count; ++l) {
    if (best_lanes[l] == 0) continue;
    out[l].best = best_lanes[l];
    out[l].best_i = begin[l] + key_lanes[l] / width;
    out[l].best_j = out[l].best_i - lanes[l].diagonal - band + key_lanes[l] % width;
  }
}

#undef PGA_AVX2_INLINE

}  // namespace

bool avx2_kernel_compiled() { return true; }

KernelSummary banded_kernel_avx2(const KernelParams& kp, DpWorkspace& ws,
                                 bool traceback) {
  return traceback ? avx2_kernel<true>(kp, ws) : avx2_kernel<false>(kp, ws);
}

void banded_batch_avx2(const KernelParams& kp, const BatchLane* lanes,
                       std::size_t count, DpWorkspace& ws, KernelSummary* out) {
  batch_kernel(kp, lanes, count, ws, out);
}

void banded_pair_batch_avx2(const PairBatchParams& pp, const PairLane* lanes,
                            std::size_t count, DpWorkspace& ws, unsigned char* tb,
                            KernelSummary* out) {
  pair_batch_kernel(pp, lanes, count, ws, tb, out);
}

}  // namespace pga::align::detail

#else  // !PGA_HAVE_AVX2_KERNEL

namespace pga::align::detail {

bool avx2_kernel_compiled() { return false; }

// Unreachable: dispatch never selects AVX2 without support.
KernelSummary banded_kernel_avx2(const KernelParams&, DpWorkspace&, bool) {
  return {};
}

void banded_batch_avx2(const KernelParams&, const BatchLane*, std::size_t,
                       DpWorkspace&, KernelSummary*) {}

void banded_pair_batch_avx2(const PairBatchParams&, const PairLane*, std::size_t,
                            DpWorkspace&, unsigned char*, KernelSummary*) {}

}  // namespace pga::align::detail

#endif  // PGA_HAVE_AVX2_KERNEL
