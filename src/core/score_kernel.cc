#include "core/score_kernel.h"

#include "sched/common.h"

// ISA gate: exactly one of the two paths below is compiled in. The build
// system passes -mavx2 for this file alone when the toolchain supports it
// (see src/core/CMakeLists.txt), or defines TETRIS_SIMD_FORCE_SCALAR to
// pin the portable path — which is also what non-x86 targets get, since
// __AVX2__ is not set.
#if !defined(TETRIS_SIMD_FORCE_SCALAR) && defined(__AVX2__)
#define TETRIS_SIMD_AVX2 1
#include <immintrin.h>
#endif

namespace tetris::core::simd {

namespace {

// The reference lane: literally the scalar path's op sequence on one
// gathered cell. The vector paths below must reproduce this bit for bit;
// partial blocks and non-vectorized alignment kinds call it directly.
void score_lane_scalar(AlignmentKind kind, double remote_penalty,
                       bool only_cpu_mem, const ScoreBlock& in, std::size_t l,
                       ScoreOut* out) {
  Resources d, av, cap;
  for (std::size_t r = 0; r < kNumResources; ++r) {
    d.at(r) = in.demand[r][l];
    av.at(r) = in.avail[r][l];
    cap.at(r) = in.cap[r][l];
  }
  const bool fit =
      only_cpu_mem ? sched::fits_cpu_mem(d, av) : d.fits_within(av);
  out->fit[l] = fit ? 1 : 0;
  double a =
      alignment_score(kind, d.normalized_by(cap), av.normalized_by(cap));
  a *= 1.0 - remote_penalty * (1.0 - in.local_fraction[l]);
  out->score[l] = a;
}

}  // namespace

#if defined(TETRIS_SIMD_AVX2)

int lane_width() { return 4; }
std::string_view isa_name() { return "avx2"; }

namespace {

// fits_within, four lanes: demand <= avail + 1e-9 * max(1, |avail|) in
// every dimension. |x| clears the sign bit; max/cmp/and are exact, so
// each lane equals the scalar predicate.
__m256d fit_mask_all(const ScoreBlock& in) {
  const __m256d eps = _mm256_set1_pd(1e-9);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  __m256d fit = _mm256_cmp_pd(one, one, _CMP_EQ_OQ);  // all-ones
  for (std::size_t r = 0; r < kNumResources; ++r) {
    const __m256d a = _mm256_load_pd(in.avail[r]);
    const __m256d d = _mm256_load_pd(in.demand[r]);
    const __m256d slack =
        _mm256_mul_pd(eps, _mm256_max_pd(one, _mm256_and_pd(a, abs_mask)));
    fit = _mm256_and_pd(fit, _mm256_cmp_pd(d, _mm256_add_pd(a, slack),
                                           _CMP_LE_OQ));
  }
  return fit;
}

// fits_cpu_mem, four lanes: cpu within (1+1e-9) relative + 1e-9 absolute
// slack, mem within (1+1e-9) relative + 1 unit absolute slack.
__m256d fit_mask_cpu_mem(const ScoreBlock& in) {
  const __m256d rel = _mm256_set1_pd(1.0 + 1e-9);
  const __m256d cpu_thr = _mm256_add_pd(
      _mm256_mul_pd(_mm256_load_pd(in.avail[0]), rel), _mm256_set1_pd(1e-9));
  const __m256d mem_thr = _mm256_add_pd(
      _mm256_mul_pd(_mm256_load_pd(in.avail[1]), rel), _mm256_set1_pd(1.0));
  return _mm256_and_pd(
      _mm256_cmp_pd(_mm256_load_pd(in.demand[0]), cpu_thr, _CMP_LE_OQ),
      _mm256_cmp_pd(_mm256_load_pd(in.demand[1]), mem_thr, _CMP_LE_OQ));
}

}  // namespace

void score_block(AlignmentKind kind, double remote_penalty, bool only_cpu_mem,
                 const ScoreBlock& in, ScoreOut* out, long* simd_blocks,
                 long* scalar_tail_evals) {
  if (kind != AlignmentKind::kCosine || in.n != 4) {
    for (std::size_t l = 0; l < in.n; ++l)
      score_lane_scalar(kind, remote_penalty, only_cpu_mem, in, l, out);
    *scalar_tail_evals += static_cast<long>(in.n);
    return;
  }
  const __m256d fit = only_cpu_mem ? fit_mask_cpu_mem(in) : fit_mask_all(in);
  // Cosine alignment: s = sum_r (d_r/c_r) * (a_r/c_r) accumulated in
  // resource order with explicit mul/add (no FMA), zero where c_r <= 0 —
  // the and with the c > 0 mask blends the division's junk lanes to +0.0,
  // matching normalized_by's ternary.
  const __m256d zero = _mm256_setzero_pd();
  __m256d acc = zero;
  for (std::size_t r = 0; r < kNumResources; ++r) {
    const __m256d c = _mm256_load_pd(in.cap[r]);
    const __m256d live = _mm256_cmp_pd(c, zero, _CMP_GT_OQ);
    const __m256d dn =
        _mm256_and_pd(_mm256_div_pd(_mm256_load_pd(in.demand[r]), c), live);
    const __m256d an =
        _mm256_and_pd(_mm256_div_pd(_mm256_load_pd(in.avail[r]), c), live);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(dn, an));
  }
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d pen = _mm256_sub_pd(
      one, _mm256_mul_pd(_mm256_set1_pd(remote_penalty),
                         _mm256_sub_pd(one, _mm256_load_pd(in.local_fraction))));
  _mm256_store_pd(out->score, _mm256_mul_pd(acc, pen));
  const int bits = _mm256_movemask_pd(fit);
  for (int l = 0; l < 4; ++l) out->fit[l] = (bits >> l) & 1;
  ++*simd_blocks;
}

#else  // portable scalar build

int lane_width() { return 1; }
std::string_view isa_name() { return "scalar"; }

void score_block(AlignmentKind kind, double remote_penalty, bool only_cpu_mem,
                 const ScoreBlock& in, ScoreOut* out, long* /*simd_blocks*/,
                 long* scalar_tail_evals) {
  for (std::size_t l = 0; l < in.n; ++l)
    score_lane_scalar(kind, remote_penalty, only_cpu_mem, in, l, out);
  *scalar_tail_evals += static_cast<long>(in.n);
}

#endif

}  // namespace tetris::core::simd
