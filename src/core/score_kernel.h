// Vectorized fused fit-check + alignment kernel (DESIGN.md §12).
//
// The hot loop of a scheduling pass evaluates, per <group, machine> cell:
// a six-dimension admission predicate against the machine's availability,
// then the alignment score — a dot product of capacity-normalized demand
// and availability vectors — times the remote-access penalty. This
// module evaluates a *block* of such cells at once, one cell per vector
// lane, with branchless comparison masks for the admission predicate.
//
// Bit-identity contract: every lane performs exactly the scalar op
// sequence of `Resources::normalized_by` + `alignment_score` +
// the penalty multiply — same operations, same order, all exactly-rounded
// IEEE double arithmetic, no FMA contraction (this translation unit is
// built with -ffp-contract=off and uses explicit mul/add intrinsics).
// A lane's score is therefore the same 64 bits the scalar path computes,
// and the scheduler's eps-normalizer accumulation and candidate ranking
// cannot tell the two apart. Anything not provably exact under
// vectorization (alignment kinds with data-dependent accumulation skips)
// is routed through the scalar reference lane instead.
//
// ISA selection is compile-time: the build compiles this one translation
// unit with -mavx2 (4 lanes) when the toolchain supports it, or as
// portable scalar code (1 lane) under TETRIS_SIMD_FORCE_SCALAR / other
// ISAs. Only this TU carries the ISA flags, so the rest of the build
// stays baseline-portable.
#pragma once

#include <cstddef>
#include <string_view>

#include "core/alignment.h"
#include "util/resources.h"

namespace tetris::core::simd {

// Lanes per vector block in this build: 4 (AVX2), 1 (scalar).
int lane_width();
// "avx2" or "scalar" — for logs and bench CSVs.
std::string_view isa_name();

// A block of gathered cells awaiting the fused evaluation, stored
// structure-of-arrays: lane l of plane r holds cell l's value for
// resource dimension r. Lanes at index >= n are never read by the
// kernel (partial blocks take the scalar tail, which stops at n).
struct ScoreBlock {
  static constexpr std::size_t kMaxLanes = 8;
  alignas(64) double demand[kNumResources][kMaxLanes];
  alignas(64) double avail[kNumResources][kMaxLanes];
  alignas(64) double cap[kNumResources][kMaxLanes];
  alignas(64) double local_fraction[kMaxLanes];
  std::size_t n = 0;
};

struct ScoreOut {
  alignas(64) double score[ScoreBlock::kMaxLanes];
  unsigned char fit[ScoreBlock::kMaxLanes];
};

// Fused admission + alignment over one block.
//   fit[l]   = only_cpu_mem ? fits_cpu_mem(demand_l, avail_l)
//                           : demand_l.fits_within(avail_l)
//   score[l] = alignment_score(kind, demand_l / cap_l, avail_l / cap_l)
//              * (1 - remote_penalty * (1 - local_fraction_l))
// (Remote-leg admission is per-source-machine and stays with the caller.)
// Scores are computed for every lane, fitting or not; callers discard the
// non-fitting ones exactly as the scalar path never computes them.
// A full block of lane_width() cosine lanes takes the vector path and
// bumps *simd_blocks once; every other lane (partial tail, non-cosine
// kind, scalar build) goes through the reference scalar lane and bumps
// *scalar_tail_evals.
void score_block(AlignmentKind kind, double remote_penalty, bool only_cpu_mem,
                 const ScoreBlock& in, ScoreOut* out, long* simd_blocks,
                 long* scalar_tail_evals);

}  // namespace tetris::core::simd
