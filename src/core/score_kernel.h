// The scoring path's description, kept only because the benchmark prints
// it in its environment line. Every cell is scored by the one scalar
// expression in TetrisScheduler::refresh_cell (DESIGN.md §12).
#pragma once

#include <string_view>

namespace tetris::core::simd {

// Cells scored per step: always 1.
inline int lane_width() { return 1; }
// The scoring path's instruction set: always "scalar".
inline std::string_view isa_name() { return "scalar"; }

}  // namespace tetris::core::simd
