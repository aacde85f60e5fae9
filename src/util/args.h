// Whole-number command-line arguments, parsed one way for every CLI: the
// bench drivers (bench::Scale), examples/trace_replay and
// tools/make_stream_trace.
#pragma once

#include <climits>
#include <cstdint>
#include <optional>
#include <string_view>

namespace tetris::util {

// `text` as a decimal number in [lo, hi]: one or more digits and nothing
// else (no sign, blank or trailing junk). Anything else, an overflow or a
// value out of range gives nullopt.
std::optional<std::uint64_t> parse_whole(std::string_view text,
                                         std::uint64_t lo = 0,
                                         std::uint64_t hi = UINT64_MAX);

// A job or machine count: a whole number in [1, INT_MAX].
inline std::optional<int> parse_count(std::string_view text) {
  const auto v = parse_whole(text, 1, INT_MAX);
  if (!v) return std::nullopt;
  return static_cast<int>(*v);
}

}  // namespace tetris::util
