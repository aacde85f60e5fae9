#include "util/args.h"

#include <charconv>
#include <system_error>

namespace tetris::util {

std::optional<std::uint64_t> parse_whole(std::string_view text,
                                         std::uint64_t lo,
                                         std::uint64_t hi) {
  // from_chars takes no sign and no blank for an unsigned type, and
  // reports an overflow; the end check rejects trailing junk.
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || v < lo || v > hi)
    return std::nullopt;
  return v;
}

}  // namespace tetris::util
