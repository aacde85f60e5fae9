#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "trace/event.h"

// Wire encoding shared by the in-memory ring buffers (recorder.cc) and the
// on-disk log format (io.cc). One record is:
//
//   kind      u8
//   mask      varint   bit i set => optional field i present
//   time      f64      raw little-endian bit pattern (always present)
//   a..f      zigzag varints, each only if its mask bit is set
//   x..w      f64 bit patterns, each only if its mask bit is set
//   timing    zigzag varint, only if its mask bit is set
//
// Doubles travel as raw IEEE-754 bit patterns so a decode/re-encode round
// trip is bit-exact — required for the replay-equality contract. Zero-valued
// fields are elided via the mask, which keeps typical records under 16 bytes.

namespace tetris::trace::wire {

// The smallest record: kind, a one-byte mask and the time.
inline constexpr std::size_t kMinEventSize = 1 + 1 + 8;

inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

inline void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
}

// Bounded cursor over an encoded byte range. All reads clear `ok` instead
// of running past `end`, so a truncated or corrupt buffer decodes to a
// clean failure rather than undefined behavior.
struct Reader {
  const std::uint8_t* pos = nullptr;
  const std::uint8_t* end = nullptr;
  bool ok = true;

  Reader(const std::uint8_t* p, std::size_t n) : pos(p), end(p + n) {}

  bool done() const { return pos == end; }

  std::uint8_t get_u8() {
    if (pos == end) {
      ok = false;
      return 0;
    }
    return *pos++;
  }

  std::uint64_t get_varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const std::uint8_t byte = get_u8();
      if (!ok) return 0;
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return v;
    }
    ok = false;  // varint longer than 10 bytes
    return 0;
  }

  double get_f64() {
    if (end - pos < 8) {
      ok = false;
      pos = end;
      return 0.0;
    }
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<std::uint64_t>(*pos++) << (8 * i);
    }
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
};

// Mask bit layout: a..f = bits 0..5, x..w = bits 6..9, timing = bit 10.
inline void encode_event(std::vector<std::uint8_t>& out, const Event& ev) {
  const std::int64_t ints[6] = {ev.a, ev.b, ev.c, ev.d, ev.e, ev.f};
  const double doubles[4] = {ev.x, ev.y, ev.z, ev.w};
  std::uint64_t mask = 0;
  for (int i = 0; i < 6; ++i) {
    if (ints[i] != 0) mask |= std::uint64_t{1} << i;
  }
  for (int i = 0; i < 4; ++i) {
    // Compare bit patterns, not values: -0.0 and NaN payloads must survive.
    std::uint64_t bits;
    std::memcpy(&bits, &doubles[i], sizeof(bits));
    if (bits != 0) mask |= std::uint64_t{1} << (6 + i);
  }
  if (ev.timing != 0) mask |= std::uint64_t{1} << 10;

  out.push_back(static_cast<std::uint8_t>(ev.kind));
  put_varint(out, mask);
  put_f64(out, ev.time);
  for (int i = 0; i < 6; ++i) {
    if (mask & (std::uint64_t{1} << i)) put_varint(out, zigzag(ints[i]));
  }
  for (int i = 0; i < 4; ++i) {
    if (mask & (std::uint64_t{1} << (6 + i))) put_f64(out, doubles[i]);
  }
  if (mask & (std::uint64_t{1} << 10)) put_varint(out, zigzag(ev.timing));
}

inline bool decode_event(Reader& in, Event* ev) {
  const std::uint8_t kind = in.get_u8();
  const std::uint64_t mask = in.get_varint();
  if (!in.ok || !is_known_kind(kind) || (mask >> 11) != 0) return false;
  ev->kind = static_cast<EventKind>(kind);
  ev->time = in.get_f64();
  std::int64_t* ints[6] = {&ev->a, &ev->b, &ev->c, &ev->d, &ev->e, &ev->f};
  for (int i = 0; i < 6; ++i) {
    *ints[i] = (mask & (std::uint64_t{1} << i)) ? unzigzag(in.get_varint())
                                                : 0;
  }
  double* doubles[4] = {&ev->x, &ev->y, &ev->z, &ev->w};
  for (int i = 0; i < 4; ++i) {
    *doubles[i] =
        (mask & (std::uint64_t{1} << (6 + i))) ? in.get_f64() : 0.0;
  }
  ev->timing = (mask & (std::uint64_t{1} << 10))
                   ? unzigzag(in.get_varint())
                   : 0;
  return in.ok;
}

}  // namespace tetris::trace::wire

