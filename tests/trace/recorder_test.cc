// Unit tests for the trace subsystem's storage layers (DESIGN.md §10):
// wire encoding round trips bit-exactly, the recorder's chunked ring
// drains in record order and drops its oldest chunk on overflow, the file
// format rejects corruption cleanly, and the comparison helpers implement
// the replay contract (semantic fields with ==, wall-clock `timing`
// ignored).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "trace/event.h"
#include "trace/io.h"
#include "trace/recorder.h"
#include "trace/replayer.h"
#include "trace/wire.h"

namespace tetris::trace {
namespace {

Event full_event() {
  Event ev;
  ev.kind = EventKind::kPlacement;
  ev.time = 123.4567890123;
  ev.a = -1;
  ev.b = std::numeric_limits<std::int64_t>::min();
  ev.c = std::numeric_limits<std::int64_t>::max();
  ev.d = 7;
  ev.e = -42;
  ev.f = 1;
  ev.x = 0.1;  // not exactly representable: bit-exactness matters
  ev.y = -0.0;
  ev.z = std::numeric_limits<double>::denorm_min();
  ev.w = -1e308;
  ev.timing = -5;
  return ev;
}

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

TEST(Wire, RoundTripsAllFieldsBitExact) {
  const Event in = full_event();
  std::vector<std::uint8_t> buf;
  wire::encode_event(buf, in);

  wire::Reader r(buf.data(), buf.size());
  Event out;
  ASSERT_TRUE(wire::decode_event(r, &out));
  EXPECT_TRUE(r.done());

  EXPECT_EQ(out.kind, in.kind);
  EXPECT_EQ(bits_of(out.time), bits_of(in.time));
  EXPECT_EQ(out.a, in.a);
  EXPECT_EQ(out.b, in.b);
  EXPECT_EQ(out.c, in.c);
  EXPECT_EQ(out.d, in.d);
  EXPECT_EQ(out.e, in.e);
  EXPECT_EQ(out.f, in.f);
  EXPECT_EQ(bits_of(out.x), bits_of(in.x));
  EXPECT_EQ(bits_of(out.y), bits_of(in.y));  // -0.0 keeps its sign bit
  EXPECT_TRUE(std::signbit(out.y));
  EXPECT_EQ(bits_of(out.z), bits_of(in.z));
  EXPECT_EQ(bits_of(out.w), bits_of(in.w));
  EXPECT_EQ(out.timing, in.timing);
  EXPECT_TRUE(semantic_equal(in, out));
}

TEST(Wire, ElidesZeroFields) {
  Event ev;
  ev.kind = EventKind::kJobArrival;
  ev.time = 1.0;
  std::vector<std::uint8_t> buf;
  wire::encode_event(buf, ev);
  // kind(1) + mask(1) + time(8): all-zero optional fields cost nothing.
  EXPECT_EQ(buf.size(), 10u);

  wire::Reader r(buf.data(), buf.size());
  Event out;
  ASSERT_TRUE(wire::decode_event(r, &out));
  EXPECT_TRUE(semantic_equal(ev, out));
  EXPECT_EQ(out.timing, 0);
}

TEST(Wire, RejectsUnknownKindAndBadMask) {
  std::vector<std::uint8_t> buf;
  wire::encode_event(buf, full_event());
  // One past the last kind, and the retired kinds 3 (per-shard scan
  // timing) and 11 (tracker usage report), whose numbers are never reused.
  for (const std::uint8_t kind : {std::uint8_t{kNumEventKinds},
                                  std::uint8_t{3}, std::uint8_t{11}}) {
    std::vector<std::uint8_t> bad = buf;
    bad[0] = kind;
    wire::Reader r(bad.data(), bad.size());
    Event out;
    EXPECT_FALSE(wire::decode_event(r, &out)) << int{kind};
  }
  {
    // A mask with bits above the defined field range is corruption.
    std::vector<std::uint8_t> bad;
    bad.push_back(static_cast<std::uint8_t>(EventKind::kJobArrival));
    wire::put_varint(bad, std::uint64_t{1} << 11);
    wire::put_f64(bad, 1.0);
    wire::Reader r(bad.data(), bad.size());
    Event out;
    EXPECT_FALSE(wire::decode_event(r, &out));
  }
}

TEST(Wire, RejectsTruncation) {
  std::vector<std::uint8_t> buf;
  wire::encode_event(buf, full_event());
  for (std::size_t n = 0; n < buf.size(); ++n) {
    wire::Reader r(buf.data(), n);
    Event out;
    EXPECT_FALSE(wire::decode_event(r, &out)) << "prefix length " << n;
  }
}

TEST(Recorder, DisabledRecorderIsANoOp) {
  Recorder rec;  // TraceConfig{}.enabled == false
  EXPECT_FALSE(rec.enabled());
  rec.record(full_event());
  EXPECT_EQ(rec.recorded(), 0u);
  const TraceLog log = rec.take_log();
  EXPECT_TRUE(log.events.empty());
  EXPECT_EQ(log.dropped, 0u);
}

TraceConfig enabled_config() {
  TraceConfig cfg;
  cfg.enabled = true;
  return cfg;
}

TEST(Recorder, DrainsEventsInRecordOrder) {
  Recorder rec(enabled_config());
  for (int i = 0; i < 100; ++i) {
    Event ev;
    ev.kind = EventKind::kJobArrival;
    ev.time = i;
    ev.a = i;
    rec.record(ev);
  }
  EXPECT_EQ(rec.recorded(), 100u);
  const TraceLog log = rec.take_log();
  EXPECT_EQ(log.dropped, 0u);
  ASSERT_EQ(log.events.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(log.events[i].a, i);
}

TEST(Recorder, TakeLogResetsForTheNextRun) {
  Recorder rec(enabled_config());
  Event ev;
  ev.kind = EventKind::kPassBegin;
  ev.a = 1;
  rec.record(ev);
  EXPECT_EQ(rec.take_log().events.size(), 1u);

  // Recording again after a drain starts from an empty ring; the drained
  // events must not reappear.
  ev.a = 2;
  rec.record(ev);
  const TraceLog second = rec.take_log();
  ASSERT_EQ(second.events.size(), 1u);
  EXPECT_EQ(second.events[0].a, 2);
  EXPECT_TRUE(rec.take_log().events.empty());
}

TEST(Recorder, RingOverflowDropsOldestKeepsTail) {
  TraceConfig cfg = enabled_config();
  cfg.chunk_bytes = 256;
  cfg.max_chunks = 2;
  Recorder rec(cfg);
  const int kTotal = 2000;
  for (int i = 0; i < kTotal; ++i) {
    Event ev;
    ev.kind = EventKind::kJobArrival;
    ev.a = i;
    rec.record(ev);
  }
  const TraceLog log = rec.take_log();
  EXPECT_GT(log.dropped, 0u);
  EXPECT_EQ(log.dropped + log.events.size(), static_cast<std::size_t>(kTotal));
  ASSERT_FALSE(log.events.empty());
  // Whole-oldest-chunk dropping keeps the tail: the surviving window is
  // the contiguous run ending at the last record.
  EXPECT_EQ(log.events.back().a, kTotal - 1);
  for (std::size_t i = 1; i < log.events.size(); ++i) {
    EXPECT_EQ(log.events[i].a, log.events[i - 1].a + 1);
  }
}

TraceLog sample_log() {
  TraceLog log;
  log.scheduler = "tetris-opt";
  log.seed = 42;
  log.dropped = 7;
  Event begin;
  begin.kind = EventKind::kRunBegin;
  begin.a = 42;
  log.events.push_back(begin);
  log.events.push_back(full_event());
  Event end;
  end.kind = EventKind::kRunEnd;
  end.time = 99.5;
  end.a = 3;
  log.events.push_back(end);
  return log;
}

TEST(TraceIo, FileRoundTripPreservesEverything) {
  const TraceLog in = sample_log();
  const std::string path = ::testing::TempDir() + "/roundtrip.trace";
  write_log_file(path, in);
  const TraceLog out = read_log_file(path);

  EXPECT_EQ(out.scheduler, in.scheduler);
  EXPECT_EQ(out.seed, in.seed);
  EXPECT_EQ(out.dropped, in.dropped);
  ASSERT_EQ(out.events.size(), in.events.size());
  for (std::size_t i = 0; i < in.events.size(); ++i) {
    EXPECT_TRUE(semantic_equal(in.events[i], out.events[i])) << i;
    EXPECT_EQ(in.events[i].timing, out.events[i].timing) << i;
  }
  EXPECT_TRUE(first_divergence(in, out).identical);
}

TEST(TraceIo, RejectsBadMagic) {
  const std::string path = ::testing::TempDir() + "/bad_magic.trace";
  std::ofstream(path, std::ios::binary) << "definitely not a trace log";
  EXPECT_THROW(read_log_file(path), std::runtime_error);
}

TEST(TraceIo, RejectsMissingFile) {
  EXPECT_THROW(read_log_file(::testing::TempDir() + "/no_such.trace"),
               std::runtime_error);
}

TEST(TraceIo, RejectsUnsupportedVersion) {
  std::vector<std::uint8_t> bytes = serialize_log(sample_log());
  bytes[8] = 0x7F;  // the version varint sits right after the 8-byte magic
  EXPECT_THROW(deserialize_log(bytes.data(), bytes.size()),
               std::runtime_error);
}

TEST(TraceIo, RejectsTruncatedStream) {
  const std::vector<std::uint8_t> bytes = serialize_log(sample_log());
  for (const std::size_t cut : {bytes.size() - 1, bytes.size() - 9,
                                bytes.size() / 2, std::size_t{9}}) {
    EXPECT_THROW(deserialize_log(bytes.data(), cut), std::runtime_error)
        << "prefix length " << cut;
  }
}

// The event count is checked against the bytes left before anything is
// reserved for it: a corrupt count is a std::runtime_error, never a
// std::bad_alloc (or an abort under ASan).
TEST(TraceIo, CorruptEventCountIsRejectedNotAllocated) {
  TraceLog log;
  log.events.push_back(full_event());
  std::vector<std::uint8_t> bytes = serialize_log(log);
  // Empty scheduler name: the count varint is the header's last byte,
  // after the magic, version, seed, dropped and name length.
  ASSERT_EQ(bytes[12], 1);
  for (const std::uint64_t count :
       {std::uint64_t{1} << 53, std::uint64_t{1} << 28}) {
    std::vector<std::uint8_t> bad(bytes.begin(), bytes.begin() + 12);
    wire::put_varint(bad, count);
    bad.insert(bad.end(), bytes.begin() + 13, bytes.end());
    EXPECT_THROW(deserialize_log(bad.data(), bad.size()), std::runtime_error)
        << "count " << count;
  }
}

TEST(Compare, TimingFieldIsNeverSemantic) {
  Event a = full_event();
  Event b = a;
  b.timing = 999999;
  EXPECT_TRUE(semantic_equal(a, b));

  TraceLog la, lb;
  la.events = {a};
  lb.events = {b};
  EXPECT_TRUE(first_divergence(la, lb, CompareMode::kFull).identical);
}

TEST(Compare, ReportsFirstDivergentIndexWithBothSides) {
  TraceLog a = sample_log();
  TraceLog b = a;
  b.events[1].x += 1e-9;  // any drift, however small, is a divergence
  const Divergence d = first_divergence(a, b);
  EXPECT_FALSE(d.identical);
  EXPECT_EQ(d.index, 1u);
  EXPECT_NE(d.description.find("lhs"), std::string::npos);
  EXPECT_NE(d.description.find("rhs"), std::string::npos);
}

TEST(Compare, PrefixDivergesAtTheShorterLength) {
  TraceLog a = sample_log();
  TraceLog b = a;
  b.events.pop_back();
  const Divergence d = first_divergence(a, b);
  EXPECT_FALSE(d.identical);
  EXPECT_EQ(d.index, b.events.size());
  EXPECT_FALSE(d.description.empty());
}

TEST(Compare, DecisionModeIgnoresInstrumentationEvents) {
  TraceLog a = sample_log();
  TraceLog b = a;
  // Interleave instrumentation-only events into one stream; decisions
  // still match, full comparison diverges.
  Event scan;
  scan.kind = EventKind::kGroupScan;
  scan.a = 1;
  Event rescan = scan;
  rescan.a = 2;
  b.events.insert(b.events.begin() + 1, {scan, rescan});

  EXPECT_FALSE(is_decision_event(EventKind::kGroupScan));
  // Run metadata (the naive flag) differs across configurations whose
  // decisions must still match.
  EXPECT_FALSE(is_decision_event(EventKind::kRunBegin));
  EXPECT_TRUE(is_decision_event(EventKind::kPlacement));
  EXPECT_TRUE(is_decision_event(EventKind::kRunEnd));

  EXPECT_EQ(filtered_events(b, CompareMode::kFull).size(), 5u);
  EXPECT_EQ(filtered_events(b, CompareMode::kDecisions).size(), 2u);
  EXPECT_FALSE(first_divergence(a, b, CompareMode::kFull).identical);
  EXPECT_TRUE(first_divergence(a, b, CompareMode::kDecisions).identical);
}

TEST(Replayer, AcceptsIdenticalRerunRejectsDivergent) {
  const TraceLog recorded = sample_log();
  Replayer rp(recorded);

  const ReplayReport ok = rp.replay([&] { return recorded; });
  EXPECT_TRUE(ok.ok);
  EXPECT_EQ(ok.events_compared, recorded.events.size());
  EXPECT_FALSE(ok.message.empty());

  const ReplayReport bad = rp.replay([&] {
    TraceLog other = recorded;
    other.events[2].a++;
    return other;
  });
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.divergence.identical);
  EXPECT_EQ(bad.divergence.index, 2u);
}

TEST(Describe, EveryKindHasANameAndRendering) {
  for (int k = 0; k < kNumEventKinds; ++k) {
    if (!is_known_kind(k)) continue;
    Event ev;
    ev.kind = static_cast<EventKind>(k);
    ev.time = 1.5;
    EXPECT_STRNE(kind_name(ev.kind), "") << k;
    EXPECT_FALSE(describe(ev).empty()) << k;
  }
}

}  // namespace
}  // namespace tetris::trace
