#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "trace/event.h"

namespace tetris::trace {

struct TraceConfig {
  bool enabled = false;
  // Ring-buffer geometry. Records are appended into fixed-size chunks;
  // once max_chunks full chunks are held the oldest chunk is dropped whole
  // (cheap, and the tail of the run — where divergences are diagnosed — is
  // what survives). Defaults hold ~4 MiB, roughly 250K records.
  std::size_t chunk_bytes = 64 * 1024;
  std::size_t max_chunks = 64;
};

// Binary event log: one chunked ring, written by the event-loop thread.
// When `enabled()` is false, `record()` returns immediately.
//
// `take_log()` decodes the ring in record order. Callers drain only after
// the traced run has completed.
class Recorder {
 public:
  explicit Recorder(TraceConfig config = TraceConfig{});

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  bool enabled() const { return config_.enabled; }
  const TraceConfig& config() const { return config_; }

  void record(const Event& event);

  // Records accepted so far (including any later dropped by ring overflow).
  std::uint64_t recorded() const { return accepted_; }

  // Drains the ring: decodes it in record order and resets the recorder
  // so a subsequent run records from empty.
  TraceLog take_log();

 private:
  struct Chunk {
    std::vector<std::uint8_t> bytes;
    std::size_t records = 0;
  };

  const TraceConfig config_;
  std::deque<Chunk> chunks_;
  std::uint64_t accepted_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace tetris::trace
