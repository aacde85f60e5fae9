#include "trace/recorder.h"

#include <algorithm>

#include "trace/wire.h"

namespace tetris::trace {

namespace {

// Worst-case encoded record: kind (1) + mask (2) + time (8) + six zigzag
// varints (60) + four doubles (32) + timing (10).
constexpr std::size_t kMaxRecordBytes = 113;

}  // namespace

Recorder::Recorder(TraceConfig config) : config_(config) {}

void Recorder::record(const Event& event) {
  if (!config_.enabled) return;
  accepted_++;
  if (chunks_.empty() ||
      chunks_.back().bytes.size() + kMaxRecordBytes > config_.chunk_bytes) {
    chunks_.emplace_back();
    chunks_.back().bytes.reserve(config_.chunk_bytes);
    while (chunks_.size() > std::max<std::size_t>(1, config_.max_chunks)) {
      dropped_ += chunks_.front().records;
      chunks_.pop_front();
    }
  }
  Chunk& chunk = chunks_.back();
  wire::encode_event(chunk.bytes, event);
  chunk.records++;
}

TraceLog Recorder::take_log() {
  TraceLog log;
  log.dropped = dropped_;
  std::size_t records = 0;
  for (const Chunk& chunk : chunks_) records += chunk.records;
  log.events.reserve(records);
  for (const Chunk& chunk : chunks_) {
    wire::Reader reader(chunk.bytes.data(), chunk.bytes.size());
    while (!reader.done() && reader.ok) {
      Event ev;
      if (!wire::decode_event(reader, &ev)) break;
      log.events.push_back(ev);
    }
  }
  chunks_.clear();
  accepted_ = 0;
  dropped_ = 0;
  return log;
}

}  // namespace tetris::trace
