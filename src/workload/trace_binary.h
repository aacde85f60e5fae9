// The workload trace file (DESIGN.md §11): the one on-disk form of a
// sim::Workload. Small traces are read whole (read_binary_trace_file);
// the streaming engine reads job by job (BinaryTraceReader), so a
// 10M-task trace never has to fit in memory. The layout is built for
// that incremental consumption:
//
//   file header:  magic "TTRB", u32 version, u64 job_count
//   per job:      fixed 24-byte job header — f64 arrival, u64 task_count,
//                 u64 body_size — followed by `body_size` bytes of body
//                 (name, template, queue, stages, tasks, splits)
//
// The job header carries everything the admission gate needs (when the
// job arrives, how many tasks it would add to the resident set), so a
// reader can peek at the next job for 24 bytes without decoding — or
// skip it entirely — and the file header carries the total job count the
// simulator needs to reserve its arrival sequence block. All integers
// are little-endian, all floats IEEE-754 doubles; jobs must appear in
// non-decreasing arrival order (readers reject violations: a stream the
// scheduler cannot replay in order is an input error).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/job_source.h"
#include "sim/spec.h"

namespace tetris::workload {

inline constexpr char kBinaryTraceMagic[4] = {'T', 'T', 'R', 'B'};
inline constexpr std::uint32_t kBinaryTraceVersion = 1;

// Streaming writer: jobs are appended one at a time and never buffered,
// so a generator can emit traces far larger than memory. The job count
// in the file header is back-patched by finalize() (also run by the
// destructor). Throws std::runtime_error on I/O failure and
// std::invalid_argument on out-of-order arrivals.
class BinaryTraceWriter {
 public:
  explicit BinaryTraceWriter(const std::string& path);
  ~BinaryTraceWriter();
  BinaryTraceWriter(const BinaryTraceWriter&) = delete;
  BinaryTraceWriter& operator=(const BinaryTraceWriter&) = delete;

  void add(const sim::JobSpec& job);
  // Patches the job count into the header and closes the file. Idempotent.
  void finalize();

  long jobs_written() const { return jobs_written_; }

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  long jobs_written_ = 0;
  double last_arrival_ = 0;
  std::vector<char> body_;  // reused per-job encode buffer
};

// Incremental reader over a binary trace file; a sim::JobSource, so it
// plugs straight into simulate_stream(). Reads the file in `chunk_size`
// byte slices (any size >= 1 — adversarial sizes only change the read
// pattern, never the decoded stream) and holds at most one job body in
// memory. Throws std::runtime_error naming the byte offset on a
// truncated or corrupt file, and on out-of-order arrivals.
class BinaryTraceReader final : public sim::JobSource {
 public:
  explicit BinaryTraceReader(const std::string& path,
                             std::size_t chunk_size = 64 * 1024);
  ~BinaryTraceReader() override;
  BinaryTraceReader(const BinaryTraceReader&) = delete;
  BinaryTraceReader& operator=(const BinaryTraceReader&) = delete;

  long total_jobs() const override { return total_jobs_; }
  bool peek(sim::JobPeek& out) override;
  bool next(sim::JobSpec& out) override;

 private:
  // Ensures `n` decodable bytes are buffered; false on clean EOF at a
  // record boundary (want_header at offset 0 of a record), throws on EOF
  // mid-record.
  bool ensure(std::size_t n, bool header_boundary);
  [[noreturn]] void corrupt(const std::string& what) const;

  std::FILE* file_ = nullptr;
  std::string path_;
  std::size_t chunk_size_;
  std::vector<char> buf_;
  std::size_t pos_ = 0;          // consumed prefix of buf_
  long long file_offset_ = 0;    // offset of buf_[pos_] in the file
  long total_jobs_ = 0;
  long jobs_read_ = 0;
  double last_arrival_ = 0;
};

// Whole-workload conveniences (examples/trace_replay, round-trip tests).
void write_binary_trace_file(const std::string& path,
                             const sim::Workload& workload);
sim::Workload read_binary_trace_file(const std::string& path);

}  // namespace tetris::workload
