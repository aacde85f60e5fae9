#include "workload/trace_binary.h"

#include <cstring>
#include <limits>
#include <stdexcept>

namespace tetris::workload {

namespace {

// All encoding goes through byte-wise little-endian put/get helpers, so
// the format is identical across hosts regardless of alignment rules.
void put_u32(std::vector<char>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::vector<char>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_i32(std::vector<char>& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_f64(std::vector<char>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void put_str(std::vector<char>& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  return v;
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  return v;
}

std::int32_t get_i32(const char* p) {
  return static_cast<std::int32_t>(get_u32(p));
}

double get_f64(const char* p) {
  const std::uint64_t bits = get_u64(p);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

constexpr std::size_t kFileHeaderSize = 4 + 4 + 8;  // magic, version, count
constexpr std::size_t kJobHeaderSize = 8 + 8 + 8;   // arrival, tasks, body

// Smallest encodings of the body's repeated records (an empty name, no
// deps, tasks, splits or replicas), which bound each count read below.
constexpr std::size_t kMinStageSize = 4 + 4 + 4;  // name, deps, tasks
constexpr std::size_t kMinTaskSize = 5 * 8 + 4;   // five f64s, splits
constexpr std::size_t kMinSplitSize = 8 + 4 + 4;  // bytes, stage, replicas
constexpr std::size_t kIdSize = 4;                // a dep or a replica

void encode_body(std::vector<char>& out, const sim::JobSpec& job) {
  out.clear();
  put_str(out, job.name);
  put_i32(out, job.template_id);
  put_i32(out, job.queue);
  put_u32(out, static_cast<std::uint32_t>(job.stages.size()));
  for (const auto& stage : job.stages) {
    put_str(out, stage.name);
    put_u32(out, static_cast<std::uint32_t>(stage.deps.size()));
    for (int d : stage.deps) put_i32(out, d);
    put_u32(out, static_cast<std::uint32_t>(stage.tasks.size()));
    for (const auto& task : stage.tasks) {
      put_f64(out, task.cpu_cycles);
      put_f64(out, task.peak_cores);
      put_f64(out, task.peak_mem);
      put_f64(out, task.output_bytes);
      put_f64(out, task.max_io_bw);
      put_u32(out, static_cast<std::uint32_t>(task.inputs.size()));
      for (const auto& split : task.inputs) {
        put_f64(out, split.bytes);
        put_i32(out, split.from_stage);
        put_u32(out, static_cast<std::uint32_t>(split.replicas.size()));
        for (sim::MachineId r : split.replicas) put_i32(out, r);
      }
    }
  }
}

// Bounded decode cursor over one job body; every read is length-checked
// so a corrupt body_size can never run past the buffer.
class BodyCursor {
 public:
  BodyCursor(const char* data, std::size_t size, long job_index)
      : data_(data), size_(size), job_(job_index) {}

  std::uint32_t u32() { return get_u32(take(4)); }
  std::int32_t i32() { return get_i32(take(4)); }
  double f64() { return get_f64(take(8)); }
  std::string str() {
    const std::uint32_t n = u32();
    return std::string(take(n), n);
  }
  // A record count, rejected before anything is allocated for it unless
  // the rest of the body can hold that many records of `min_size` bytes.
  std::uint32_t count(std::size_t min_size) {
    const std::uint32_t n = u32();
    if (std::uint64_t{n} * min_size > size_ - pos_) overrun();
    return n;
  }
  bool exhausted() const { return pos_ == size_; }
  long job() const { return job_; }

 private:
  const char* take(std::size_t n) {
    if (size_ - pos_ < n) overrun();
    const char* p = data_ + pos_;
    pos_ += n;
    return p;
  }
  [[noreturn]] void overrun() const {
    throw std::runtime_error(
        "binary trace: job " + std::to_string(job_) +
        " body overruns its declared size (corrupt body_size or record)");
  }

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  long job_;
};

sim::JobSpec decode_body(BodyCursor& c) {
  sim::JobSpec job;
  job.name = c.str();
  job.template_id = c.i32();
  job.queue = c.i32();
  const std::uint32_t nstages = c.count(kMinStageSize);
  job.stages.reserve(nstages);
  for (std::uint32_t s = 0; s < nstages; ++s) {
    sim::StageSpec stage;
    stage.name = c.str();
    const std::uint32_t ndeps = c.count(kIdSize);
    stage.deps.reserve(ndeps);
    for (std::uint32_t d = 0; d < ndeps; ++d) stage.deps.push_back(c.i32());
    const std::uint32_t ntasks = c.count(kMinTaskSize);
    stage.tasks.reserve(ntasks);
    for (std::uint32_t t = 0; t < ntasks; ++t) {
      sim::TaskSpec task;
      task.cpu_cycles = c.f64();
      task.peak_cores = c.f64();
      task.peak_mem = c.f64();
      task.output_bytes = c.f64();
      task.max_io_bw = c.f64();
      const std::uint32_t nsplits = c.count(kMinSplitSize);
      task.inputs.reserve(nsplits);
      for (std::uint32_t i = 0; i < nsplits; ++i) {
        sim::InputSplit split;
        split.bytes = c.f64();
        split.from_stage = c.i32();
        const std::uint32_t nreps = c.count(kIdSize);
        split.replicas.reserve(nreps);
        for (std::uint32_t r = 0; r < nreps; ++r)
          split.replicas.push_back(c.i32());
        task.inputs.push_back(std::move(split));
      }
      stage.tasks.push_back(std::move(task));
    }
    job.stages.push_back(std::move(stage));
  }
  if (!c.exhausted()) {
    throw std::runtime_error(
        "binary trace: job " + std::to_string(c.job()) +
        " body has trailing bytes (corrupt record)");
  }
  return job;
}

long count_tasks(const sim::JobSpec& job) {
  long n = 0;
  for (const auto& stage : job.stages)
    n += static_cast<long>(stage.tasks.size());
  return n;
}

}  // namespace

// ---------------------------------------------------------------------------
// BinaryTraceWriter

BinaryTraceWriter::BinaryTraceWriter(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    throw std::runtime_error("binary trace: cannot open '" + path +
                             "' for writing");
  }
  std::vector<char> header;
  header.insert(header.end(), kBinaryTraceMagic, kBinaryTraceMagic + 4);
  put_u32(header, kBinaryTraceVersion);
  put_u64(header, 0);  // job count, patched by finalize()
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size()) {
    std::fclose(file_);
    file_ = nullptr;
    throw std::runtime_error("binary trace: write failed on '" + path + "'");
  }
}

BinaryTraceWriter::~BinaryTraceWriter() {
  try {
    finalize();
  } catch (...) {
    // Destructors must not throw; an explicit finalize() call reports.
    if (file_ != nullptr) std::fclose(file_);
    file_ = nullptr;
  }
}

void BinaryTraceWriter::add(const sim::JobSpec& job) {
  if (file_ == nullptr) {
    throw std::runtime_error("binary trace: add() after finalize()");
  }
  if (jobs_written_ > 0 && job.arrival < last_arrival_) {
    throw std::invalid_argument(
        "binary trace: job " + std::to_string(jobs_written_) + " ('" +
        job.name + "') arrives at " + std::to_string(job.arrival) +
        ", before its predecessor at " + std::to_string(last_arrival_) +
        "; binary traces must be sorted by arrival");
  }
  encode_body(body_, job);
  std::vector<char> header;
  header.reserve(kJobHeaderSize);
  put_f64(header, job.arrival);
  put_u64(header, static_cast<std::uint64_t>(count_tasks(job)));
  put_u64(header, static_cast<std::uint64_t>(body_.size()));
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size() ||
      std::fwrite(body_.data(), 1, body_.size(), file_) != body_.size()) {
    throw std::runtime_error("binary trace: write failed on '" + path_ + "'");
  }
  last_arrival_ = job.arrival;
  jobs_written_++;
}

void BinaryTraceWriter::finalize() {
  if (file_ == nullptr) return;
  std::vector<char> count;
  put_u64(count, static_cast<std::uint64_t>(jobs_written_));
  const bool ok = std::fseek(file_, 8, SEEK_SET) == 0 &&
                  std::fwrite(count.data(), 1, count.size(), file_) ==
                      count.size();
  const bool closed = std::fclose(file_) == 0;
  file_ = nullptr;
  if (!ok || !closed) {
    throw std::runtime_error("binary trace: finalize failed on '" + path_ +
                             "'");
  }
}

// ---------------------------------------------------------------------------
// BinaryTraceReader

BinaryTraceReader::BinaryTraceReader(const std::string& path,
                                     std::size_t chunk_size)
    : path_(path), chunk_size_(chunk_size == 0 ? 1 : chunk_size) {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    throw std::runtime_error("binary trace: cannot open '" + path + "'");
  }
  if (!ensure(kFileHeaderSize, /*header_boundary=*/false)) {
    corrupt("file shorter than its header");
  }
  const char* p = buf_.data() + pos_;
  if (std::memcmp(p, kBinaryTraceMagic, 4) != 0) {
    corrupt("bad magic (not a binary trace file)");
  }
  const std::uint32_t version = get_u32(p + 4);
  if (version != kBinaryTraceVersion) {
    corrupt("unsupported version " + std::to_string(version));
  }
  const std::uint64_t count = get_u64(p + 8);
  if (count > static_cast<std::uint64_t>(
                  std::numeric_limits<long>::max())) {
    corrupt("absurd job count");
  }
  total_jobs_ = static_cast<long>(count);
  pos_ += kFileHeaderSize;
  file_offset_ += static_cast<long long>(kFileHeaderSize);
}

BinaryTraceReader::~BinaryTraceReader() {
  if (file_ != nullptr) std::fclose(file_);
}

void BinaryTraceReader::corrupt(const std::string& what) const {
  throw std::runtime_error("binary trace '" + path_ + "' at byte " +
                           std::to_string(file_offset_) + " (job " +
                           std::to_string(jobs_read_) + "): " + what);
}

bool BinaryTraceReader::ensure(std::size_t n, bool header_boundary) {
  // Compact the consumed prefix once it dominates the buffer, so long
  // streams do not grow the buffer without bound.
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > 2 * chunk_size_)) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(pos_));
    pos_ = 0;
  }
  while (buf_.size() - pos_ < n) {
    const std::size_t old = buf_.size();
    buf_.resize(old + chunk_size_);
    const std::size_t got = std::fread(buf_.data() + old, 1, chunk_size_,
                                       file_);
    buf_.resize(old + got);
    if (got == 0) {
      if (header_boundary && buf_.size() == pos_) return false;  // clean EOF
      corrupt("unexpected end of file (truncated record)");
    }
  }
  return true;
}

bool BinaryTraceReader::peek(sim::JobPeek& out) {
  if (jobs_read_ >= total_jobs_) {
    // Anything after the declared last job is ignored, like trailing
    // garbage past the end of an archive.
    return false;
  }
  if (!ensure(kJobHeaderSize, /*header_boundary=*/true)) {
    corrupt("file ends after " + std::to_string(jobs_read_) + " of " +
            std::to_string(total_jobs_) + " declared jobs");
  }
  const char* p = buf_.data() + pos_;
  out.arrival = get_f64(p);
  const std::uint64_t tasks = get_u64(p + 8);
  if (tasks > static_cast<std::uint64_t>(
                  std::numeric_limits<long>::max())) {
    corrupt("absurd task count");
  }
  out.tasks = static_cast<long>(tasks);
  return true;
}

bool BinaryTraceReader::next(sim::JobSpec& out) {
  sim::JobPeek head;
  if (!peek(head)) return false;
  const std::uint64_t body_size = get_u64(buf_.data() + pos_ + 16);
  if (body_size > (std::uint64_t{1} << 40)) {
    corrupt("absurd body size");  // refuse before trying to buffer ~1TB
  }
  ensure(kJobHeaderSize + static_cast<std::size_t>(body_size),
         /*header_boundary=*/false);
  BodyCursor cursor(buf_.data() + pos_ + kJobHeaderSize,
                    static_cast<std::size_t>(body_size), jobs_read_);
  out = decode_body(cursor);
  out.arrival = head.arrival;
  if (jobs_read_ > 0 && out.arrival < last_arrival_) {
    corrupt("out-of-order arrival " + std::to_string(out.arrival) +
            " after " + std::to_string(last_arrival_) +
            "; binary traces must be sorted by arrival");
  }
  if (count_tasks(out) != head.tasks) {
    corrupt("job header declares " + std::to_string(head.tasks) +
            " tasks but the body holds " + std::to_string(count_tasks(out)));
  }
  last_arrival_ = out.arrival;
  jobs_read_++;
  const std::size_t consumed =
      kJobHeaderSize + static_cast<std::size_t>(body_size);
  pos_ += consumed;
  file_offset_ += static_cast<long long>(consumed);
  return true;
}

// ---------------------------------------------------------------------------
// Whole-workload conveniences

void write_binary_trace_file(const std::string& path,
                             const sim::Workload& workload) {
  BinaryTraceWriter writer(path);
  for (const auto& job : workload.jobs) writer.add(job);
  writer.finalize();
}

sim::Workload read_binary_trace_file(const std::string& path) {
  // No reserve: the header's job count is not checked against the file
  // until the jobs are read.
  BinaryTraceReader reader(path);
  sim::Workload workload;
  sim::JobSpec job;
  while (reader.next(job)) workload.jobs.push_back(std::move(job));
  return workload;
}

}  // namespace tetris::workload
