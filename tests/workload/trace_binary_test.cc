// Property and adversarial tests for the binary trace format
// (workload/trace_binary.h): randomized generate → write → incremental-
// read cycles must reproduce every field bit-for-bit at any chunk size,
// and malformed files — truncations at arbitrary byte positions, bad
// magic, corrupt sizes, out-of-order arrivals — must be rejected with an
// error that names the byte offset and job, never decoded into garbage.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "workload/stream_gen.h"
#include "workload/trace_binary.h"

namespace tetris::workload {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "trace_binary_" + name + ".bin";
}

// Random job with the corners the encoder must carry: empty names,
// unicode-ish bytes, dependency lists, splits of all three kinds (DFS
// replicas, shuffle from_stage, generated), zero-task stages.
sim::JobSpec random_job(Rng& rng, double arrival) {
  sim::JobSpec job;
  const int name_len = static_cast<int>(rng.uniform_int(0, 12));
  for (int i = 0; i < name_len; ++i)
    job.name.push_back(static_cast<char>(rng.uniform_int(1, 255)));
  job.arrival = arrival;
  job.template_id = static_cast<int>(rng.uniform_int(-1, 5));
  job.queue = static_cast<int>(rng.uniform_int(0, 3));
  const int nstages = static_cast<int>(rng.uniform_int(1, 4));
  for (int s = 0; s < nstages; ++s) {
    sim::StageSpec stage;
    stage.name = "s" + std::to_string(s);
    for (int d = 0; d < s; ++d)
      if (rng.uniform(0, 1) < 0.5) stage.deps.push_back(d);
    const int ntasks = static_cast<int>(rng.uniform_int(0, 6));
    for (int t = 0; t < ntasks; ++t) {
      sim::TaskSpec task;
      task.cpu_cycles = rng.uniform(0, 100);
      task.peak_cores = rng.uniform(0.1, 4);
      task.peak_mem = rng.uniform(0.1, 8) * kGB;
      task.output_bytes = rng.uniform(0, 512) * kMB;
      task.max_io_bw = rng.uniform(10, 200) * kMB;
      const int nsplits = static_cast<int>(rng.uniform_int(0, 3));
      for (int i = 0; i < nsplits; ++i) {
        sim::InputSplit split;
        split.bytes = rng.uniform(1, 256) * kMB;
        const double kind = rng.uniform(0, 1);
        if (kind < 0.4) {
          const int nreps = static_cast<int>(rng.uniform_int(1, 3));
          for (int r = 0; r < nreps; ++r)
            split.replicas.push_back(
                static_cast<sim::MachineId>(rng.uniform_int(0, 19)));
        } else if (kind < 0.7 && !stage.deps.empty()) {
          split.from_stage = stage.deps[static_cast<std::size_t>(
              rng.uniform_int(0, long(stage.deps.size()) - 1))];
        }  // else: generated data, no replicas, no from_stage
        task.inputs.push_back(std::move(split));
      }
      stage.tasks.push_back(std::move(task));
    }
    job.stages.push_back(std::move(stage));
  }
  return job;
}

sim::Workload random_workload(std::uint64_t seed, int jobs) {
  Rng rng(seed);
  sim::Workload w;
  double arrival = 0;
  for (int i = 0; i < jobs; ++i) {
    arrival += rng.uniform(0, 10);  // non-decreasing by construction
    w.jobs.push_back(random_job(rng, arrival));
  }
  return w;
}

void expect_jobs_equal(const sim::JobSpec& a, const sim::JobSpec& b,
                       int index) {
  SCOPED_TRACE("job " + std::to_string(index));
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.arrival, b.arrival);
  EXPECT_EQ(a.template_id, b.template_id);
  EXPECT_EQ(a.queue, b.queue);
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (std::size_t s = 0; s < a.stages.size(); ++s) {
    const auto& sa = a.stages[s];
    const auto& sb = b.stages[s];
    EXPECT_EQ(sa.name, sb.name);
    EXPECT_EQ(sa.deps, sb.deps);
    ASSERT_EQ(sa.tasks.size(), sb.tasks.size());
    for (std::size_t t = 0; t < sa.tasks.size(); ++t) {
      const auto& ta = sa.tasks[t];
      const auto& tb = sb.tasks[t];
      EXPECT_EQ(ta.cpu_cycles, tb.cpu_cycles);
      EXPECT_EQ(ta.peak_cores, tb.peak_cores);
      EXPECT_EQ(ta.peak_mem, tb.peak_mem);
      EXPECT_EQ(ta.output_bytes, tb.output_bytes);
      EXPECT_EQ(ta.max_io_bw, tb.max_io_bw);
      ASSERT_EQ(ta.inputs.size(), tb.inputs.size());
      for (std::size_t i = 0; i < ta.inputs.size(); ++i) {
        EXPECT_EQ(ta.inputs[i].bytes, tb.inputs[i].bytes);
        EXPECT_EQ(ta.inputs[i].from_stage, tb.inputs[i].from_stage);
        EXPECT_EQ(ta.inputs[i].replicas, tb.inputs[i].replicas);
      }
    }
  }
}

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_all(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<long>(bytes.size()));
}

TEST(TraceBinaryTest, RandomizedRoundTripsAreExact) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const sim::Workload w = random_workload(seed, 20);
    const std::string path =
        temp_path("roundtrip_" + std::to_string(seed));
    write_binary_trace_file(path, w);
    const sim::Workload back = read_binary_trace_file(path);
    ASSERT_EQ(back.jobs.size(), w.jobs.size());
    for (std::size_t i = 0; i < w.jobs.size(); ++i)
      expect_jobs_equal(w.jobs[i], back.jobs[i], static_cast<int>(i));
    std::remove(path.c_str());
  }
}

TEST(TraceBinaryTest, AdversarialChunkSizesDecodeTheSameStream) {
  const sim::Workload w = random_workload(7, 30);
  const std::string path = temp_path("chunks");
  write_binary_trace_file(path, w);
  // Chunk sizes straddling every boundary: single bytes, primes smaller
  // than any header, sizes around the header sizes, and huge.
  for (std::size_t chunk : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                            std::size_t{15}, std::size_t{16}, std::size_t{17},
                            std::size_t{23}, std::size_t{24}, std::size_t{25},
                            std::size_t{1024}, std::size_t{1 << 20}}) {
    SCOPED_TRACE("chunk=" + std::to_string(chunk));
    BinaryTraceReader reader(path, chunk);
    EXPECT_EQ(reader.total_jobs(), long(w.jobs.size()));
    sim::JobSpec job;
    int i = 0;
    sim::JobPeek head;
    while (reader.peek(head)) {
      ASSERT_LT(i, int(w.jobs.size()));
      // peek's metadata must agree with the decoded job that follows.
      EXPECT_EQ(head.arrival, w.jobs[size_t(i)].arrival);
      ASSERT_TRUE(reader.next(job));
      long tasks = 0;
      for (const auto& s : job.stages) tasks += long(s.tasks.size());
      EXPECT_EQ(head.tasks, tasks);
      expect_jobs_equal(w.jobs[size_t(i)], job, i);
      ++i;
    }
    EXPECT_EQ(i, int(w.jobs.size()));
    EXPECT_FALSE(reader.next(job));
  }
  std::remove(path.c_str());
}

TEST(TraceBinaryTest, StreamGeneratorRoundTripsThroughFile) {
  StreamGenConfig gen;
  gen.num_jobs = 25;
  gen.seed = 9;
  const sim::Workload w = materialize_stream(gen);
  const std::string path = temp_path("gen");
  write_binary_trace_file(path, w);
  const sim::Workload back = read_binary_trace_file(path);
  ASSERT_EQ(back.jobs.size(), w.jobs.size());
  for (std::size_t i = 0; i < w.jobs.size(); ++i)
    expect_jobs_equal(w.jobs[i], back.jobs[i], static_cast<int>(i));
  std::remove(path.c_str());
}

// make_stream_job draws replicas modulo num_machines and loops over the
// other counts, so a config out of range must be refused up front: by
// validate() and by the source's constructor, which calls it.
TEST(TraceBinaryTest, StreamGeneratorRejectsConfigsOutOfRange) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<const char*, void (*)(StreamGenConfig&)>>
      bad = {
          {"zero machines", [](StreamGenConfig& c) { c.num_machines = 0; }},
          {"zero tasks", [](StreamGenConfig& c) { c.tasks_per_job = 0; }},
          {"no replicas", [](StreamGenConfig& c) { c.dfs_replication = 0; }},
          {"negative spacing",
           [](StreamGenConfig& c) { c.arrival_spacing = -1; }},
          {"inf spacing", [](StreamGenConfig& c) { c.arrival_spacing = kInf; }},
          {"NaN spacing", [](StreamGenConfig& c) { c.arrival_spacing = kNaN; }},
          {"zero duration", [](StreamGenConfig& c) { c.task_seconds = 0; }},
          {"inf duration", [](StreamGenConfig& c) { c.task_seconds = kInf; }},
          {"NaN duration", [](StreamGenConfig& c) { c.task_seconds = kNaN; }},
      };
  for (const auto& [what, mutate] : bad) {
    StreamGenConfig gen;
    mutate(gen);
    EXPECT_THROW(validate(gen), std::invalid_argument) << what;
    EXPECT_THROW(SyntheticJobSource{gen}, std::invalid_argument) << what;
  }
  StreamGenConfig edge;
  edge.arrival_spacing = 0;  // every job at t = 0 is a legal stream
  EXPECT_NO_THROW(validate(edge));
}

// The generator's peek() caches the head job's task count: however often
// the admission gate peeks, it must see the same head, advance nothing,
// and leave the pulled stream equal to the materialized oracle.
TEST(TraceBinaryTest, SyntheticPeekIsIdempotentAndAdvancesNothing) {
  StreamGenConfig gen;
  gen.num_jobs = 30;
  gen.seed = 5;
  const sim::Workload oracle = materialize_stream(gen);
  SyntheticJobSource source(gen);
  for (int pass = 0; pass < 2; ++pass) {
    sim::JobSpec job;
    for (std::size_t i = 0; i < oracle.jobs.size(); ++i) {
      long tasks = 0;
      for (const auto& stage : oracle.jobs[i].stages)
        tasks += static_cast<long>(stage.tasks.size());
      for (int k = 0; k < 3; ++k) {
        sim::JobPeek peek;
        ASSERT_TRUE(source.peek(peek));
        EXPECT_EQ(peek.arrival, oracle.jobs[i].arrival) << i;
        EXPECT_EQ(peek.tasks, tasks) << i;
      }
      ASSERT_TRUE(source.next(job));
      expect_jobs_equal(oracle.jobs[i], job, static_cast<int>(i));
    }
    sim::JobPeek end;
    EXPECT_FALSE(source.peek(end));
    EXPECT_FALSE(source.next(job));
    source.reset();  // the rewound stream must not see a stale head
  }
}

TEST(TraceBinaryTest, TruncationAtEveryPrefixIsRejectedCleanly) {
  const sim::Workload w = random_workload(11, 3);
  const std::string path = temp_path("trunc");
  write_binary_trace_file(path, w);
  const std::string bytes = read_all(path);
  ASSERT_GT(bytes.size(), 40u);
  // Every proper prefix must either fail construction (header cut) or
  // fail while reading — with a runtime_error, never garbage or a crash.
  // Stride keeps the loop fast; the edges and both header sizes are hit.
  std::vector<std::size_t> cuts = {0, 1, 3, 4, 7, 8, 11, 15, 16, 17,
                                   23, 24, 25, 39, 40, 41};
  for (std::size_t c = 50; c < bytes.size(); c += 97) cuts.push_back(c);
  cuts.push_back(bytes.size() - 1);
  for (std::size_t cut : cuts) {
    if (cut >= bytes.size()) continue;
    SCOPED_TRACE("cut=" + std::to_string(cut));
    write_all(path, bytes.substr(0, cut));
    try {
      BinaryTraceReader reader(path, /*chunk_size=*/8);
      sim::JobSpec job;
      while (reader.next(job)) {
      }
      // Reaching here means the reader saw a complete stream: only
      // possible when the cut kept all three jobs.
      ADD_FAILURE() << "truncated file accepted at cut " << cut;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << "error should name the file: " << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(TraceBinaryTest, BadMagicAndVersionAreRejected) {
  const sim::Workload w = random_workload(13, 2);
  const std::string path = temp_path("magic");
  write_binary_trace_file(path, w);
  std::string bytes = read_all(path);

  std::string bad = bytes;
  bad[0] = 'X';
  write_all(path, bad);
  EXPECT_THROW(BinaryTraceReader reader(path), std::runtime_error);

  bad = bytes;
  bad[4] = static_cast<char>(99);  // version
  write_all(path, bad);
  EXPECT_THROW(BinaryTraceReader reader(path), std::runtime_error);

  std::remove(path.c_str());
}

TEST(TraceBinaryTest, DeclaredJobCountBeyondFileIsRejected) {
  const sim::Workload w = random_workload(17, 2);
  const std::string path = temp_path("count");
  write_binary_trace_file(path, w);
  std::string bytes = read_all(path);
  bytes[8] = static_cast<char>(9);  // claim 9 jobs, file holds 2
  write_all(path, bytes);
  BinaryTraceReader reader(path);
  EXPECT_EQ(reader.total_jobs(), 9);
  sim::JobSpec job;
  EXPECT_TRUE(reader.next(job));
  EXPECT_TRUE(reader.next(job));
  try {
    reader.next(job);
    ADD_FAILURE() << "reader accepted a file missing declared jobs";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("2 of 9 declared"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(TraceBinaryTest, TrailingGarbageAfterDeclaredJobsIsIgnored) {
  const sim::Workload w = random_workload(19, 2);
  const std::string path = temp_path("trailing");
  write_binary_trace_file(path, w);
  std::string bytes = read_all(path);
  bytes += "garbage bytes that are not a job record";
  write_all(path, bytes);
  const sim::Workload back = read_binary_trace_file(path);
  EXPECT_EQ(back.jobs.size(), 2u);
  std::remove(path.c_str());
}

TEST(TraceBinaryTest, WriterRejectsOutOfOrderArrivals) {
  const std::string path = temp_path("writer_order");
  BinaryTraceWriter writer(path);
  sim::JobSpec job;
  job.name = "a";
  job.arrival = 10;
  job.stages.emplace_back();
  writer.add(job);
  job.name = "b";
  job.arrival = 5;
  try {
    writer.add(job);
    ADD_FAILURE() << "writer accepted an out-of-order arrival";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("sorted by arrival"),
              std::string::npos)
        << e.what();
  }
  writer.finalize();
  std::remove(path.c_str());
}

TEST(TraceBinaryTest, ReaderRejectsOutOfOrderArrivals) {
  // Hand-craft the violation: write two sorted jobs, then swap the
  // arrival fields in the raw bytes so the file itself is out of order.
  sim::Workload w;
  sim::JobSpec a;
  a.name = "a";
  a.arrival = 1;
  a.stages.emplace_back();
  sim::JobSpec b = a;
  b.name = "b";
  b.arrival = 2;
  w.jobs = {a, b};
  const std::string path = temp_path("reader_order");
  write_binary_trace_file(path, w);
  std::string bytes = read_all(path);
  // Job headers sit at offsets 16 and 16 + 24 + body0; both bodies encode
  // a 1-char name (4+1), template (4), queue (4), 1 stage: name "" would
  // differ — compute body0 from the job-0 header instead of hand-counting.
  const auto u64_at = [&](std::size_t off) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= std::uint64_t(static_cast<unsigned char>(bytes[off + i]))
           << (8 * i);
    return v;
  };
  const std::size_t body0 = static_cast<std::size_t>(u64_at(16 + 16));
  const std::size_t h0 = 16, h1 = 16 + 24 + body0;
  for (int i = 0; i < 8; ++i) std::swap(bytes[h0 + i], bytes[h1 + i]);
  write_all(path, bytes);

  BinaryTraceReader reader(path);
  sim::JobSpec job;
  EXPECT_TRUE(reader.next(job));
  try {
    reader.next(job);
    ADD_FAILURE() << "reader accepted an out-of-order arrival";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("sorted by arrival"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(TraceBinaryTest, CorruptBodySizeIsRejectedNotDecoded) {
  const sim::Workload w = random_workload(23, 2);
  const std::string path = temp_path("bodysize");
  write_binary_trace_file(path, w);
  std::string bytes = read_all(path);
  // Shrink job 0's declared body_size: the decode must hit the cursor's
  // bounds check ("overruns") or leave trailing bytes — both rejected.
  bytes[16 + 16] = static_cast<char>(1);
  for (int i = 1; i < 8; ++i) bytes[16 + 16 + i] = 0;
  write_all(path, bytes);
  BinaryTraceReader reader(path);
  sim::JobSpec job;
  EXPECT_THROW(reader.next(job), std::runtime_error);
  std::remove(path.c_str());
}

// Every count the reader takes from a file is checked against the bytes
// that could hold it before anything is allocated for it: a corrupt count
// is a std::runtime_error, never a multi-gigabyte reserve (std::bad_alloc,
// or an abort under ASan).
TEST(TraceBinaryTest, CorruptCountsAreRejectedNotAllocated) {
  // One stage, one task, one split, one replica, empty names.
  sim::JobSpec job;
  job.stages.emplace_back();
  sim::TaskSpec task;
  sim::InputSplit split;
  split.bytes = 1;
  split.replicas = {0};
  task.inputs.push_back(split);
  job.stages[0].tasks.push_back(task);
  const std::string path = temp_path("counts");
  write_binary_trace_file(path, sim::Workload{{job}});
  const std::string good = read_all(path);
  // File header, job header, then a 92-byte body; the offsets below are
  // the body's five counts.
  constexpr std::size_t kBody = 16 + 24;
  ASSERT_EQ(good.size(), kBody + 92);
  const struct {
    const char* what;
    std::size_t offset;
  } counts[] = {{"stages", kBody + 12},
                {"deps", kBody + 20},
                {"tasks", kBody + 24},
                {"splits", kBody + 68},
                {"replicas", kBody + 84}};
  for (const auto& field : counts) {
    for (const std::uint32_t n : {0xFFFFFFFFu, 0x10000000u}) {
      std::string bytes = good;
      for (int i = 0; i < 4; ++i)
        bytes[field.offset + static_cast<std::size_t>(i)] =
            static_cast<char>((n >> (8 * i)) & 0xff);
      write_all(path, bytes);
      BinaryTraceReader reader(path);
      sim::JobSpec out;
      EXPECT_THROW(reader.next(out), std::runtime_error)
          << field.what << " = " << n;
    }
  }
  // A header that declares more jobs than any file could hold.
  std::string bytes = good;
  bytes[8 + 7] = 0x40;  // job count 2^62 + 1
  write_all(path, bytes);
  EXPECT_THROW(read_binary_trace_file(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceBinaryTest, PeekIsIdempotentAndCheap) {
  const sim::Workload w = random_workload(29, 5);
  const std::string path = temp_path("peek");
  write_binary_trace_file(path, w);
  BinaryTraceReader reader(path, /*chunk_size=*/1);
  sim::JobPeek p1, p2;
  ASSERT_TRUE(reader.peek(p1));
  ASSERT_TRUE(reader.peek(p2));
  EXPECT_EQ(p1.arrival, p2.arrival);
  EXPECT_EQ(p1.tasks, p2.tasks);
  sim::JobSpec job;
  int n = 0;
  while (reader.next(job)) ++n;
  EXPECT_EQ(n, 5);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tetris::workload
