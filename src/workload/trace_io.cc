#include "workload/trace_io.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace tetris::workload {

void write_trace(std::ostream& os, const sim::Workload& workload) {
  // Shortest round-trippable representation: replaying a written trace
  // must reproduce bit-identical simulations.
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "# tetris trace v1: " << workload.jobs.size() << " jobs, "
     << workload.total_tasks() << " tasks\n";
  for (const auto& job : workload.jobs) {
    os << "job " << job.arrival << " " << job.template_id << " "
       << job.queue << " " << job.name << "\n";
    for (const auto& stage : job.stages) {
      os << "stage " << (stage.name.empty() ? "-" : stage.name);
      for (int d : stage.deps) os << " " << d;
      os << "\n";
      for (const auto& task : stage.tasks) {
        os << "task " << task.cpu_cycles << " " << task.peak_cores << " "
           << task.peak_mem << " " << task.output_bytes << " "
           << task.max_io_bw << " " << task.inputs.size() << "\n";
        for (const auto& split : task.inputs) {
          os << "split " << split.bytes << " " << split.from_stage;
          for (auto r : split.replicas) os << " " << r;
          os << "\n";
        }
      }
    }
  }
  os << "end " << workload.jobs.size() << " " << workload.total_tasks()
     << "\n";
}

std::string trace_to_string(const sim::Workload& workload) {
  std::ostringstream os;
  write_trace(os, workload);
  return os.str();
}

namespace {

[[noreturn]] void fail(int line, const std::string& what) {
  throw std::runtime_error("trace parse error at line " +
                           std::to_string(line) + ": " + what);
}

constexpr std::string_view kBlanks = " \t\r\v\f";

// Pops the next blank-separated field off `rest`; empty at the end of the
// line.
std::string_view next_field(std::string_view& rest) {
  const std::size_t b = rest.find_first_not_of(kBlanks);
  if (b == std::string_view::npos) return rest = {};
  rest.remove_prefix(b);
  const std::string_view f = rest.substr(0, rest.find_first_of(kBlanks));
  rest.remove_prefix(f.size());
  return f;
}

// A number must fill its whole field. std::from_chars reads it without a
// stream or a locale, about four times faster than extracting through a
// stream per line.
template <typename T>
bool parse_number(std::string_view f, T* out) {
  const auto [end, ec] = std::from_chars(f.data(), f.data() + f.size(), *out);
  return !f.empty() && ec == std::errc() && end == f.data() + f.size();
}

}  // namespace

sim::Workload read_trace(std::istream& is) {
  sim::Workload workload;
  sim::JobSpec* job = nullptr;
  sim::StageSpec* stage = nullptr;
  sim::TaskSpec* task = nullptr;
  std::size_t pending_splits = 0;
  bool ended = false;

  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    // getline stops at end of input without a newline only on a cut line.
    if (is.eof()) fail(lineno, "trace truncated: line has no newline");
    if (line.empty() || line[0] == '#') continue;
    if (ended) fail(lineno, "record after end");
    std::string_view rest = line;
    const std::string_view kind = next_field(rest);
    const auto number = [&](auto* out) {
      if (!parse_number(next_field(rest), out))
        fail(lineno, "malformed " + std::string(kind) + " line");
    };
    const auto more = [&] {
      return rest.find_first_not_of(kBlanks) != std::string_view::npos;
    };

    if (kind == "job") {
      if (pending_splits > 0) fail(lineno, "job before all splits were read");
      sim::JobSpec j;
      number(&j.arrival);
      number(&j.template_id);
      number(&j.queue);
      // The name is the rest of the line, spaces included.
      if (rest.empty()) fail(lineno, "malformed job line");
      j.name = rest.substr(std::min(rest.find_first_not_of(' '), rest.size()));
      workload.jobs.push_back(std::move(j));
      job = &workload.jobs.back();
      stage = nullptr;
      task = nullptr;
    } else if (kind == "stage") {
      if (job == nullptr) fail(lineno, "stage before any job");
      if (pending_splits > 0)
        fail(lineno, "stage before all splits were read");
      sim::StageSpec s;
      s.name = next_field(rest);
      if (s.name == "-") s.name.clear();
      while (more()) {
        int dep = 0;
        number(&dep);
        s.deps.push_back(dep);
      }
      job->stages.push_back(std::move(s));
      stage = &job->stages.back();
      task = nullptr;
    } else if (kind == "task") {
      if (stage == nullptr) fail(lineno, "task before any stage");
      if (pending_splits > 0) fail(lineno, "task before all splits were read");
      sim::TaskSpec t;
      number(&t.cpu_cycles);
      number(&t.peak_cores);
      number(&t.peak_mem);
      number(&t.output_bytes);
      number(&t.max_io_bw);
      number(&pending_splits);
      stage->tasks.push_back(std::move(t));
      task = &stage->tasks.back();
    } else if (kind == "split") {
      if (task == nullptr || pending_splits == 0)
        fail(lineno, "unexpected split line");
      sim::InputSplit split;
      number(&split.bytes);
      number(&split.from_stage);
      while (more()) {
        sim::MachineId r = 0;
        number(&r);
        split.replicas.push_back(r);
      }
      task->inputs.push_back(std::move(split));
      --pending_splits;
    } else if (kind == "end") {
      if (pending_splits > 0) fail(lineno, "end before all splits were read");
      std::size_t jobs = 0, tasks = 0;
      number(&jobs);
      number(&tasks);
      if (jobs != workload.jobs.size() || tasks != workload.total_tasks())
        fail(lineno, "end counts " + std::to_string(jobs) + " jobs, " +
                         std::to_string(tasks) + " tasks; read " +
                         std::to_string(workload.jobs.size()) + " jobs, " +
                         std::to_string(workload.total_tasks()) + " tasks");
      ended = true;
    } else {
      fail(lineno, "unknown record '" + std::string(kind) + "'");
    }
  }
  if (!ended) fail(lineno, "trace truncated: no end record");
  if (auto msg = sim::validate(workload); !msg.empty())
    throw std::runtime_error("trace semantic error: " + msg);
  return workload;
}

sim::Workload trace_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_trace(is);
}

bool write_trace_file(const std::string& path,
                      const sim::Workload& workload) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  write_trace(out, workload);
  return static_cast<bool>(out);
}

sim::Workload read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  return read_trace(in);
}

}  // namespace tetris::workload
