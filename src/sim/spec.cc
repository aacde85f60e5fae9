#include "sim/spec.h"

#include <algorithm>
#include <limits>
#include <sstream>

namespace tetris::sim {

std::size_t Workload::total_tasks() const {
  std::size_t n = 0;
  for (const auto& job : jobs)
    for (const auto& stage : job.stages) n += stage.tasks.size();
  return n;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Each check states the legal range positively, so NaN — which fails
// every comparison — is rejected along with out-of-range values.
bool finite_nonneg(double x) { return 0 <= x && x < kInf; }

// Detects cycles among stage deps with an iterative three-color DFS.
bool has_cycle(const JobSpec& job) {
  enum class Color { kWhite, kGray, kBlack };
  std::vector<Color> color(job.stages.size(), Color::kWhite);
  std::vector<std::pair<int, std::size_t>> stack;  // (stage, next dep index)
  for (int root = 0; root < static_cast<int>(job.stages.size()); ++root) {
    if (color[root] != Color::kWhite) continue;
    stack.emplace_back(root, 0);
    color[root] = Color::kGray;
    while (!stack.empty()) {
      auto& [s, di] = stack.back();
      const auto& deps = job.stages[s].deps;
      if (di < deps.size()) {
        const int d = deps[di++];
        if (color[d] == Color::kGray) return true;
        if (color[d] == Color::kWhite) {
          color[d] = Color::kGray;
          stack.emplace_back(d, 0);
        }
      } else {
        color[s] = Color::kBlack;
        stack.pop_back();
      }
    }
  }
  return false;
}

// Constraint clauses that can be checked from the spec alone; label
// existence against the cluster needs the declared set (the overload
// below). `declared` may be null (spec-only validation).
std::string validate_constraint(const JobSpec& job, int s,
                                const std::vector<std::string>* declared) {
  std::ostringstream err;
  const PlacementConstraint& c = job.stages[static_cast<std::size_t>(s)].constraint;
  auto check_labels = [&](const std::vector<std::string>& labels,
                          const char* clause) -> std::string {
    for (const auto& label : labels) {
      if (label.empty()) {
        err << "job '" << job.name << "' stage " << s << " constraint has an "
            << "empty " << clause << " label";
        return err.str();
      }
      if (declared != nullptr &&
          std::find(declared->begin(), declared->end(), label) ==
              declared->end()) {
        err << "job '" << job.name << "' stage " << s << " constraint "
            << clause << "s label '" << label
            << "' which no machine declares (SimConfig::machine_labels)";
        return err.str();
      }
    }
    return "";
  };
  if (auto msg = check_labels(c.require_labels, "require"); !msg.empty())
    return msg;
  if (auto msg = check_labels(c.forbid_labels, "forbid"); !msg.empty())
    return msg;
  for (const auto& label : c.require_labels) {
    if (std::find(c.forbid_labels.begin(), c.forbid_labels.end(), label) !=
        c.forbid_labels.end()) {
      err << "job '" << job.name << "' stage " << s << " constraint both "
          << "requires and forbids label '" << label << "'";
      return err.str();
    }
  }
  return "";
}

std::string validate_impl(const JobSpec& job,
                          const std::vector<std::string>* declared) {
  std::ostringstream err;
  const int n = static_cast<int>(job.stages.size());
  if (n == 0) return "job '" + job.name + "' has no stages";
  if (!finite_nonneg(job.arrival))
    return "job '" + job.name + "' arrival must be finite and >= 0";
  for (int s = 0; s < n; ++s) {
    const auto& stage = job.stages[s];
    if (stage.tasks.empty()) {
      err << "job '" << job.name << "' stage " << s << " has no tasks";
      return err.str();
    }
    for (int d : stage.deps) {
      if (d < 0 || d >= n || d == s) {
        err << "job '" << job.name << "' stage " << s << " has bad dep " << d;
        return err.str();
      }
    }
    if (auto msg = validate_constraint(job, s, declared); !msg.empty())
      return msg;
    for (std::size_t t = 0; t < stage.tasks.size(); ++t) {
      const auto& task = stage.tasks[t];
      if (!finite_nonneg(task.cpu_cycles) ||
          !finite_nonneg(task.output_bytes)) {
        err << "job '" << job.name << "' stage " << s << " task " << t
            << " work must be finite and >= 0";
        return err.str();
      }
      if (!finite_nonneg(task.peak_cores) || !finite_nonneg(task.peak_mem)) {
        err << "job '" << job.name << "' stage " << s << " task " << t
            << " demand must be finite and >= 0";
        return err.str();
      }
      if (!(0 < task.max_io_bw && task.max_io_bw < kInf)) {
        err << "job '" << job.name << "' stage " << s << " task " << t
            << " max_io_bw must be finite and > 0";
        return err.str();
      }
      if (task.cpu_cycles > 0 && task.peak_cores <= 0) {
        err << "job '" << job.name << "' stage " << s << " task " << t
            << " has compute work but no cores";
        return err.str();
      }
      for (const auto& split : task.inputs) {
        if (!finite_nonneg(split.bytes)) {
          err << "job '" << job.name << "' stage " << s << " task " << t
              << " split bytes must be finite and >= 0";
          return err.str();
        }
        if (split.from_stage >= 0 &&
            std::find(stage.deps.begin(), stage.deps.end(),
                      split.from_stage) == stage.deps.end()) {
          err << "job '" << job.name << "' stage " << s << " task " << t
              << " reads stage " << split.from_stage
              << " which is not a dependency";
          return err.str();
        }
      }
    }
  }
  if (has_cycle(job)) return "job '" + job.name + "' has a dependency cycle";
  return "";
}

}  // namespace

std::string validate(const JobSpec& job) {
  return validate_impl(job, nullptr);
}

std::string validate(const Workload& workload) {
  for (const auto& job : workload.jobs) {
    if (auto msg = validate(job); !msg.empty()) return msg;
  }
  return "";
}

std::string validate(const JobSpec& job,
                     const std::vector<std::string>& declared_labels) {
  return validate_impl(job, &declared_labels);
}

std::string validate(const Workload& workload,
                     const std::vector<std::string>& declared_labels) {
  for (const auto& job : workload.jobs) {
    if (auto msg = validate(job, declared_labels); !msg.empty()) return msg;
  }
  return "";
}

}  // namespace tetris::sim
