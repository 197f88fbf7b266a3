#include "model/system.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <set>
#include <sstream>

namespace rta {

const char* to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kSpp: return "SPP";
    case SchedulerKind::kSpnp: return "SPNP";
    case SchedulerKind::kFcfs: return "FCFS";
  }
  return "?";
}

std::optional<SchedulerKind> parse_scheduler_kind(const std::string& name) {
  if (name == "SPP") return SchedulerKind::kSpp;
  if (name == "SPNP") return SchedulerKind::kSpnp;
  if (name == "FCFS") return SchedulerKind::kFcfs;
  return std::nullopt;
}

int System::add_job(Job job) {
  job.id = claim_job_id(job.id);
  jobs_.push_back(std::move(job));
  return static_cast<int>(jobs_.size()) - 1;
}

std::uint64_t System::claim_job_id(std::uint64_t id) {
  if (id == 0) return next_job_id_++;
  if (id >= next_job_id_) next_job_id_ = id + 1;
  return id;
}

bool System::remove_job(int index) {
  if (index < 0 || index >= job_count()) return false;
  jobs_.erase(jobs_.begin() + index);
  return true;
}

int System::job_index_by_id(std::uint64_t id) const {
  for (int k = 0; k < job_count(); ++k) {
    if (jobs_[k].id == id) return k;
  }
  return -1;
}

int System::job_index_by_name(const std::string& name) const {
  for (int k = 0; k < job_count(); ++k) {
    if (jobs_[k].name == name) return k;
  }
  return -1;
}

std::vector<SubjobRef> System::subjobs_on(int processor) const {
  std::vector<SubjobRef> out;
  for (int k = 0; k < job_count(); ++k) {
    const auto& chain = jobs_[k].chain;
    for (int j = 0; j < static_cast<int>(chain.size()); ++j) {
      if (chain[j].processor == processor) out.push_back({k, j});
    }
  }
  return out;
}

std::vector<SubjobRef> System::higher_priority_on(int processor,
                                                  int priority) const {
  std::vector<SubjobRef> out;
  for (const SubjobRef& ref : subjobs_on(processor)) {
    if (subjob(ref).priority < priority) out.push_back(ref);
  }
  return out;
}

double System::blocking_time(SubjobRef target) const {
  const Subjob& s = subjob(target);
  double worst = 0.0;
  for (const SubjobRef& ref : subjobs_on(s.processor)) {
    const Subjob& other = subjob(ref);
    if (other.priority > s.priority) {
      worst = std::max(worst, other.exec_time);
    }
  }
  return worst;
}

Time System::last_release() const {
  Time latest = 0.0;
  for (const Job& j : jobs_) latest = std::max(latest, j.arrivals.last_release());
  return latest;
}

std::vector<double> System::utilization_estimate(Time window) const {
  std::vector<double> util(schedulers_.size(), 0.0);
  if (window <= 0.0) return util;
  for (const Job& j : jobs_) {
    std::size_t released = 0;
    for (Time t : j.arrivals.releases()) {
      if (time_le(t, window)) ++released;
    }
    for (const Subjob& s : j.chain) {
      util[s.processor] +=
          static_cast<double>(released) * s.exec_time / window;
    }
  }
  return util;
}

std::vector<std::string> System::validate() const {
  std::vector<std::string> problems;
  auto complain = [&](const std::string& msg) { problems.push_back(msg); };

  for (int k = 0; k < job_count(); ++k) {
    const Job& j = jobs_[k];
    if (j.chain.empty()) {
      complain("job " + std::to_string(k) + " has an empty chain");
    }
    if (!(j.deadline > 0.0) || !std::isfinite(j.deadline)) {
      complain("job " + std::to_string(k) +
               " has a non-positive or non-finite deadline");
    }
    if (j.arrivals.empty()) {
      complain("job " + std::to_string(k) + " has no release times");
    }
    for (std::size_t h = 0; h < j.chain.size(); ++h) {
      const Subjob& s = j.chain[h];
      if (s.processor < 0 || s.processor >= processor_count()) {
        complain("job " + std::to_string(k) + " hop " + std::to_string(h) +
                 " references invalid processor " + std::to_string(s.processor));
      }
      if (!(s.exec_time > 0.0) || !std::isfinite(s.exec_time)) {
        complain("job " + std::to_string(k) + " hop " + std::to_string(h) +
                 " has a non-positive or non-finite execution time");
      }
    }
  }

  // Unique priorities per priority-scheduled processor: the analysis assumes
  // a strict priority order among subjobs sharing a processor.
  for (int p = 0; p < processor_count(); ++p) {
    if (schedulers_[p] == SchedulerKind::kFcfs) continue;
    std::set<int> seen;
    for (const SubjobRef& ref : subjobs_on(p)) {
      const int prio = subjob(ref).priority;
      if (!seen.insert(prio).second) {
        std::ostringstream ss;
        ss << "processor " << p << " (" << to_string(schedulers_[p])
           << ") has duplicate priority " << prio;
        complain(ss.str());
      }
    }
  }
  return problems;
}

std::optional<std::string> System::validation_error() const {
  const std::vector<std::string> problems = validate();
  if (problems.empty()) return std::nullopt;
  return "invalid system: " + problems.front();
}

}  // namespace rta
