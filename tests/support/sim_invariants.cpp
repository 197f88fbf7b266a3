#include "support/sim_invariants.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

namespace rta {

namespace {

constexpr double kSlack = 1e-6;

/// One instance's presence on a processor.
struct InstanceSpan {
  int job;
  int hop;
  std::size_t m;  // 1-based
  int priority;
  Time release;
  Time complete;                        // infinity if unfinished
  std::vector<ServiceSegment> service;  // this instance's share
};

std::string ident(const System& system, const InstanceSpan& s) {
  std::ostringstream ss;
  ss << system.job(s.job).name << " hop " << s.hop << " instance " << s.m;
  return ss.str();
}

/// Split a subjob's chronological segment list into per-instance shares of
/// exactly tau each (instances of one subjob are served FIFO).
std::vector<std::vector<ServiceSegment>> split_per_instance(
    const std::vector<ServiceSegment>& segments, double tau,
    std::size_t instances) {
  std::vector<std::vector<ServiceSegment>> out(instances);
  std::size_t idx = 0;
  double need = tau;
  for (ServiceSegment seg : segments) {
    while (idx < instances && seg.end - seg.begin > kSlack) {
      const double take = std::min(need, seg.end - seg.begin);
      out[idx].push_back({seg.begin, seg.begin + take});
      seg.begin += take;
      need -= take;
      if (need <= kSlack) {
        ++idx;
        need = tau;
      }
    }
  }
  return out;
}

}  // namespace

std::vector<std::string> check_simulation_invariants(const System& system,
                                                     const SimResult& result) {
  std::vector<std::string> violations;
  auto complain = [&](const std::string& msg) {
    if (violations.size() < 50) violations.push_back(msg);
  };

  // Gather instance spans per processor.
  std::vector<std::vector<InstanceSpan>> on_proc(system.processor_count());
  for (int k = 0; k < system.job_count(); ++k) {
    const Job& job = system.job(k);
    for (int h = 0; h < static_cast<int>(job.chain.size()); ++h) {
      const Subjob& sj = job.chain[h];
      const auto shares = split_per_instance(
          result.segments[k][h], sj.exec_time, result.traces[k].size());
      for (std::size_t m = 0; m < result.traces[k].size(); ++m) {
        const InstanceTrace& trace = result.traces[k][m];
        if (!std::isfinite(trace.hop_release[h])) continue;  // never reached
        on_proc[sj.processor].push_back({k, h, m + 1, sj.priority,
                                         trace.hop_release[h],
                                         trace.hop_complete[h], shares[m]});
      }
    }
  }

  // Accounting: completed instances got exactly tau inside their window.
  for (int p = 0; p < system.processor_count(); ++p) {
    for (const InstanceSpan& s : on_proc[p]) {
      const double tau = system.job(s.job).chain[s.hop].exec_time;
      double got = 0.0;
      for (const ServiceSegment& seg : s.service) got += seg.end - seg.begin;
      if (std::isfinite(s.complete)) {
        if (std::fabs(got - tau) > kSlack) {
          complain("accounting: " + ident(system, s) + " received " +
                   std::to_string(got) + " != tau");
        }
        if (!s.service.empty()) {
          if (s.service.front().begin < s.release - kSlack) {
            complain("accounting: " + ident(system, s) +
                     " served before its release");
          }
          if (std::fabs(s.service.back().end - s.complete) > kSlack) {
            complain("accounting: " + ident(system, s) +
                     " completion differs from last service instant");
          }
        }
      }
      // Non-preemption: one contiguous block under SPNP/FCFS.
      if (system.scheduler(p) != SchedulerKind::kSpp && s.service.size() > 1) {
        for (std::size_t i = 1; i < s.service.size(); ++i) {
          if (s.service[i].begin > s.service[i - 1].end + kSlack) {
            complain("non-preemption: " + ident(system, s) +
                     " executed in disjoint segments");
            break;
          }
        }
      }
    }
  }

  // Sweep per processor: work conservation and SPP priority compliance.
  for (int p = 0; p < system.processor_count(); ++p) {
    std::vector<Time> points;
    for (const InstanceSpan& s : on_proc[p]) {
      points.push_back(s.release);
      if (std::isfinite(s.complete)) points.push_back(s.complete);
      for (const ServiceSegment& seg : s.service) {
        points.push_back(seg.begin);
        points.push_back(seg.end);
      }
    }
    points.push_back(0.0);
    points.push_back(result.horizon);
    std::sort(points.begin(), points.end());
    points.erase(std::unique(points.begin(), points.end(),
                             [](Time a, Time b) {
                               return std::fabs(a - b) <= kSlack;
                             }),
                 points.end());

    for (std::size_t i = 0; i + 1 < points.size(); ++i) {
      if (points[i + 1] - points[i] <= 10 * kSlack) continue;
      const Time mid = 0.5 * (points[i] + points[i + 1]);
      if (mid >= result.horizon) break;

      const InstanceSpan* running = nullptr;
      int best_ready_priority = std::numeric_limits<int>::max();
      bool any_ready = false;
      for (const InstanceSpan& s : on_proc[p]) {
        const bool ready = s.release <= mid && mid < s.complete;
        if (ready) {
          any_ready = true;
          best_ready_priority = std::min(best_ready_priority, s.priority);
        }
        for (const ServiceSegment& seg : s.service) {
          if (seg.begin <= mid && mid < seg.end) running = &s;
        }
      }
      if (any_ready && running == nullptr) {
        complain("work conservation: P" + std::to_string(p) + " idle at t=" +
                 std::to_string(mid) + " with ready work");
      }
      if (running && system.scheduler(p) == SchedulerKind::kSpp &&
          running->priority > best_ready_priority) {
        complain("priority: P" + std::to_string(p) + " runs " +
                 ident(system, *running) + " at t=" + std::to_string(mid) +
                 " while higher-priority work is ready");
      }
    }

    // FCFS order: earlier release completes no later.
    if (system.scheduler(p) == SchedulerKind::kFcfs) {
      for (const InstanceSpan& a : on_proc[p]) {
        for (const InstanceSpan& b : on_proc[p]) {
          if (a.release < b.release - kSlack && std::isfinite(b.complete) &&
              std::isfinite(a.complete) && a.complete > b.complete + kSlack) {
            complain("fcfs order: " + ident(system, a) + " released before " +
                     ident(system, b) + " but completed after it");
          }
        }
      }
    }
  }

  return violations;
}

}  // namespace rta
