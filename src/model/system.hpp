// System model (paper §3): processors, jobs, subjob chains, schedulers.
//
// A system has m processors and n independent jobs; job T_k is a chain of
// subjobs T_{k,1}..T_{k,n_k}, each executing for tau_{k,j} time units on a
// designated processor. Direct synchronization is assumed: completion of
// T_{k,j} releases T_{k,j+1} immediately. Each processor runs one scheduler
// (SPP, SPNP or FCFS -- heterogeneous mixes are allowed, §6).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "curve/arrival.hpp"
#include "util/time.hpp"

namespace rta {

/// Scheduling policy of a processor (§3.2).
enum class SchedulerKind {
  kSpp,   ///< static-priority preemptive
  kSpnp,  ///< static-priority non-preemptive
  kFcfs,  ///< first-come-first-served
};

[[nodiscard]] const char* to_string(SchedulerKind kind);

/// Inverse of to_string: "SPP", "SPNP" or "FCFS"; nullopt for anything else.
[[nodiscard]] std::optional<SchedulerKind> parse_scheduler_kind(
    const std::string& name);

/// One hop of a job's chain.
struct Subjob {
  int processor = -1;      ///< index of P(k,j)
  double exec_time = 0.0;  ///< tau_{k,j} > 0
  int priority = 0;        ///< phi_{k,j}: per-processor, smaller = higher
};

/// A job: end-to-end deadline, subjob chain, and the release times of its
/// first subjob (Def. 1 applies to T_{k,1}; later hops' arrivals are derived
/// by the analysis or observed in simulation).
struct Job {
  std::string name;
  Time deadline = 0.0;
  std::vector<Subjob> chain;
  ArrivalSequence arrivals;
  /// Stable identity for delta-based services: assigned by System::add_job
  /// when 0 and never reused within one System, so it survives removals that
  /// shift job *indices* (serializers may carry explicit ids across I/O).
  std::uint64_t id = 0;
};

/// Reference to subjob T_{job+1, hop+1} (0-based indices internally).
struct SubjobRef {
  int job = -1;
  int hop = -1;
  friend bool operator==(const SubjobRef&, const SubjobRef&) = default;
};

/// A complete distributed real-time system.
class System {
 public:
  System() = default;
  explicit System(int processor_count,
                  SchedulerKind default_scheduler = SchedulerKind::kSpp)
      : schedulers_(static_cast<std::size_t>(processor_count),
                    default_scheduler) {}

  /// Append a job; returns its index. A zero Job::id is replaced by a fresh
  /// id unique within this System; explicit nonzero ids are kept (and bump
  /// the internal counter past them).
  int add_job(Job job);

  /// The id add_job would give a job carrying `id`, with the counter moved
  /// exactly as add_job moves it: a zero id takes the next fresh id, an
  /// explicit one is kept and lifts the counter past it. Lets a memoized
  /// what-if hand out the id its analysis would have drawn.
  std::uint64_t claim_job_id(std::uint64_t id);

  /// Remove the job at `index`; later jobs shift down by one index but keep
  /// their stable ids. Returns false when the index is out of range.
  bool remove_job(int index);

  /// Index of the job with the given stable id, or -1.
  [[nodiscard]] int job_index_by_id(std::uint64_t id) const;

  /// The id the next zero-id add_job would assign. Together with
  /// set_next_job_id this lets callers running speculative add_job +
  /// remove_job sequences (service what-ifs) leave id assignment exactly as
  /// if the speculation had not happened, and lets a batching scheduler
  /// pre-assign the ids sequential execution would hand out.
  [[nodiscard]] std::uint64_t next_job_id() const { return next_job_id_; }
  void set_next_job_id(std::uint64_t next) { next_job_id_ = next; }

  /// Index of the first job with the given name, or -1.
  [[nodiscard]] int job_index_by_name(const std::string& name) const;

  [[nodiscard]] int job_count() const { return static_cast<int>(jobs_.size()); }
  [[nodiscard]] int processor_count() const {
    return static_cast<int>(schedulers_.size());
  }

  [[nodiscard]] const Job& job(int k) const { return jobs_.at(k); }
  [[nodiscard]] Job& job(int k) { return jobs_.at(k); }
  [[nodiscard]] const std::vector<Job>& jobs() const { return jobs_; }

  [[nodiscard]] const Subjob& subjob(SubjobRef ref) const {
    return jobs_.at(ref.job).chain.at(ref.hop);
  }
  [[nodiscard]] Subjob& subjob(SubjobRef ref) {
    return jobs_.at(ref.job).chain.at(ref.hop);
  }

  void set_scheduler(int processor, SchedulerKind kind) {
    schedulers_.at(processor) = kind;
  }
  [[nodiscard]] SchedulerKind scheduler(int processor) const {
    return schedulers_.at(processor);
  }

  /// All subjobs mapped to a processor, in (job, hop) order.
  [[nodiscard]] std::vector<SubjobRef> subjobs_on(int processor) const;

  /// Subjobs on `processor` with priority strictly higher (smaller phi) than
  /// `priority`.
  [[nodiscard]] std::vector<SubjobRef> higher_priority_on(int processor,
                                                          int priority) const;

  /// Maximum blocking time b_{k,j} (Eq. 15): the largest execution time among
  /// strictly lower-priority subjobs on the same processor. Zero if none.
  [[nodiscard]] double blocking_time(SubjobRef ref) const;

  /// Latest first-hop release in the system (the generation window in use).
  [[nodiscard]] Time last_release() const;

  /// Total execution demand released within [0, window], per processor,
  /// divided by window: an empirical utilization estimate.
  [[nodiscard]] std::vector<double> utilization_estimate(Time window) const;

  /// Structural validation; returns human-readable problems (empty if OK).
  /// Checks chains, execution times, processor indices, sorted arrivals, and
  /// unique per-processor priorities where a priority scheduler is in use.
  [[nodiscard]] std::vector<std::string> validate() const;

  /// The error every analyzer and loader reports for an invalid system --
  /// its first validate() problem, prefixed -- or nullopt when valid.
  [[nodiscard]] std::optional<std::string> validation_error() const;

 private:
  std::vector<Job> jobs_;
  std::vector<SchedulerKind> schedulers_;
  std::uint64_t next_job_id_ = 1;
};

}  // namespace rta
