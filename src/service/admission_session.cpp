#include "service/admission_session.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "analysis/order.hpp"
#include "curve/kernel_hooks.hpp"
#include "obs/kernel_sink.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rta::service {

namespace {

using detail::BoundStateMap;

int total_subjobs(const System& system) {
  int n = 0;
  for (int k = 0; k < system.job_count(); ++k) {
    n += static_cast<int>(system.job(k).chain.size());
  }
  return n;
}

/// Node-indexed dirty flags over a candidate's dependency graph.
struct DirtySet {
  std::vector<char> flags;
  int count = 0;
};

/// Close `seeds` under dependency-graph successors: a recomputed subjob's
/// changed curves feed exactly its successors' computations.
DirtySet close_over_successors(const DependencyGraph& graph,
                               std::vector<int> seeds) {
  DirtySet dirty;
  dirty.flags.assign(graph.node_count(), 0);
  while (!seeds.empty()) {
    const int v = seeds.back();
    seeds.pop_back();
    if (dirty.flags[v] != 0) continue;
    dirty.flags[v] = 1;
    ++dirty.count;
    for (int w : graph.succ[v]) {
      if (dirty.flags[w] == 0) seeds.push_back(w);
    }
  }
  return dirty;
}

/// Largest execution time among subjobs on `p` with priority strictly lower
/// than `priority`, skipping job `exclude_job`: Eq. 15's blocking term as it
/// was before that job existed.
double blocking_excluding(const System& system, int p, int priority,
                          int exclude_job) {
  double b = 0.0;
  for (const SubjobRef& r : system.subjobs_on(p)) {
    if (r.job == exclude_job) continue;
    const Subjob& s = system.subjob(r);
    if (s.priority > priority) b = std::max(b, s.exec_time);
  }
  return b;
}

std::vector<int> touched_processors(const std::vector<Subjob>& chain) {
  std::vector<int> procs;
  for (const Subjob& s : chain) procs.push_back(s.processor);
  std::sort(procs.begin(), procs.end());
  procs.erase(std::unique(procs.begin(), procs.end()), procs.end());
  return procs;
}

/// Dirty seeds for "job `k_new` was appended". The graph's interference
/// edges (higher-priority -> lower-priority) propagate the new subjobs'
/// effect on SPP/SPNP processors; what they cannot express is seeded
/// explicitly: whole FCFS processors (the new arrivals enter Theorem 7's
/// shared utilization function) and SPNP subjobs whose blocking term grew.
std::vector<int> seeds_for_added_job(const System& system,
                                     const DependencyGraph& graph, int k_new) {
  std::vector<int> seeds;
  const Job& added = system.job(k_new);
  for (int h = 0; h < static_cast<int>(added.chain.size()); ++h) {
    seeds.push_back(graph.node({k_new, h}));
  }
  for (int p : touched_processors(added.chain)) {
    const SchedulerKind kind = system.scheduler(p);
    if (kind == SchedulerKind::kFcfs) {
      for (const SubjobRef& r : system.subjobs_on(p)) {
        seeds.push_back(graph.node(r));
      }
    } else if (kind == SchedulerKind::kSpnp) {
      for (const SubjobRef& r : system.subjobs_on(p)) {
        if (r.job == k_new) continue;
        const double before =
            blocking_excluding(system, p, system.subjob(r).priority, k_new);
        // rta-lint: allow(float-eq) change detection: any bit difference in
        // the blocking term must seed the dirty set, so exact compare is right
        if (system.blocking_time(r) != before) seeds.push_back(graph.node(r));
      }
    }
  }
  return seeds;
}

/// Dirty seeds for "a job whose hops were `removed_chain` is gone".
/// `system` is the post-removal candidate. `old_blocking` carries each
/// surviving SPNP subjob's pre-removal Eq. 15 blocking, keyed by stable job
/// id (indices shifted). The removed subjobs' interference victims --
/// strictly lower-priority subjobs, whole FCFS processors -- are seeded
/// directly since the removed graph nodes no longer exist to propagate it.
std::vector<int> seeds_for_removed_job(
    const System& system, const DependencyGraph& graph,
    const std::vector<Subjob>& removed_chain,
    const std::map<std::pair<std::uint64_t, int>, double>& old_blocking) {
  std::vector<int> seeds;
  for (int p : touched_processors(removed_chain)) {
    const SchedulerKind kind = system.scheduler(p);
    if (kind == SchedulerKind::kFcfs) {
      for (const SubjobRef& r : system.subjobs_on(p)) {
        seeds.push_back(graph.node(r));
      }
      continue;
    }
    for (const SubjobRef& r : system.subjobs_on(p)) {
      const Subjob& s = system.subjob(r);
      bool affected = false;
      for (const Subjob& gone : removed_chain) {
        if (gone.processor == p && gone.priority < s.priority) {
          affected = true;  // lost an interferer
        }
      }
      if (!affected && kind == SchedulerKind::kSpnp) {
        const auto it = old_blocking.find({system.job(r.job).id, r.hop});
        if (it != old_blocking.end() && it->second != system.blocking_time(r)) {
          affected = true;  // lost the blocking maximizer
        }
      }
      if (affected) seeds.push_back(graph.node(r));
    }
  }
  return seeds;
}

/// First argmax of the hop bounds, -1 without hops; any local bound (finite
/// or +inf) beats the -1 sentinel.
int dominant_hop(const std::vector<ExplainHop>& hops) {
  int dominant = -1;
  Time best = -1.0;
  for (const ExplainHop& eh : hops) {
    if (eh.bound > best) {
      best = eh.bound;
      dominant = eh.hop;
    }
  }
  return dominant;
}

/// The explain of candidate `job` whose end-to-end bound is `bound`
/// (detail::job_bound's form); the general and the fast what-if path both
/// build it here, so their explains are bit-identical. Leaves
/// horizon_doublings to the caller.
void fill_explain(Explain& explain, const Job& job, const JobReport& bound) {
  explain.available = true;
  explain.wcrt = bound.wcrt;
  explain.deadline = job.deadline;
  explain.hops.clear();
  explain.hops.reserve(bound.hops.size());
  for (std::size_t h = 0; h < bound.hops.size(); ++h) {
    explain.hops.push_back({static_cast<int>(h), job.chain[h].processor,
                            bound.hops[h].local_bound});
  }
  explain.dominant_hop = dominant_hop(explain.hops);
}

}  // namespace

AdmissionSession::AdmissionSession(System base, SessionConfig config)
    : system_(std::move(base)), config_(config) {
  eobs_ = detail::EngineObs::make_if(config_.analysis.observer, "service");

  Decision d;
  if (const auto order = structural_check(d)) {
    detail::EngineObs::AnalyzeScope scope(eobs_.get(), /*pool=*/nullptr);
    const Time h = default_horizon(system_, config_.analysis);
    analyze_pass(d, *order, h, /*dirty=*/nullptr, states_);
    horizon_ = h;
    have_states_ = true;
  }
  last_ = std::move(d.analysis);
}

AdmissionSession::~AdmissionSession() = default;

/// Per-committed-state aggregates backing the fast what-if path. Everything
/// here is derivable from (system_, last_) in one O(subjobs) sweep; caching
/// it once per committed state makes each fast what-if O(candidate hops).
struct AdmissionSession::ReadCache {
  std::vector<int> max_priority;  ///< per processor; INT_MIN when unused
  std::vector<char> is_spp;       ///< per processor
  double max_deadline = 0.0;      ///< over committed jobs
  Time last_release = 0.0;        ///< System::last_release of the committed set
  Time committed_max_wcrt = 0.0;
  bool committed_all_schedulable = false;
  bool committed_any_unbounded = false;
  int committed_subjobs = 0;
};

const AdmissionSession::ReadCache& AdmissionSession::read_cache() {
  if (read_cache_ != nullptr) return *read_cache_;
  auto rc = std::make_unique<ReadCache>();
  const int m = system_.processor_count();
  rc->max_priority.assign(m, std::numeric_limits<int>::min());
  rc->is_spp.assign(m, 0);
  for (int p = 0; p < m; ++p) {
    rc->is_spp[p] = system_.scheduler(p) == SchedulerKind::kSpp ? 1 : 0;
  }
  for (int k = 0; k < system_.job_count(); ++k) {
    const Job& j = system_.job(k);
    rc->max_deadline = std::max(rc->max_deadline, j.deadline);
    rc->committed_subjobs += static_cast<int>(j.chain.size());
    for (const Subjob& s : j.chain) {
      if (s.processor >= 0 && s.processor < m) {
        rc->max_priority[s.processor] =
            std::max(rc->max_priority[s.processor], s.priority);
      }
    }
  }
  rc->last_release = system_.last_release();
  rc->committed_max_wcrt = last_.max_wcrt();
  rc->committed_all_schedulable = last_.all_schedulable();
  rc->committed_any_unbounded = last_.any_unbounded();
  read_cache_ = std::move(rc);
  return *read_cache_;
}

AdmissionSession::AdmissionSession(const SessionConfig& config)
    : config_(config) {
  // Clone shell: clone_committed fills in the state.
  eobs_ = detail::EngineObs::make_if(config_.analysis.observer, "service");
}

std::unique_ptr<AdmissionSession> AdmissionSession::clone_committed() const {
  auto clone = std::unique_ptr<AdmissionSession>(new AdmissionSession(config_));
  clone->system_ = system_;
  clone->states_ = states_;
  clone->horizon_ = horizon_;
  clone->have_states_ = have_states_;
  clone->last_ = last_;
  return clone;
}

ReadDecision AdmissionSession::summarize(const Decision& d) {
  ReadDecision rd;
  rd.ok = d.ok;
  rd.error = d.error;
  rd.admitted = d.admitted;
  rd.committed = d.committed;
  rd.incremental = d.incremental;
  rd.job_id = d.job_id;
  rd.dirty_subjobs = d.dirty_subjobs;
  rd.total_subjobs = d.total_subjobs;
  rd.schedulable = d.analysis.all_schedulable();
  rd.max_wcrt = d.analysis.max_wcrt();
  rd.horizon = d.analysis.horizon;
  rd.explain = d.explain;
  return rd;
}

ReadDecision AdmissionSession::read_what_if(Job job) {
  if (eobs_ != nullptr && eobs_->metrics() != nullptr) {
    eobs_->metrics()->counter("service.what_if").inc();
  }
  ReadDecision rd;
  if (try_fast_what_if(job, rd)) return rd;
  return summarize(run_candidate(std::move(job), /*commit_on_admit=*/false));
}

bool AdmissionSession::try_fast_what_if(const Job& job, ReadDecision& rd) {
  // The fast path reproduces the sequential incremental what_if for the
  // common online candidate -- every hop on an SPP processor at
  // strictly-lowest priority -- where the dirty closure is provably the
  // candidate's own hops: no existing subjob has an interference edge from
  // a new one (nothing existing is strictly lower priority on a touched
  // processor), no SPNP blocking term can change, no FCFS utilization
  // function gains a term, and no dependency cycle is possible (all new
  // edges point at the new nodes or forward along the chain). Anything
  // outside that case falls back to the general path, which re-derives the
  // answer from scratch -- so a condition here may be conservative, but
  // never unsound.
  if (!have_states_ || !last_.ok) return false;
  const ReadCache& rc = read_cache();
  // An unbounded committed WCRT would re-trigger horizon doubling on every
  // request; the general path owns that loop.
  if (rc.committed_any_unbounded) return false;

  const int hops = static_cast<int>(job.chain.size());
  // Candidate-local structural screen, mirroring System::validate's
  // per-job checks: any failure routes through the general path so the
  // error text matches the sequential runner verbatim.
  if (hops == 0 || job.deadline <= 0.0 || job.arrivals.empty()) return false;
  for (int h = 0; h < hops; ++h) {
    const Subjob& s = job.chain[h];
    if (s.processor < 0 || s.processor >= system_.processor_count()) {
      return false;
    }
    if (s.exec_time <= 0.0) return false;
    if (rc.is_spp[s.processor] == 0) return false;
    if (s.priority <= rc.max_priority[s.processor]) return false;
    // Same-processor hops must carry strictly increasing priorities in hop
    // order: equal would be a duplicate-priority error, decreasing would
    // add a backward interference edge (possible cycle).
    for (int g = 0; g < h; ++g) {
      if (job.chain[g].processor == s.processor &&
          job.chain[g].priority >= s.priority) {
        return false;
      }
    }
  }
  if (job.id != 0 && system_.job_index_by_id(job.id) >= 0) {
    return false;  // duplicate explicit id: general path produces the error
  }

  // The incremental path requires the candidate to leave the analysis
  // horizon unchanged; compute it from the cached ingredients of the
  // candidate system.
  const Time h = default_horizon(
      std::max(rc.last_release, job.arrivals.last_release()),
      std::max(rc.max_deadline, job.deadline), config_.analysis);
  // rta-lint: allow(float-eq) cache identity: reuse is sound only for a
  // bit-identical horizon, an epsilon match would resume from wrong states
  if (h != horizon_) return false;

  // Speculative add + per-hop compute + rollback, exactly the units the
  // sequential wavefront would run for this dirty set (each hop is its own
  // wave, in chain order), minus the O(system) bookkeeping around them.
  const std::uint64_t saved_next_id = system_.next_job_id();
  const int k_new = system_.add_job(job);
  {
    detail::EngineObs::AnalyzeScope scope(eobs_.get(), /*pool=*/nullptr);
    curve::KernelHooksScope sink_scope(
        eobs_ != nullptr ? eobs_->kernel_sink() : nullptr);
    obs::Tracer::Span fast_span = obs::Tracer::span_if(
        eobs_ != nullptr ? eobs_->tracer() : nullptr, "service.fast_what_if",
        "{\"hops\": " + std::to_string(hops) + "}");
    for (int hh = 0; hh < hops; ++hh) {
      states_.try_emplace({k_new, hh});
      detail::fill_hop_arrivals(system_, {k_new, hh}, horizon_, states_);
      detail::compute_single_priority_subjob(system_, {k_new, hh}, horizon_,
                                             states_);
    }
  }
  const JobReport bound = detail::job_bound(states_, k_new, hops);
  const Time candidate_wcrt = bound.wcrt;
  const std::uint64_t assigned_id = system_.job(k_new).id;
  for (int hh = 0; hh < hops; ++hh) states_.erase({k_new, hh});
  system_.remove_job(k_new);

  if (std::isinf(candidate_wcrt)) {
    // Sequential processing would enter the horizon-doubling loop; rewind
    // the id counter so the general-path retry assigns the same id.
    system_.set_next_job_id(saved_next_id);
    return false;
  }

  rd.ok = true;
  rd.incremental = true;
  rd.committed = false;
  rd.job_id = assigned_id;
  rd.dirty_subjobs = hops;
  rd.total_subjobs = rc.committed_subjobs + hops;
  rd.schedulable =
      rc.committed_all_schedulable && time_le(candidate_wcrt, job.deadline);
  rd.admitted = rd.schedulable;
  rd.max_wcrt = std::max(rc.committed_max_wcrt, candidate_wcrt);
  rd.horizon = horizon_;
  fill_explain(rd.explain, job, bound);
  if (eobs_ != nullptr && eobs_->metrics() != nullptr) {
    eobs_->metrics()->counter("service.incremental").inc();
    eobs_->metrics()
        ->counter("service.dirty_subjobs")
        .add(static_cast<std::uint64_t>(hops));
  }
  return true;
}

std::optional<DependencyOrder> AdmissionSession::structural_check(
    Decision& d) const {
  // Mirrors BoundsAnalyzer::analyze so error Decisions match it verbatim.
  auto order = checked_dependency_order(system_, d.error);
  if (!order) {
    d.analysis = AnalysisResult{};
    d.analysis.error = d.error;
  }
  return order;
}

void AdmissionSession::analyze_pass(Decision& d, const DependencyOrder& order,
                                    Time base_horizon,
                                    const std::vector<char>* dirty,
                                    detail::BoundStateMap& states) const {
  // The first pass runs the `dirty` subjobs (nullptr: all) over `states` at
  // the base horizon. Doubled passes analyze everything on throwaway state
  // maps: the retained curves stay at the base horizon, where the committed
  // (schedulable, hence bounded) system keeps them reusable.
  bool first = true;
  d.analysis = analyze_doubling_horizon(
      base_horizon, config_.analysis.max_horizon_doublings, [&](Time h) {
        detail::BoundStateMap scratch;
        detail::BoundStateMap& target = first ? states : scratch;
        if (!first) ++d.explain.horizon_doublings;
        detail::run_bounds_wavefront(system_, order, h, /*pool=*/nullptr,
                                     eobs_.get(), first ? dirty : nullptr,
                                     target);
        first = false;
        return detail::bounds_result_from_states(
            system_, h, config_.analysis.record_curves, target);
      });
  d.ok = true;
}

/// What roll_back needs to restore the committed curves after
/// analyze_change replaced some (or all) of them with a candidate's.
struct AdmissionSession::Undo {
  bool whole = false;  ///< full pass: `saved` is the entire previous map
  detail::BoundStateMap saved;             ///< pre-images of overwritten states
  std::vector<std::pair<int, int>> added;  ///< states an incremental pass made
  Time horizon = 0.0;        ///< full pass: the previous horizon_
  bool have_states = false;  ///< full pass: the previous have_states_
};

void AdmissionSession::analyze_change(Decision& d, const DependencyOrder& order,
                                      const SeedFn& seeds, Undo* undo) {
  const Time h = default_horizon(system_, config_.analysis);
  obs::Counter incremental_counter, full_counter, dirty_counter;
  if (eobs_ != nullptr && eobs_->metrics() != nullptr) {
    incremental_counter = eobs_->metrics()->counter("service.incremental");
    full_counter = eobs_->metrics()->counter("service.full");
    dirty_counter = eobs_->metrics()->counter("service.dirty_subjobs");
  }

  // rta-lint: allow(float-eq) cache identity: incremental reuse requires a
  // bit-identical horizon
  if (have_states_ && h == horizon_) {
    const DependencyGraph& graph = order.graph;
    obs::Tracer::Span closure_span = obs::Tracer::span_if(
        eobs_ != nullptr ? eobs_->tracer() : nullptr, "service.dirty_closure");
    const DirtySet dirty = close_over_successors(graph, seeds(graph));
    closure_span.annotate("{\"dirty\": " + std::to_string(dirty.count) +
                          ", \"nodes\": " + std::to_string(graph.node_count()) +
                          "}");
    closure_span.finish();
    if (undo != nullptr) {
      for (const SubjobRef& r : order.order) {
        if (dirty.flags[graph.node(r)] == 0) continue;
        const auto it = states_.find({r.job, r.hop});
        if (it == states_.end()) {
          undo->added.emplace_back(r.job, r.hop);
        } else {
          undo->saved.insert(*it);
        }
      }
    }
    analyze_pass(d, order, h, &dirty.flags, states_);
    d.incremental = true;
    d.dirty_subjobs = dirty.count;
    incremental_counter.inc();
    dirty_counter.add(static_cast<std::uint64_t>(dirty.count));
    return;
  }

  // Full pass: nothing to reuse (no retained state yet, or a new horizon).
  full_counter.inc();
  if (undo != nullptr) {
    undo->whole = true;
    undo->saved = std::move(states_);
    undo->horizon = horizon_;
    undo->have_states = have_states_;
  }
  states_.clear();
  analyze_pass(d, order, h, /*dirty=*/nullptr, states_);
  horizon_ = h;
  have_states_ = true;
}

void AdmissionSession::roll_back(Undo& undo) {
  if (!undo.whole) {
    for (const auto& key : undo.added) states_.erase(key);
    for (auto& [key, state] : undo.saved) states_[key] = std::move(state);
    return;
  }
  states_ = std::move(undo.saved);
  horizon_ = undo.horizon;
  have_states_ = undo.have_states;
}

Decision AdmissionSession::admit(Job job) {
  if (eobs_ != nullptr && eobs_->metrics() != nullptr) {
    eobs_->metrics()->counter("service.admit").inc();
  }
  // A committing call changes what the fast what-if path aggregates over;
  // dropping the cache up front (even for rejected admits) is always safe.
  read_cache_.reset();
  return run_candidate(std::move(job), /*commit_on_admit=*/true);
}

Decision AdmissionSession::what_if(Job job) {
  if (eobs_ != nullptr && eobs_->metrics() != nullptr) {
    eobs_->metrics()->counter("service.what_if").inc();
  }
  return run_candidate(std::move(job), /*commit_on_admit=*/false);
}

Decision AdmissionSession::run_candidate(Job job, bool commit_on_admit) {
  Decision d;
  if (job.id != 0 && system_.job_index_by_id(job.id) >= 0) {
    d.error = "duplicate job id " + std::to_string(job.id);
    return d;
  }
  detail::EngineObs::AnalyzeScope scope(eobs_.get(), /*pool=*/nullptr);
  const int k_new = system_.add_job(std::move(job));
  d.job_id = system_.job(k_new).id;
  d.total_subjobs = total_subjobs(system_);

  const auto order = structural_check(d);
  if (!order) {
    system_.remove_job(k_new);
    return d;
  }

  Undo undo;
  analyze_change(
      d, *order,
      [&](const DependencyGraph& graph) {
        return seeds_for_added_job(system_, graph, k_new);
      },
      &undo);
  if (d.ok) {
    fill_explain(d.explain, system_.job(k_new), d.analysis.jobs[k_new]);
  }
  d.admitted = d.analysis.all_schedulable();
  if (commit_on_admit && d.admitted) {
    d.committed = true;
    last_ = d.analysis;
  } else {
    roll_back(undo);
    system_.remove_job(k_new);
  }
  return d;
}

Decision AdmissionSession::remove(std::uint64_t job_id) {
  read_cache_.reset();
  Decision d;
  d.job_id = job_id;
  const int k = system_.job_index_by_id(job_id);
  if (k < 0) {
    d.error = "no job with id " + std::to_string(job_id);
    return d;
  }
  if (eobs_ != nullptr && eobs_->metrics() != nullptr) {
    eobs_->metrics()->counter("service.remove").inc();
  }
  detail::EngineObs::AnalyzeScope scope(eobs_.get(), /*pool=*/nullptr);

  // Capture what the dirty computation needs before indices shift.
  const std::vector<Subjob> removed_chain = system_.job(k).chain;
  std::map<std::pair<std::uint64_t, int>, double> old_blocking;
  for (int p : touched_processors(removed_chain)) {
    if (system_.scheduler(p) != SchedulerKind::kSpnp) continue;
    for (const SubjobRef& r : system_.subjobs_on(p)) {
      if (r.job == k) continue;
      old_blocking[{system_.job(r.job).id, r.hop}] = system_.blocking_time(r);
    }
  }

  system_.remove_job(k);
  d.committed = true;  // removal always takes effect
  d.total_subjobs = total_subjobs(system_);

  // Remap retained states: keys are job *indices*; jobs above k shifted.
  if (have_states_) {
    detail::BoundStateMap remapped;
    for (auto& [key, state] : states_) {
      if (key.first == k) continue;
      const int job = key.first > k ? key.first - 1 : key.first;
      remapped[{job, key.second}] = std::move(state);
    }
    states_ = std::move(remapped);
  }

  const auto order = structural_check(d);
  if (!order) {
    have_states_ = false;
    last_ = d.analysis;
    return d;
  }

  analyze_change(
      d, *order,
      [&](const DependencyGraph& graph) {
        return seeds_for_removed_job(system_, graph, removed_chain,
                                     old_blocking);
      },
      /*undo=*/nullptr);
  d.admitted = d.analysis.all_schedulable();
  last_ = d.analysis;
  return d;
}

void assign_lowest_priorities(const System& system, Job& job) {
  std::map<int, int> next_priority;
  for (Subjob& s : job.chain) {
    auto it = next_priority.find(s.processor);
    if (it == next_priority.end()) {
      int lowest = 0;
      for (const SubjobRef& r : system.subjobs_on(s.processor)) {
        lowest = std::max(lowest, system.subjob(r).priority + 1);
      }
      it = next_priority.emplace(s.processor, lowest).first;
    }
    s.priority = it->second++;
  }
}

}  // namespace rta::service
