#include "service/admission_session.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
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

/// True when no hop of `job` before `hop` runs on hop `hop`'s processor.
bool first_hop_on_processor(const Job& job, int hop) {
  for (int g = 0; g < hop; ++g) {
    if (job.chain[g].processor == job.chain[hop].processor) return false;
  }
  return true;
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

/// The fast path's answers for the committed state, keyed by everything of
/// a candidate that answer reads: the deadline, each hop's processor,
/// execution time and priority, and the first-hop releases, doubles by bit
/// pattern. Neither the name nor the id is read, apart from the duplicate-id
/// check, which read_what_if makes before any lookup; the job_id of an
/// answer is therefore not stored but drawn anew on every hit.
///
/// A ring of at most kWhatIfMemoSlots slots, of which slots[0, live) hold
/// answers for the committed state. A commit sets live and next_slot to 0,
/// so invalidation frees nothing, and a slot is overwritten in place (its
/// vectors keep their capacity) when the ring comes round. Slots are added
/// only as answers arrive, so a session that is asked few what-ifs (one
/// tenant of many) holds few. Candidates over the hop or release bound are
/// never copied in, so the memo holds at most kWhatIfMemoSlots *
/// (kWhatIfMemoMaxReleases releases + kWhatIfMemoMaxHops hops).
struct AdmissionSession::WhatIfMemo {
  struct Slot {
    Time deadline = 0.0;
    std::vector<Subjob> chain;
    std::vector<Time> releases;
    ReadDecision answer;  ///< job_id left 0

    [[nodiscard]] bool holds(const Job& job) const {
      if (!same_bits(deadline, job.deadline) ||
          chain.size() != job.chain.size()) {
        return false;
      }
      for (std::size_t h = 0; h < chain.size(); ++h) {
        const Subjob& kept = chain[h];
        const Subjob& asked = job.chain[h];
        if (kept.processor != asked.processor ||
            kept.priority != asked.priority ||
            !same_bits(kept.exec_time, asked.exec_time)) {
          return false;
        }
      }
      const std::vector<Time>& r = job.arrivals.releases();
      return releases.size() == r.size() &&
             (r.empty() || std::memcmp(releases.data(), r.data(),
                                       r.size() * sizeof(Time)) == 0);
    }
  };

  static bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  }

  explicit WhatIfMemo(const detail::EngineObs* eobs) {
    if (eobs != nullptr && eobs->metrics() != nullptr) {
      hits = eobs->metrics()->counter("service.what_if_memo_hits");
    }
  }

  std::vector<Slot> slots;    ///< grows to kWhatIfMemoSlots, then a ring
  std::size_t live = 0;       ///< slots[0, live) are this state's answers
  std::size_t next_slot = 0;  ///< ring cursor: the slot the next store takes
  obs::Counter hits;          ///< service.what_if_memo_hits, bound up front
};

AdmissionSession::AdmissionSession(System base, SessionConfig config)
    : AdmissionSession(config) {
  system_ = std::move(base);
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

/// Per-committed-state data backing the fast candidate path (what-if and
/// admit): aggregates derivable from (system_, last_) in one O(subjobs)
/// sweep, and per processor the higher-priority operands of a candidate's
/// first hop there. Dropped by every commit (committed_state_changed), a
/// fast one included.
///
/// The operands are exact for every later candidate until then: such a hop
/// outranks nothing on its SPP processor, so its higher-priority set is
/// exactly the committed subjobs on it in subjobs_on order (no earlier hop of
/// the candidate is there, being its first hop on it), b = 0, and the fast
/// path runs only at horizon_. A hop whose processor already carries an
/// earlier hop of the candidate has that hop in its set and builds its
/// operands fresh. The two curve_available passes over the committed curves
/// (Q̲, and Q̄ once a hop needs it) thus run once per processor and
/// committed state, not once per request.
struct AdmissionSession::ReadCache {
  std::vector<int> max_priority;  ///< per processor; INT_MIN when unused
  double max_deadline = 0.0;      ///< over committed jobs
  Time last_release = 0.0;        ///< System::last_release of the committed set
  Time committed_max_wcrt = 0.0;
  bool committed_all_schedulable = false;
  /// Every committed WCRT finite at horizon_ itself (no doubled pass).
  bool committed_bounded = false;
  int committed_subjobs = 0;
  /// Per processor: a first hop's operands, built on first use. Empty until
  /// a candidate passes the screen, so a screened-out admit sizes nothing.
  std::vector<std::optional<detail::HpOperands>> hp_operands;
};

AdmissionSession::ReadCache& AdmissionSession::read_cache() {
  if (read_cache_ != nullptr) return *read_cache_;
  auto rc = std::make_unique<ReadCache>();
  const int m = system_.processor_count();
  rc->max_priority.assign(m, std::numeric_limits<int>::min());
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
  // rta-lint: allow(float-eq) a doubled pass shows as a different horizon;
  // the retained states then hold unbounded WCRTs at horizon_
  rc->committed_bounded = !last_.any_unbounded() && last_.horizon == horizon_;
  read_cache_ = std::move(rc);
  return *read_cache_;
}

AdmissionSession::AdmissionSession(const SessionConfig& config)
    : config_(config) {
  // No committed state yet: the public constructor analyzes its base system,
  // clone_committed copies one in; the memo starts empty either way.
  eobs_ = detail::EngineObs::make_if(config_.analysis.observer, "service");
  memo_ = std::make_unique<WhatIfMemo>(eobs_.get());
  if (eobs_ != nullptr && eobs_->metrics() != nullptr) {
    fast_admits_ = eobs_->metrics()->counter("service.fast_admits");
  }
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

const ReadDecision* AdmissionSession::memo_find(const Job& job) const {
  for (std::size_t i = 0; i < memo_->live; ++i) {
    if (memo_->slots[i].holds(job)) return &memo_->slots[i].answer;
  }
  return nullptr;
}

void AdmissionSession::memo_store(const Job& job, const ReadDecision& rd) {
  if (job.chain.size() > kWhatIfMemoMaxHops ||
      job.arrivals.count() > kWhatIfMemoMaxReleases) {
    return;
  }
  WhatIfMemo& memo = *memo_;
  if (memo.next_slot == memo.slots.size()) memo.slots.emplace_back();
  WhatIfMemo::Slot& slot = memo.slots[memo.next_slot];
  memo.next_slot = (memo.next_slot + 1) % kWhatIfMemoSlots;
  memo.live = std::min(memo.live + 1, kWhatIfMemoSlots);
  slot.deadline = job.deadline;
  slot.chain.assign(job.chain.begin(), job.chain.end());
  slot.releases.assign(job.arrivals.releases().begin(),
                       job.arrivals.releases().end());
  slot.answer = rd;
  slot.answer.job_id = 0;
}

void AdmissionSession::committed_state_changed() {
  read_cache_.reset();
  memo_->live = 0;
  memo_->next_slot = 0;
}

ReadDecision AdmissionSession::read_what_if(Job job) {
  if (eobs_ != nullptr && eobs_->metrics() != nullptr) {
    eobs_->metrics()->counter("service.what_if").inc();
  }
  // A committed explicit id takes the general path's duplicate-id error.
  if (job.id == 0 || system_.job_index_by_id(job.id) < 0) {
    if (const ReadDecision* hit = memo_find(job)) {
      ReadDecision rd = *hit;
      rd.job_id = system_.claim_job_id(job.id);
      memo_->hits.inc();
      return rd;
    }
  }
  ReadDecision rd;
  JobReport bound;
  if (try_fast_candidate(job, /*commit=*/false, rd, bound)) {
    memo_store(job, rd);
    return rd;
  }
  return summarize(run_candidate(std::move(job), /*commit_on_admit=*/false));
}

bool AdmissionSession::try_fast_candidate(const Job& job, bool commit,
                                          ReadDecision& rd, JobReport& bound) {
  // The fast path reproduces the sequential incremental what_if / admit for
  // the common online candidate -- every hop on an SPP processor at
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
  // A Decision with recorded curves needs the general path's report.
  if (commit && config_.analysis.record_curves) return false;

  const int hops = static_cast<int>(job.chain.size());
  // Candidate-local structural screen, mirroring System::validate's
  // per-job checks: any failure routes through the general path so the
  // error text matches the sequential runner verbatim. It runs before the
  // read cache is built, so a candidate off SPP costs nothing here.
  if (hops == 0 || !(job.deadline > 0.0) || !std::isfinite(job.deadline) ||
      job.arrivals.empty()) {
    return false;
  }
  for (int h = 0; h < hops; ++h) {
    const Subjob& s = job.chain[h];
    if (s.processor < 0 || s.processor >= system_.processor_count()) {
      return false;
    }
    if (!(s.exec_time > 0.0) || !std::isfinite(s.exec_time)) return false;
    if (system_.scheduler(s.processor) != SchedulerKind::kSpp) return false;
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
  ReadCache& rc = read_cache();
  // An unbounded committed WCRT would re-trigger horizon doubling on every
  // request; the general path owns that loop.
  if (!rc.committed_bounded) return false;
  for (const Subjob& s : job.chain) {
    if (s.priority <= rc.max_priority[s.processor]) return false;
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

  // Speculative add + per-hop compute: the units the sequential wavefront
  // would run for this dirty set (each hop is its own wave, in chain
  // order), minus the O(system) bookkeeping around them, the
  // higher-priority operands the read cache already holds, and, unless the
  // candidate is committed, every part of the last hop that its local bound
  // does not read.
  const std::uint64_t saved_next_id = system_.next_job_id();
  const int k_new = system_.add_job(job);
  if (rc.hp_operands.empty()) {
    rc.hp_operands.resize(static_cast<std::size_t>(system_.processor_count()));
  }
  bool keep = false;
  {
    detail::EngineObs::AnalyzeScope scope(eobs_.get(), /*pool=*/nullptr);
    curve::KernelHooksScope sink_scope(
        eobs_ != nullptr ? eobs_->kernel_sink() : nullptr);
    obs::Tracer* tracer = eobs_ != nullptr ? eobs_->tracer() : nullptr;
    std::string span_args;
    if (tracer != nullptr) {
      span_args = "{\"hops\": " + std::to_string(hops) +
                  (commit ? ", \"op\": \"admit\"}" : "}");
    }
    obs::Tracer::Span fast_span =
        obs::Tracer::span_if(tracer, "service.fast_what_if", span_args);
    std::optional<detail::HpOperands> fresh;
    detail::HpOperands* hp = nullptr;
    for (int hh = 0; hh < hops; ++hh) {
      const SubjobRef ref{k_new, hh};
      const Subjob& s = job.chain[hh];
      detail::BoundState& st = states_[{k_new, hh}];
      detail::fill_hop_arrivals(system_, ref, horizon_, states_);
      if (first_hop_on_processor(job, hh)) {
        std::optional<detail::HpOperands>& cached = rc.hp_operands[s.processor];
        if (!cached) {
          cached = detail::priority_hp_operands(system_, ref, horizon_,
                                                states_);
        }
        assert(cached->upper().size() ==
               system_.higher_priority_on(s.processor, s.priority).size());
        hp = &*cached;
      } else {
        hp = &fresh.emplace(
            detail::priority_hp_operands(system_, ref, horizon_, states_));
      }
      detail::priority_lower_part(*hp, s.exec_time, horizon_, st);
      // The last hop's S̄ and Lemma 2 curve feed nothing unless the
      // candidate stays: they are run below only for a commit.
      if (hh + 1 < hops) {
        detail::priority_upper_part(*hp, s.exec_time, horizon_, st);
      }
    }
    bound = detail::job_bound(states_, k_new, hops);
    bound.schedulable = time_le(bound.wcrt, job.deadline);
    keep = commit && rc.committed_all_schedulable && bound.schedulable;
    if (keep) {
      // A kept candidate's last hop is read by later candidates and
      // commits, so its states must equal a full wavefront's.
      detail::priority_upper_part(*hp, job.chain.back().exec_time, horizon_,
                                  states_[{k_new, hops - 1}]);
    }
  }
  const std::uint64_t assigned_id = system_.job(k_new).id;
  if (!keep) {
    for (int hh = 0; hh < hops; ++hh) states_.erase({k_new, hh});
    system_.remove_job(k_new);
  }

  if (std::isinf(bound.wcrt)) {
    // Sequential processing would enter the horizon-doubling loop; rewind
    // the id counter so the general-path retry assigns the same id. (An
    // unbounded candidate is never schedulable, so it was not kept.)
    system_.set_next_job_id(saved_next_id);
    return false;
  }

  rd.ok = true;
  rd.incremental = true;
  rd.committed = keep;
  rd.job_id = assigned_id;
  rd.dirty_subjobs = hops;
  rd.total_subjobs = rc.committed_subjobs + hops;
  rd.schedulable = rc.committed_all_schedulable && bound.schedulable;
  rd.admitted = rd.schedulable;
  rd.max_wcrt = std::max(rc.committed_max_wcrt, bound.wcrt);
  rd.horizon = horizon_;
  fill_explain(rd.explain, job, bound);
  if (keep) last_.jobs.push_back(bound);
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
  // A refused admit rolls back to the very curves and system it started
  // from, so the read cache and the memo stay valid; only a commit ends them.
  Decision d;
  ReadDecision rd;
  JobReport bound;
  if (try_fast_candidate(job, /*commit=*/true, rd, bound)) {
    fast_admits_.inc();
    d.ok = true;
    d.admitted = rd.admitted;
    d.committed = rd.committed;
    d.incremental = true;
    d.job_id = rd.job_id;
    d.dirty_subjobs = rd.dirty_subjobs;
    d.total_subjobs = rd.total_subjobs;
    d.explain = std::move(rd.explain);
    // The candidate changed no other job's curves: the candidate system's
    // report is the committed one plus the candidate's (already appended to
    // last_ on a commit).
    d.analysis = last_;
    if (!d.committed) d.analysis.jobs.push_back(std::move(bound));
  } else {
    d = run_candidate(std::move(job), /*commit_on_admit=*/true);
  }
  if (d.committed) committed_state_changed();
  return d;
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
  Decision d;
  d.job_id = job_id;
  const int k = system_.job_index_by_id(job_id);
  if (k < 0) {
    d.error = "no job with id " + std::to_string(job_id);
    return d;
  }
  committed_state_changed();
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
