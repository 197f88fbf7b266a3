#include "analysis/bounds.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <thread>

#include "curve/algebra.hpp"
#include "curve/kernel_hooks.hpp"
#include "curve/transforms.hpp"

namespace rta {
namespace detail {

namespace {

/// Σ_hp S_hp(t^-) at each of the nondecreasing instants `ts`: one sweep
/// per operand, accumulated in input order (the order of a left fold).
std::vector<double> hp_left_sums(const std::vector<PwlCurve>& hp,
                                 const std::vector<Time>& ts) {
  std::vector<double> sums(ts.size(), 0.0);
  for (const PwlCurve& c : hp) {
    flat_eval_sweep(c.view(), ts.data(), ts.size(),
                    [&](std::size_t k, double left, double) {
                      sums[k] += left;
                    });
  }
  return sums;
}

/// Bounds for the subjobs of a static-priority processor (SPP with b = 0,
/// SPNP with b of Eq. 15), in descending priority order.
void priority_processor_bounds(const System& system, int p, Time horizon,
                               BoundStateMap& states) {
  std::vector<SubjobRef> refs = system.subjobs_on(p);
  std::sort(refs.begin(), refs.end(),
            [&](const SubjobRef& a, const SubjobRef& b) {
              return system.subjob(a).priority < system.subjob(b).priority;
            });
  for (const SubjobRef& ref : refs) {
    compute_single_priority_subjob(system, ref, horizon, states);
  }
}

/// Bounds for the subjobs of a FCFS processor (Theorems 7-9).
void fcfs_processor_bounds(const System& system, int p, Time horizon,
                           BoundStateMap& states) {
  const std::vector<SubjobRef> refs = system.subjobs_on(p);

  // Total workload bounds G (Eq. 21) over all subjobs on the processor.
  std::vector<PwlCurve> c_uppers, c_lowers;
  for (const SubjobRef& ref : refs) {
    const double tau = system.subjob(ref).exec_time;
    const BoundState& st = states.at({ref.job, ref.hop});
    c_uppers.push_back(curve_scale(st.arr_upper, tau));
    c_lowers.push_back(curve_scale(st.arr_lower, tau));
  }
  const PwlCurve g_upper = curve_sum(c_uppers, horizon);
  const PwlCurve g_lower = curve_sum(c_lowers, horizon);

  // Utilization lower bound (Theorem 7 applied to the workload lower bound;
  // U is monotone in G, so this lower-bounds the true busy time).
  const PwlCurve ident = PwlCurve::identity(horizon);
  const PwlCurve util_lower = service_transform(ident, g_lower);

  for (std::size_t i = 0; i < refs.size(); ++i) {
    const SubjobRef& ref = refs[i];
    const Subjob& sj = system.subjob(ref);
    const double tau = sj.exec_time;
    BoundState& st = states.at({ref.job, ref.hop});

    // Theorem 8: instance m of the subjob is certainly complete once the
    // processor has performed as much work as had arrived up to the
    // instance's latest possible arrival (FCFS serves in arrival order, any
    // tie-break): departure m at min{ t : U̲(t) >= Ḡ(ā_m) } with
    // ā_m = f̲_arr^{-1}(m) the latest possible m-th arrival.
    // ā_m and Ḡ(ā_m) are nondecreasing in m, so both inverses are sweeps.
    const long long count_lower =
        tolerant_floor(st.arr_lower.end_value() + 0.5);
    std::vector<Time> dep_times;
    dep_times.reserve(count_lower);
    PinvSweep latest_arrival(st.arr_lower);
    PinvSweep busy_until(util_lower);
    const CurveView g_view = g_upper.view();
    SegmentCursor g_cursor(g_view);
    for (long long m = 1; m <= count_lower; ++m) {
      const Time a_late = latest_arrival.next(static_cast<double>(m));
      if (std::isinf(a_late)) break;
      const Time t = busy_until.next(flat_eval(g_view, a_late, g_cursor));
      if (std::isinf(t)) break;
      dep_times.push_back(t);
    }
    st.dep_lower = PwlCurve::step(horizon, dep_times);
    st.svc_lower = curve_scale(st.dep_lower, tau);

    // Theorem 9: S̄ = S̲ + tau, capped by arrived work and elapsed time.
    st.svc_upper = curve_min_of_sums(
        {{&st.svc_lower, nullptr, tau}, {&c_uppers[i]}, {&ident}});
    st.next_arr_upper =
        curve_crossing_counts_min_shift(st.svc_upper, st.arr_upper, tau);
    st.local_bound = local_delay_bound(st.dep_lower, st.arr_upper);
    st.computed = true;
  }
}

}  // namespace

void compute_single_priority_subjob(const System& system, SubjobRef ref,
                                    Time horizon, BoundStateMap& states) {
  const Subjob& sj = system.subjob(ref);
  const bool preemptive =
      system.scheduler(sj.processor) == SchedulerKind::kSpp;
  BoundState& st = states.at({ref.job, ref.hop});
  const double tau = sj.exec_time;
  const double b = preemptive ? 0.0 : system.blocking_time(ref);
  const PwlCurve ident = PwlCurve::identity(horizon);

  std::vector<PwlCurve> hp_upper;  // S̄ of higher-priority subjobs
  std::vector<PwlCurve> hp_lower;  // S̲ of higher-priority subjobs
  for (const SubjobRef& hp :
       system.higher_priority_on(sj.processor, sj.priority)) {
    const BoundState& hp_state = states.at({hp.job, hp.hop});
    assert(hp_state.computed);
    hp_upper.push_back(hp_state.svc_upper);
    hp_lower.push_back(hp_state.svc_lower);
  }
  const PwlCurve c_upper = curve_scale(st.arr_upper, tau);
  const PwlCurve c_lower = curve_scale(st.arr_lower, tau);

  // Theorems 5/6 realized per *queue-empty candidate* (see bounds.hpp): the
  // literal per-window forms re-credit the blocking b after every queue
  // drain and mix bound directions in the interference increment, both of
  // which the simulator refutes. With Q̲(t) = t - b - S̄hp(t),
  // Q̄(t) = t - S̲hp(t) and base_i = (i-1) tau, the sound per-candidate
  // forms are
  //
  //   S̲(t) = min_i ( base_i + max(0, Q̲(t) - off_i) ),
  //     off_i = s_i - S̲hp(s_i^-), s_i = latest possible i-th arrival
  //     (the last queue-empty instant can be pushed to just before the next
  //      arrival; blocking is incurred at most once per backlogged period);
  //
  //   S̄(t) = min( c̄(t), min_{i >= 0 : s_i <= t} base_i
  //                        + min( t - s_i, Q̄(t) - s_i + S̄hp(s_i^-) ) ),
  //     s_i = earliest possible i-th arrival, plus the i = 0 entry
  //     s_0 = base_0 = 0 -- every term is independently a valid upper bound
  //     once its candidate has arrived (service in (s_i, t] is limited by
  //     elapsed time minus guaranteed higher-priority consumption).
  //
  // Neither is evaluated term by term. S̲ = g o Q̲ with g the lower envelope
  // of the hinges q -> base_i + max(0, q - off_i), composed exactly segment
  // by segment. S̄ = min(c̄, t + P1(t), Q̄(t) + P2(t)) with P1, P2 the
  // prefix-minimum step curves of base_i - s_i and
  // base_i - s_i + S̄hp(s_i^-) over the candidates with s_i <= t. Each
  // bound is a fixed set of kernels, whatever the arrival count:
  //
  //   Q̲, Q̄: one curve_available pass each over the higher-priority curves;
  //   S̲:    one curve_compose_capped_max pass (g o Q̲, capped by c̲, with
  //          tighten_lower_bound's running max);
  //   S̄:    two curve_prefix_min_steps builds and one curve_min_of_sums
  //          pass over its three terms;
  //   f̲_dep: curve_floor_div, one pseudo-inverse sweep (Lemma 1);
  //   f̄_arr of the next hop: curve_crossing_counts_min_shift, one step
  //          curve from two jump lists (Lemma 2).
  //
  // No S̄hp or S̲hp curve is built, so the unit's kernel calls are also
  // independent of how many subjobs outrank it. The offsets read the hp
  // sums only at the candidates s_i: one pseudo-inverse sweep collects the
  // candidates, then one flat_eval_sweep per hp operand adds its left
  // limits at all of them (O(candidates + knots) per operand, no search).
  const PwlCurve q_lower = curve_available(ident, hp_upper, -b);
  const PwlCurve q_upper = curve_available(ident, hp_lower);

  const long long count_lower = tolerant_floor(st.arr_lower.end_value() + 0.5);
  const long long count_upper = tolerant_floor(st.arr_upper.end_value() + 0.5);

  // ---- Lower service bound.
  std::vector<Time> latest;
  latest.reserve(static_cast<std::size_t>(count_lower));
  PinvSweep latest_arrival(st.arr_lower);
  for (long long i = 1; i <= count_lower; ++i) {
    const Time s_i = latest_arrival.next(static_cast<double>(i));
    if (std::isinf(s_i)) break;
    latest.push_back(s_i);
  }
  const std::vector<double> lower_drained = hp_left_sums(hp_lower, latest);
  std::vector<Hinge> hinges;
  hinges.reserve(latest.size());
  for (std::size_t i = 0; i < latest.size(); ++i) {
    hinges.push_back({static_cast<double>(i) * tau,
                      latest[i] - lower_drained[i]});
  }
  // Demand cap (service never exceeds arrived work; with lower arrival
  // counts this only loosens, which is sound for a lower bound). g >= 0,
  // so no clamp at zero is needed.
  st.svc_lower =
      hinges.empty()
          ? PwlCurve::zero(horizon)
          : curve_compose_capped_max(HingeEnvelope(std::move(hinges)),
                                     q_lower, c_lower);

  // ---- Upper service bound.
  std::vector<Time> starts{0.0};
  std::vector<double> elapsed_off{0.0};
  PinvSweep earliest_arrival(st.arr_upper);
  for (long long i = 1; i <= count_upper; ++i) {
    const Time s_i = earliest_arrival.next(static_cast<double>(i));
    if (std::isinf(s_i)) break;
    starts.push_back(s_i);
    elapsed_off.push_back(static_cast<double>(i - 1) * tau - s_i);
  }
  // The i = 0 entry's 0.0 + Σ S̄hp(0^-) is the sum itself: a sum that
  // starts from +0.0 is never -0.0.
  std::vector<double> drained_off = hp_left_sums(hp_upper, starts);
  for (std::size_t i = 0; i < starts.size(); ++i) {
    drained_off[i] += elapsed_off[i];
  }
  const PwlCurve p1 = curve_prefix_min_steps(horizon, starts, elapsed_off);
  const PwlCurve p2 = curve_prefix_min_steps(horizon, starts, drained_off);
  // Demand cap: S(t) <= c(t^-) <= c̄(t).
  st.svc_upper =
      curve_min_of_sums({{&ident, &p1}, {&q_upper, &p2}, {&c_upper}});

  st.dep_lower = curve_floor_div(st.svc_lower, tau);  // Lemma 1
  // Lemma 2: instances arrive at hop j+1 when S̄ first crosses multiples of
  // tau, and none earlier than tau after its own earliest hop-j arrival.
  st.next_arr_upper =
      curve_crossing_counts_min_shift(st.svc_upper, st.arr_upper, tau);
  st.local_bound = local_delay_bound(st.dep_lower, st.arr_upper);
  st.computed = true;
}

Time local_delay_bound(const PwlCurve& dep_lower, const PwlCurve& arr_upper) {
  const long long count = tolerant_floor(arr_upper.end_value() + 0.5);
  Time worst = 0.0;
  PinvSweep arrival(arr_upper);
  PinvSweep departure(dep_lower);
  for (long long m = 1; m <= count; ++m) {
    const Time arr = arrival.next(static_cast<double>(m));
    const Time dep = departure.next(static_cast<double>(m));
    if (std::isinf(dep)) return kTimeInfinity;
    worst = std::max(worst, dep - arr);
  }
  return worst;
}

void compute_processor_bounds(const System& system, int p, Time horizon,
                              BoundStateMap& states) {
  if (system.scheduler(p) == SchedulerKind::kFcfs) {
    fcfs_processor_bounds(system, p, horizon, states);
  } else {
    priority_processor_bounds(system, p, horizon, states);
  }
}

void fill_hop_arrivals(const System& system, SubjobRef ref, Time horizon,
                       BoundStateMap& states) {
  BoundState& s = states.at({ref.job, ref.hop});
  if (ref.hop == 0) {
    const PwlCurve exact = system.job(ref.job).arrivals.to_curve(horizon);
    s.arr_upper = exact;
    s.arr_lower = exact;
  } else {
    const BoundState& pred = states.at({ref.job, ref.hop - 1});
    assert(pred.computed);
    s.arr_upper = pred.next_arr_upper;
    s.arr_lower = pred.dep_lower;  // Lemma 1 feeding the DS identity
  }
}

void run_bounds_wavefront(const System& system, const DependencyOrder& order,
                          Time horizon, ThreadPool* pool,
                          const EngineObs* eo,
                          const std::vector<char>* dirty,
                          BoundStateMap& states) {
  // Ensure every subjob has a state entry; retained (clean) entries are left
  // untouched so a partial run reuses their curves.
  for (int k = 0; k < system.job_count(); ++k) {
    for (int h = 0; h < static_cast<int>(system.job(k).chain.size()); ++h) {
      states.try_emplace({k, h});
    }
  }

  // Wavefront schedule over the computation-dependency graph. A unit is one
  // subjob on a priority processor, or a whole FCFS processor (Theorem 7
  // couples its subjobs through the shared utilization function). Unit depth
  // = longest dependency chain feeding it, so all inputs of a depth-d unit
  // are produced at depths < d: the units of one depth are independent and
  // run concurrently, each writing only its own subjobs' states. With a
  // dirty filter, clean units are simply absent from the waves (their
  // retained states already equal what the unit would recompute).
  const DependencyGraph& graph = order.graph;
  const std::vector<int>& depth = order.depth;
  const int n = graph.node_count();

  auto is_dirty = [&](SubjobRef r) {
    return dirty == nullptr || (*dirty)[graph.node(r)] != 0;
  };

  struct Unit {
    int processor = -1;    ///< FCFS: whole processor; else unused
    SubjobRef ref;         ///< priority processors: the one subjob
    bool whole_fcfs = false;
  };
  int max_depth = 0;
  for (int v = 0; v < n; ++v) max_depth = std::max(max_depth, depth[v]);
  std::vector<std::vector<Unit>> waves(max_depth + 1);
  for (int p = 0; p < system.processor_count(); ++p) {
    const std::vector<SubjobRef> on_p = system.subjobs_on(p);
    if (system.scheduler(p) == SchedulerKind::kFcfs) {
      if (on_p.empty()) continue;
      bool any_dirty = false;
      int d = 0;
      for (const SubjobRef& r : on_p) {
        d = std::max(d, depth[graph.node(r)]);
        any_dirty = any_dirty || is_dirty(r);
      }
      if (any_dirty) waves[d].push_back({p, {}, true});
    } else {
      for (const SubjobRef& r : on_p) {
        if (is_dirty(r)) {
          waves[depth[graph.node(r)]].push_back({p, r, false});
        }
      }
    }
  }

  obs::Tracer* tracer = eo != nullptr ? eo->tracer() : nullptr;
  obs::Counter waves_counter, units_counter;
  if (eo != nullptr && eo->metrics() != nullptr) {
    waves_counter = eo->metrics()->counter("bounds.waves");
    units_counter = eo->metrics()->counter("bounds.units");
  }

  auto run_unit = [&](const Unit& unit) {
    if (unit.whole_fcfs) {
      for (const SubjobRef& r : system.subjobs_on(unit.processor)) {
        fill_hop_arrivals(system, r, horizon, states);
      }
      compute_processor_bounds(system, unit.processor, horizon, states);
    } else {
      fill_hop_arrivals(system, unit.ref, horizon, states);
      compute_single_priority_subjob(system, unit.ref, horizon, states);
    }
  };
  auto unit_label = [&](const Unit& unit) {
    if (unit.whole_fcfs) {
      return "bounds.unit fcfs P" + std::to_string(unit.processor);
    }
    return "bounds.unit P" + std::to_string(unit.processor) + " " +
           system.job(unit.ref.job).name + ".h" + std::to_string(unit.ref.hop);
  };

  for (std::size_t d = 0; d < waves.size(); ++d) {
    const std::vector<Unit>& wave = waves[d];
    if (wave.empty()) continue;
    waves_counter.inc();
    units_counter.add(wave.size());
    obs::Tracer::Span wave_span = obs::Tracer::span_if(
        tracer, "bounds.wave",
        tracer != nullptr ? "{\"depth\": " + std::to_string(d) +
                                ", \"units\": " + std::to_string(wave.size()) +
                                "}"
                          : std::string());
    for_each_index(pool, wave.size(), [&](std::size_t i) {
      const Unit& unit = wave[i];
      if (eo == nullptr) {
        run_unit(unit);
        return;
      }
      // Worker threads inherit no hooks; install this analyzer's sink for
      // the duration of the unit so the curve kernels it calls report here.
      curve::KernelHooksScope sink_scope(eo->kernel_sink());
      obs::Tracer::Span unit_span = obs::Tracer::span_if(
          tracer, unit_label(unit));
      const auto start = std::chrono::steady_clock::now();
      run_unit(unit);
      const std::chrono::duration<double, std::micro> us =
          std::chrono::steady_clock::now() - start;
      eo->add_unit_time(system.scheduler(unit.processor), us.count());
    });
  }
}

JobReport job_bound(const BoundStateMap& states, int k, int hops) {
  JobReport report;
  report.hops.resize(static_cast<std::size_t>(hops));
  for (int h = 0; h < hops; ++h) {
    const Time d = states.at({k, h}).local_bound;
    report.hops[h].ref = {k, h};
    report.hops[h].local_bound = d;
    report.wcrt += d;  // Eq. 11
  }
  return report;
}

AnalysisResult bounds_result_from_states(const System& system, Time horizon,
                                         bool record_curves,
                                         const BoundStateMap& states) {
  AnalysisResult result;
  result.ok = true;
  result.horizon = horizon;
  result.jobs.reserve(static_cast<std::size_t>(system.job_count()));

  for (int k = 0; k < system.job_count(); ++k) {
    const Job& job = system.job(k);
    const int hops = static_cast<int>(job.chain.size());
    JobReport& report = result.jobs.emplace_back(job_bound(states, k, hops));
    report.schedulable = time_le(report.wcrt, job.deadline);
    if (!record_curves) continue;
    for (int h = 0; h < hops; ++h) {
      const BoundState& st = states.at({k, h});
      SubjobCurves curves;
      curves.arrival_upper = st.arr_upper;
      curves.arrival_lower = st.arr_lower;
      curves.service_upper = st.svc_upper;
      curves.service_lower = st.svc_lower;
      curves.departure_lower = st.dep_lower;
      report.hops[h].curves.push_back(std::move(curves));
    }
  }
  return result;
}

}  // namespace detail

std::size_t analysis_worker_count(int threads) {
  if (threads == 1) return 1;
  if (threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
  }
  return static_cast<std::size_t>(threads);
}

BoundsAnalyzer::BoundsAnalyzer(AnalysisConfig config) : config_(config) {
  const std::size_t workers = analysis_worker_count(config.threads);
  if (workers > 1) pool_ = std::make_unique<ThreadPool>(workers);
  eobs_ = detail::EngineObs::make_if(config.observer, "bounds");
}

AnalysisResult BoundsAnalyzer::analyze(const System& system) const {
  const detail::EngineObs* eo = eobs_.get();
  detail::EngineObs::AnalyzeScope obs_scope(eo, pool_.get());
  obs::Tracer::Span span = obs::Tracer::span_if(
      eo != nullptr ? eo->tracer() : nullptr, "bounds.analyze");
  AnalysisResult rejected;
  const auto order = checked_dependency_order(system, rejected.error);
  if (!order) return rejected;

  return analyze_doubling_horizon(
      default_horizon(system, config_), config_.max_horizon_doublings,
      [&](Time horizon) { return analyze_at(system, *order, horizon); });
}

AnalysisResult BoundsAnalyzer::analyze_at(const System& system,
                                          const DependencyOrder& order,
                                          Time horizon) const {
  detail::BoundStateMap states;
  detail::run_bounds_wavefront(system, order, horizon, pool_.get(),
                               eobs_.get(), /*dirty=*/nullptr, states);
  return detail::bounds_result_from_states(system, horizon,
                                           config_.record_curves, states);
}

}  // namespace rta
