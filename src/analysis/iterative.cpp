#include "analysis/iterative.hpp"

#include <atomic>
#include <chrono>
#include <utility>
#include <vector>

#include "analysis/bounds.hpp"
#include "curve/algebra.hpp"
#include "curve/kernel_hooks.hpp"

namespace rta {

IterativeBoundsAnalyzer::IterativeBoundsAnalyzer(AnalysisConfig config)
    : config_(config) {
  const std::size_t workers = resolve_workers(config.threads);
  if (workers > 1) pool_ = std::make_unique<ThreadPool>(workers);
  eobs_ = detail::EngineObs::make_if(config.observer, "iterative");
}

AnalysisResult IterativeBoundsAnalyzer::analyze(const System& system) const {
  const detail::EngineObs* eo = eobs_.get();
  detail::EngineObs::AnalyzeScope obs_scope(eo, pool_.get());
  obs::Tracer::Span span = obs::Tracer::span_if(
      eo != nullptr ? eo->tracer() : nullptr, "iterative.analyze");
  if (auto invalid = system.validation_error()) {
    AnalysisResult r;
    r.error = std::move(*invalid);
    return r;
  }

  return analyze_doubling_horizon(
      default_horizon(system, config_), config_.max_horizon_doublings,
      [&](Time horizon) { return analyze_at(system, horizon); });
}

AnalysisResult IterativeBoundsAnalyzer::analyze_at(const System& system,
                                                   Time horizon) const {
  detail::BoundStateMap states;

  // Sound initial bounds.
  for (int k = 0; k < system.job_count(); ++k) {
    const Job& job = system.job(k);
    const PwlCurve first = job.arrivals.to_curve(horizon);
    Time offset = 0.0;
    for (int h = 0; h < static_cast<int>(job.chain.size()); ++h) {
      detail::BoundState st;
      if (h == 0) {
        st.arr_upper = first;
        st.arr_lower = first;
      } else {
        // Earliest possible arrivals: every earlier hop takes at least its
        // execution time.
        st.arr_upper = curve_shift_right(first, offset);
        // No departure is guaranteed yet.
        st.arr_lower = PwlCurve::zero(horizon);
      }
      offset += job.chain[h].exec_time;
      states[{k, h}] = std::move(st);
    }
  }

  const std::size_t proc_count =
      static_cast<std::size_t>(system.processor_count());
  const std::size_t job_count = static_cast<std::size_t>(system.job_count());
  std::vector<std::vector<SubjobRef>> on_proc(proc_count);
  for (std::size_t p = 0; p < proc_count; ++p) {
    on_proc[p] = system.subjobs_on(static_cast<int>(p));
  }

  // Pass-skip memo: a processor pass is a pure function of its subjobs'
  // arrival bounds, so when those are knot-for-knot identical to the inputs
  // of the pass that last ran, the outputs already sitting in `states` are
  // what the pass would recompute -- skip it. The comparison is exact, so
  // skipping never changes a result; it only removes the redundant
  // recomputation the fixed point otherwise performs every round.
  struct PassMemo {
    bool valid = false;
    std::vector<PwlCurve> inputs;  ///< arr_upper, arr_lower per subjob
  };
  std::vector<PassMemo> memo(proc_count);

  // Returns false when the pass-skip memo proved the pass redundant.
  auto run_processor_pass = [&](std::size_t p) {
    PassMemo& m = memo[p];
    if (m.valid) {
      bool unchanged = true;
      for (std::size_t i = 0; i < on_proc[p].size() && unchanged; ++i) {
        const detail::BoundState& st =
            states.at({on_proc[p][i].job, on_proc[p][i].hop});
        unchanged = curves_identical(m.inputs[2 * i], st.arr_upper) &&
                    curves_identical(m.inputs[2 * i + 1], st.arr_lower);
      }
      if (unchanged) return false;
    }
    m.inputs.clear();
    m.inputs.reserve(2 * on_proc[p].size());
    for (const SubjobRef& r : on_proc[p]) {
      const detail::BoundState& st = states.at({r.job, r.hop});
      m.inputs.push_back(st.arr_upper);
      m.inputs.push_back(st.arr_lower);
    }
    m.valid = true;
    detail::compute_processor_bounds(system, static_cast<int>(p), horizon,
                                     states);
    return true;
  };

  const detail::EngineObs* eo = eobs_.get();
  obs::Tracer* tracer = eo != nullptr ? eo->tracer() : nullptr;
  obs::Counter rounds_c, passes_run_c, passes_skipped_c, jobs_refined_c;
  obs::Counter pass_time_us_c, propagate_time_us_c;
  obs::Gauge round_refined_g, round_skipped_g, iterations_g;
  if (eo != nullptr && eo->metrics() != nullptr) {
    obs::MetricsRegistry& reg = *eo->metrics();
    rounds_c = reg.counter("iterative.rounds");
    passes_run_c = reg.counter("iterative.passes_run");
    passes_skipped_c = reg.counter("iterative.passes_skipped");
    jobs_refined_c = reg.counter("iterative.jobs_refined");
    pass_time_us_c = reg.counter("iterative.pass_time_us");
    propagate_time_us_c = reg.counter("iterative.propagate_time_us");
    round_refined_g = reg.gauge("iterative.last_round_refined_jobs");
    round_skipped_g = reg.gauge("iterative.last_round_skipped_passes");
    iterations_g = reg.gauge("iterative.iterations");
  }
  const bool timed = eo != nullptr && eo->metrics() != nullptr;
  using Clock = std::chrono::steady_clock;
  auto elapsed_us = [](Clock::time_point since) {
    const std::chrono::duration<double, std::micro> us = Clock::now() - since;
    return us.count();
  };

  // One processor-pass phase: run every pass, tallying skips and feeding the
  // curve kernels' counters through this analyzer's sink.
  std::atomic<std::uint64_t> phase_skipped{0};
  auto pass_phase = [&](const char* span_name) {
    phase_skipped.store(0, std::memory_order_relaxed);
    obs::Tracer::Span phase_span = obs::Tracer::span_if(tracer, span_name);
    const Clock::time_point start = Clock::now();
    for_each_index(pool_.get(), proc_count, [&](std::size_t p) {
      if (eo == nullptr) {
        run_processor_pass(p);
        return;
      }
      curve::KernelHooksScope sink_scope(eo->kernel_sink());
      obs::Tracer::Span pass_span = obs::Tracer::span_if(
          tracer, "iterative.pass P" + std::to_string(p));
      const Clock::time_point unit_start = Clock::now();
      const bool ran = run_processor_pass(p);
      eo->add_unit_time(system.scheduler(static_cast<int>(p)),
                        elapsed_us(unit_start));
      if (!ran) {
        phase_skipped.fetch_add(1, std::memory_order_relaxed);
        pass_span.annotate("{\"skipped\": true}");
      }
    });
    const std::uint64_t skipped =
        phase_skipped.load(std::memory_order_relaxed);
    if (timed) {
      pass_time_us_c.add(static_cast<std::uint64_t>(elapsed_us(start)));
      passes_skipped_c.add(skipped);
      passes_run_c.add(proc_count - skipped);
    }
    return skipped;
  };

  // Monotone refinement to a fixpoint. Within a round the processor passes
  // touch disjoint states, as do the per-job propagations, so both phases
  // run on the pool when one is configured; the phase boundary is a barrier,
  // which keeps the results independent of the worker count.
  int iterations = 0;
  for (; iterations < config_.max_iterations; ++iterations) {
    obs::Tracer::Span round_span = obs::Tracer::span_if(
        tracer, "iterative.round",
        tracer != nullptr
            ? "{\"round\": " + std::to_string(iterations) + "}"
            : std::string());
    const std::uint64_t skipped = pass_phase("iterative.pass_phase");

    std::atomic<bool> changed{false};
    std::atomic<std::uint64_t> refined{0};
    obs::Tracer::Span prop_span =
        obs::Tracer::span_if(tracer, "iterative.propagate");
    const Clock::time_point prop_start = Clock::now();
    for_each_index(pool_.get(), job_count, [&](std::size_t k) {
      curve::KernelHooksScope sink_scope(eo != nullptr ? eo->kernel_sink()
                                                       : nullptr);
      const Job& job = system.job(static_cast<int>(k));
      bool job_changed = false;
      for (int h = 1; h < static_cast<int>(job.chain.size()); ++h) {
        const detail::BoundState& pred =
            states.at({static_cast<int>(k), h - 1});
        detail::BoundState& st = states.at({static_cast<int>(k), h});
        const PwlCurve new_upper =
            curve_min(st.arr_upper, pred.next_arr_upper);
        const PwlCurve new_lower = curve_max(st.arr_lower, pred.dep_lower);
        if (!new_upper.approx_equal(st.arr_upper) ||
            !new_lower.approx_equal(st.arr_lower)) {
          job_changed = true;
        }
        st.arr_upper = new_upper;
        st.arr_lower = new_lower;
      }
      if (job_changed) {
        changed.store(true, std::memory_order_relaxed);
        refined.fetch_add(1, std::memory_order_relaxed);
        // Convergence trace: one instant per job per round it still moved.
        obs::Tracer::instant_if(
            tracer, "iterative.refine " + job.name,
            "{\"round\": " + std::to_string(iterations) + "}");
      }
    });
    prop_span.finish();
    const std::uint64_t refined_jobs = refined.load(std::memory_order_relaxed);
    if (timed) {
      propagate_time_us_c.add(
          static_cast<std::uint64_t>(elapsed_us(prop_start)));
      rounds_c.inc();
      jobs_refined_c.add(refined_jobs);
      round_refined_g.set(static_cast<double>(refined_jobs));
      round_skipped_g.set(static_cast<double>(skipped));
    }
    if (tracer != nullptr) {
      round_span.annotate(
          "{\"refined_jobs\": " + std::to_string(refined_jobs) +
          ", \"skipped_passes\": " + std::to_string(skipped) + "}");
    }
    if (!changed.load(std::memory_order_relaxed)) {
      ++iterations;
      break;
    }
  }
  // One final processor pass so service/departure bounds and the local
  // delays reflect the final arrival bounds. (With the pass memo this is
  // free when the last round already ran on the final arrivals.)
  pass_phase("iterative.final_pass");
  last_iterations_.store(iterations, std::memory_order_relaxed);
  iterations_g.set(static_cast<double>(iterations));

  return detail::bounds_result_from_states(system, horizon,
                                           config_.record_curves, states);
}

}  // namespace rta
