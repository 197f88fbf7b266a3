// Microbenchmarks of the analyzers (google-benchmark): cost scaling with
// job count and stage count, per method, plus the discrete-event simulator
// for reference, the admission session's fast what-if path, and one
// memo-hit request through the service's request path.
#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/holistic.hpp"
#include "analysis/iterative.hpp"
#include "analysis/spp_exact.hpp"
#include "io/system_json.hpp"
#include "model/priority.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/admission_session.hpp"
#include "service/request_scheduler.hpp"
#include "sim/simulator.hpp"
#include "workload/jobshop.hpp"

namespace rta {
namespace {

System make_system(std::size_t stages, std::size_t jobs, SchedulerKind kind,
                   ArrivalPattern pattern = ArrivalPattern::kPeriodic) {
  JobShopConfig cfg;
  cfg.stages = stages;
  cfg.processors_per_stage = 2;
  cfg.jobs = jobs;
  cfg.pattern = pattern;
  cfg.utilization = 0.5;
  cfg.window_periods = 6.0;
  cfg.min_rate = 0.15;
  cfg.scheduler = kind;
  Rng rng(12345);
  System sys = generate_jobshop(cfg, rng);
  assign_proportional_deadline_monotonic(sys);
  return sys;
}

void BM_ExactSppByJobs(benchmark::State& state) {
  const System sys = make_system(3, state.range(0), SchedulerKind::kSpp);
  const ExactSppAnalyzer analyzer;
  for (auto _ : state) benchmark::DoNotOptimize(analyzer.analyze(sys));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ExactSppByJobs)->RangeMultiplier(2)->Range(2, 16)->Complexity();

void BM_ExactSppByStages(benchmark::State& state) {
  const System sys = make_system(state.range(0), 6, SchedulerKind::kSpp);
  const ExactSppAnalyzer analyzer;
  for (auto _ : state) benchmark::DoNotOptimize(analyzer.analyze(sys));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ExactSppByStages)->DenseRange(1, 6, 1)->Complexity();

void BM_SpnpBoundsByJobs(benchmark::State& state) {
  const System sys = make_system(3, state.range(0), SchedulerKind::kSpnp);
  const BoundsAnalyzer analyzer;
  for (auto _ : state) benchmark::DoNotOptimize(analyzer.analyze(sys));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SpnpBoundsByJobs)->RangeMultiplier(2)->Range(2, 16)->Complexity();

void BM_FcfsBoundsByJobs(benchmark::State& state) {
  const System sys = make_system(3, state.range(0), SchedulerKind::kFcfs);
  const BoundsAnalyzer analyzer;
  for (auto _ : state) benchmark::DoNotOptimize(analyzer.analyze(sys));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FcfsBoundsByJobs)->RangeMultiplier(2)->Range(2, 16)->Complexity();

void BM_HolisticByJobs(benchmark::State& state) {
  const System sys = make_system(3, state.range(0), SchedulerKind::kSpp);
  const HolisticAnalyzer analyzer;
  for (auto _ : state) benchmark::DoNotOptimize(analyzer.analyze(sys));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_HolisticByJobs)->RangeMultiplier(2)->Range(2, 16)->Complexity();

void BM_IterativeOnAcyclic(benchmark::State& state) {
  const System sys = make_system(3, state.range(0), SchedulerKind::kSpnp);
  const IterativeBoundsAnalyzer analyzer;
  for (auto _ : state) benchmark::DoNotOptimize(analyzer.analyze(sys));
}
BENCHMARK(BM_IterativeOnAcyclic)->RangeMultiplier(2)->Range(2, 8);

void BM_SimulatorByJobs(benchmark::State& state) {
  const System sys = make_system(3, state.range(0), SchedulerKind::kSpp);
  const Time horizon = default_horizon(sys, AnalysisConfig{});
  for (auto _ : state) benchmark::DoNotOptimize(simulate(sys, horizon));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SimulatorByJobs)->RangeMultiplier(2)->Range(2, 16)->Complexity();

// Observability overhead trio: identical analysis with no sink (the
// default configuration -- the null-sink path the <= 2% overhead budget in
// docs/observability.md refers to), with a metrics registry attached, and
// with metrics plus tracer. Compare their per-iteration times to read off
// the cost of instrumentation.
void BM_BoundsObsOff(benchmark::State& state) {
  const System sys = make_system(3, 8, SchedulerKind::kSpnp);
  const BoundsAnalyzer analyzer;
  for (auto _ : state) benchmark::DoNotOptimize(analyzer.analyze(sys));
}
BENCHMARK(BM_BoundsObsOff);

void BM_BoundsObsMetrics(benchmark::State& state) {
  const System sys = make_system(3, 8, SchedulerKind::kSpnp);
  obs::MetricsRegistry registry;
  AnalysisConfig cfg;
  cfg.observer.metrics = &registry;
  const BoundsAnalyzer analyzer(cfg);
  for (auto _ : state) benchmark::DoNotOptimize(analyzer.analyze(sys));
}
BENCHMARK(BM_BoundsObsMetrics);

void BM_BoundsObsMetricsAndTrace(benchmark::State& state) {
  const System sys = make_system(3, 8, SchedulerKind::kSpnp);
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  AnalysisConfig cfg;
  cfg.observer.metrics = &registry;
  cfg.observer.tracer = &tracer;
  const BoundsAnalyzer analyzer(cfg);
  for (auto _ : state) benchmark::DoNotOptimize(analyzer.analyze(sys));
}
BENCHMARK(BM_BoundsObsMetricsAndTrace);

void BM_BurstyWorkloadAnalysis(benchmark::State& state) {
  const System sys = make_system(3, 6, SchedulerKind::kSpp,
                                 ArrivalPattern::kAperiodic);
  const ExactSppAnalyzer analyzer;
  for (auto _ : state) benchmark::DoNotOptimize(analyzer.analyze(sys));
}
BENCHMARK(BM_BurstyWorkloadAnalysis);

// Arrival-count series for the Theorem 5/6 service bounds: a two-hop SPP
// candidate with n Eq. 27 bursty arrivals below two periodic jobs, the shape
// of one what_if over a bursty first hop. The closed forms make one
// analysis unit cost O(n log n + K) kernel work, so time grows about
// linearly in n (the target is under 100 ms at n = 8000).
void BM_BoundsByArrivals(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  System sys(2, SchedulerKind::kSpp);
  const auto add = [&](const char* name, std::vector<Subjob> chain,
                       ArrivalSequence arrivals) {
    Job job;
    job.name = name;
    job.deadline = 1e6;
    job.chain = std::move(chain);
    job.arrivals = std::move(arrivals);
    sys.add_job(job);
  };
  const double x = 0.5;  // asymptotic period 2
  const Time window = 2.0 * (n - 1);
  add("hi0", {{0, 0.3, 1}}, ArrivalSequence::periodic(3.0, window));
  add("hi1", {{1, 0.4, 1}}, ArrivalSequence::periodic(5.0, window));
  add("cand", {{0, 0.5, 2}, {1, 0.5, 2}},
      ArrivalSequence::bursty_eq27(x, window));
  const BoundsAnalyzer analyzer;
  for (auto _ : state) benchmark::DoNotOptimize(analyzer.analyze(sys));
  state.SetComplexityN(n);
}
BENCHMARK(BM_BoundsByArrivals)
    ->Arg(250)
    ->Arg(1000)
    ->Arg(4000)
    ->Arg(8000)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

// The fast what-if path (service::AdmissionSession::read_what_if): one
// lowest-priority candidate on the Fig. 3 shop at U 0.7 (4 stages x 2
// processors, 8 periodic jobs, PDM priorities, pinned horizon), one hop per
// stage. Args: hops (1-3); first-hop releases (0 = periodic with period 4,
// else that many Eq. 27-shaped bursty releases over the committed window);
// cache state (2 = memo hit: one session re-asked one candidate, answered
// from its what-if memo; 1 = warm miss: one session, so the
// per-committed-state read cache is built once, asked in turn twice as many
// candidates as the memo holds, differing only in deadline, so every read
// runs the fast path; 0 = cold: a fresh clone_committed() per iteration,
// made and destroyed outside the timed region).
System fig3_shop_u07() {
  JobShopConfig cfg;
  cfg.stages = 4;
  cfg.processors_per_stage = 2;
  cfg.jobs = 8;
  cfg.pattern = ArrivalPattern::kPeriodic;
  cfg.utilization = 0.7;
  cfg.window_periods = 4.0;
  cfg.deadline.period_multiple = 4.0;
  cfg.scheduler = SchedulerKind::kSpp;
  Rng rng(42);
  System sys = generate_jobshop(cfg, rng);
  assign_proportional_deadline_monotonic(sys);
  return sys;
}

Job fast_what_if_candidate(const System& base, int hops, int releases) {
  const Time window = base.last_release();
  Job job;
  job.name = "probe";
  job.deadline = 1e6;
  double exec = 0.05;
  if (releases == 0) {
    job.arrivals = ArrivalSequence::periodic(4.0, window);
  } else {
    // sqrt(x^2 + m^2) / x - 1 (Eq. 27's shape) rescaled onto the window.
    const double x = 0.5;
    std::vector<Time> t(static_cast<std::size_t>(releases));
    for (std::size_t m = 0; m < t.size(); ++m) {
      const double k = static_cast<double>(m);
      t[m] = std::sqrt(x * x + k * k) / x - 1.0;
    }
    const double scale = 0.98 * window / t.back();
    for (Time& v : t) v *= scale;
    job.arrivals = ArrivalSequence(std::move(t));
    exec = 0.03 * window / releases;
  }
  for (int h = 0; h < hops; ++h) job.chain.push_back({2 * h + 1, exec, 0});
  service::assign_lowest_priorities(base, job);
  return job;
}

void BM_FastWhatIf(benchmark::State& state) {
  const System base = fig3_shop_u07();
  service::SessionConfig cfg;
  cfg.analysis.horizon = default_horizon(base, AnalysisConfig{});
  service::AdmissionSession session(base, cfg);
  const Job job = fast_what_if_candidate(
      base, static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  const int cache = static_cast<int>(state.range(2));
  if (!session.read_what_if(job).ok) {
    state.SkipWithError("candidate rejected");
    return;
  }
  std::vector<Job> rotation(2 * service::AdmissionSession::kWhatIfMemoSlots,
                            job);
  for (std::size_t i = 0; i < rotation.size(); ++i) {
    rotation[i].deadline += static_cast<double>(i + 1);
  }
  std::size_t next = 0;
  for (auto _ : state) {
    if (cache == 2) {
      benchmark::DoNotOptimize(session.read_what_if(job));
      continue;
    }
    if (cache == 1) {
      benchmark::DoNotOptimize(session.read_what_if(rotation[next]));
      next = (next + 1) % rotation.size();
      continue;
    }
    state.PauseTiming();
    std::unique_ptr<service::AdmissionSession> cold = session.clone_committed();
    state.ResumeTiming();
    benchmark::DoNotOptimize(cold->read_what_if(job));
    state.PauseTiming();
    cold.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_FastWhatIf)
    ->ArgNames({"hops", "releases", "cache"})
    ->ArgsProduct({{1, 2, 3}, {0, 24, 96}, {2, 1, 0}})
    ->Unit(benchmark::kMicrosecond);

// The fast admit path (service::AdmissionSession::admit on a candidate that
// passes the fast what-if screen): BM_FastWhatIf's shop and candidate. Args:
// hops (1 or 3); first-hop releases (24 or 96 Eq. 27-shaped releases);
// committed (0 = refused by a 1e-3 deadline: the session keeps its read
// cache, so each admit costs a warm fast what-if plus the report copy;
// 1 = committed: each admit also runs its last hop's upper part and drops
// the read cache, and the admitted job is removed again outside the timed
// region, so each timed admit first rebuilds its processors' operands).
void BM_FastAdmit(benchmark::State& state) {
  const System base = fig3_shop_u07();
  service::SessionConfig cfg;
  cfg.analysis.horizon = default_horizon(base, AnalysisConfig{});
  service::AdmissionSession session(base, cfg);
  Job job = fast_what_if_candidate(
      base, static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  const bool commit = state.range(2) != 0;
  if (!commit) job.deadline = 1e-3;
  const service::Decision probe = session.admit(job);
  if (!probe.ok || !probe.incremental || probe.committed != commit) {
    state.SkipWithError("candidate not on the fast admit path");
    return;
  }
  if (probe.committed) session.remove(probe.job_id);
  for (auto _ : state) {
    const service::Decision d = session.admit(job);
    benchmark::DoNotOptimize(d);
    if (d.committed) {
      state.PauseTiming();
      session.remove(d.job_id);
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_FastAdmit)
    ->ArgNames({"hops", "releases", "committed"})
    ->ArgsProduct({{1, 3}, {24, 96}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

/// A stream buffer that drops every byte it is given.
class DiscardBuf final : public std::streambuf {
 protected:
  int_type overflow(int_type ch) override { return traits_type::not_eof(ch); }
  std::streamsize xsputn(const char* /*s*/, std::streamsize n) override {
    return n;
  }
};

// One memo-hit what-if through the path a client's line takes:
// RequestScheduler::submit_line (parse, envelope stamp) and flush (the
// session's what-if memo answers, the response line is written to a stream
// that drops it). BM_FastWhatIf's shop and periodic candidate; the first
// request fills the memo, so every timed request is a hit and the time is
// the codec's, the scheduler's and the response writer's. Args: hops (1 or
// 3).
void BM_ServeMemoHit(benchmark::State& state) {
  const System base = fig3_shop_u07();
  service::SessionConfig cfg;
  cfg.analysis.horizon = default_horizon(base, AnalysisConfig{});
  service::AdmissionSession session(base, cfg);
  const Job job =
      fast_what_if_candidate(base, static_cast<int>(state.range(0)), 0);
  const std::string line =
      "{\"op\": \"what_if\", \"job\": " + job_to_json(job).dump() + "}";
  DiscardBuf sink;
  std::ostream out(&sink);
  service::RequestScheduler scheduler(session, out);
  scheduler.submit_line(line);
  scheduler.flush();
  if (scheduler.stats().errors != 0) {
    state.SkipWithError("what-if answered an error");
    return;
  }
  for (auto _ : state) {
    scheduler.submit_line(line);
    scheduler.flush();
  }
}
BENCHMARK(BM_ServeMemoHit)
    ->ArgNames({"hops"})
    ->Arg(1)
    ->Arg(3)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace rta

BENCHMARK_MAIN();
