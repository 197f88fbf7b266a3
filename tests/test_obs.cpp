// Tests for the instrumentation layer (src/obs) and its engine integration:
// registry aggregation across threads, snapshot determinism for a fixed
// system at threads = 1, trace-event schema guarantees, and the referee for
// the whole layer -- instrumented and uninstrumented analyses are
// bit-identical for every thread count.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/bounds.hpp"
#include "analysis/iterative.hpp"
#include "io/json.hpp"
#include "model/priority.hpp"
#include "obs/kernel_sink.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "service/admission_session.hpp"
#include "service/metrics_export.hpp"
#include "service/request_scheduler.hpp"
#include "util/rng.hpp"
#include "workload/jobshop.hpp"

namespace rta {
namespace {

System make_system(SchedulerKind kind, std::uint64_t seed = 7,
                   std::size_t jobs = 5) {
  JobShopConfig cfg;
  cfg.stages = 3;
  cfg.processors_per_stage = 2;
  cfg.jobs = jobs;
  cfg.pattern = ArrivalPattern::kPeriodic;
  cfg.utilization = 0.55;
  cfg.scheduler = kind;
  Rng rng(seed);
  System sys = generate_jobshop(cfg, rng);
  assign_proportional_deadline_monotonic(sys);
  return sys;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(Metrics, CountersAggregateAcrossThreads) {
  obs::MetricsRegistry registry;
  const obs::Counter counter = registry.counter("test.count");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (auto& t : threads) t.join();
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("test.count"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, HistogramBucketsCountAndSum) {
  obs::MetricsRegistry registry;
  const obs::Histogram h = registry.histogram("test.hist", {1.0, 10.0});
  h.observe(0.5);   // bucket 0 (<= 1)
  h.observe(1.0);   // bucket 0 (boundary inclusive)
  h.observe(5.0);   // bucket 1 (<= 10)
  h.observe(99.0);  // overflow bucket
  const obs::HistogramSnapshot snap =
      registry.snapshot().histograms.at("test.hist");
  ASSERT_EQ(snap.counts.size(), 3u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 105.5);
  EXPECT_DOUBLE_EQ(snap.max, 99.0);
}

TEST(Metrics, HistogramAggregatesAcrossThreads) {
  obs::MetricsRegistry registry;
  const obs::Histogram h =
      registry.histogram("test.hist", obs::MetricsRegistry::knot_buckets());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.observe(static_cast<double>(t + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  const obs::HistogramSnapshot snap =
      registry.snapshot().histograms.at("test.hist");
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(snap.sum, 1000.0 * (1 + 2 + 3 + 4));
  EXPECT_DOUBLE_EQ(snap.max, 4.0);
}

TEST(Metrics, GaugeSetAndRecordMax) {
  obs::MetricsRegistry registry;
  const obs::Gauge g = registry.gauge("test.gauge");
  g.set(3.0);
  g.set(1.5);
  EXPECT_DOUBLE_EQ(registry.snapshot().gauges.at("test.gauge"), 1.5);
  g.record_max(4.0);
  g.record_max(2.0);  // below the max: ignored
  EXPECT_DOUBLE_EQ(registry.snapshot().gauges.at("test.gauge"), 4.0);
}

TEST(Metrics, ReResolvingANameYieldsTheSameMetric) {
  obs::MetricsRegistry registry;
  registry.counter("test.shared").add(2);
  registry.counter("test.shared").add(3);
  EXPECT_EQ(registry.snapshot().counters.at("test.shared"), 5u);
}

TEST(Metrics, SnapshotJsonRoundTripsStructurally) {
  obs::MetricsRegistry registry;
  registry.counter("c.one").add(7);
  registry.gauge("g.one").set(2.5);
  registry.histogram("h.one", {1.0, 2.0}).observe(1.5);
  const std::string json = registry.snapshot().to_json();
  // Spot checks; full schema validation lives in scripts/check_trace.py
  // (exercised by the cli_observability_check ctest entry).
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"c.one\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"h.one\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracer

TEST(Metrics, DefaultConstructedHandlesAreInertAndUnbound) {
  // The service's latency recording relies on bound(): an unbound handle
  // silently drops writes, so call sites can audit their binding.
  obs::Counter counter;
  obs::Gauge gauge;
  obs::Histogram histogram;
  EXPECT_FALSE(counter.bound());
  EXPECT_FALSE(gauge.bound());
  EXPECT_FALSE(histogram.bound());
  counter.inc();          // all dropped, no crash
  gauge.record_max(3.0);
  histogram.observe(1.0);

  obs::MetricsRegistry registry;
  EXPECT_TRUE(registry.counter("c").bound());
  EXPECT_TRUE(registry.gauge("g").bound());
  EXPECT_TRUE(
      registry
          .histogram("h", obs::MetricsRegistry::latency_buckets_us())
          .bound());
}

TEST(Metrics, HistogramQuantileMatchesBruteForceOracle) {
  // quantile(q) promises an estimate inside the bucket containing the exact
  // sample quantile. Randomized streams over the shared latency layout,
  // checked against a sorted-sample oracle.
  const std::vector<double>& bounds =
      obs::MetricsRegistry::latency_buckets_us();
  const RngFactory factory(0x0B5E55ED);
  for (int trial = 0; trial < 25; ++trial) {
    Rng rng = factory.stream(static_cast<std::uint64_t>(trial));
    obs::MetricsRegistry registry;
    const obs::Histogram h = registry.histogram("test.q", bounds);
    const int n = rng.uniform_int(1, 300);
    std::vector<double> samples;
    samples.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      // Spread across the buckets and past the last bound (overflow).
      const double v = rng.uniform(0.0, 2.0 * bounds.back());
      samples.push_back(v);
      h.observe(v);
    }
    std::sort(samples.begin(), samples.end());
    const obs::HistogramSnapshot snap =
        registry.snapshot().histograms.at("test.q");
    for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
      // Exact sample quantile: the ceil(q*n)-th order statistic.
      const std::size_t rank =
          q <= 0.0 ? 0
                   : static_cast<std::size_t>(
                         std::ceil(q * static_cast<double>(n))) -
                         1;
      const double exact = samples[std::min<std::size_t>(
          rank, static_cast<std::size_t>(n) - 1)];
      // The bucket holding that sample.
      const std::size_t bucket = static_cast<std::size_t>(
          std::lower_bound(bounds.begin(), bounds.end(), exact) -
          bounds.begin());
      const double lower = bucket == 0 ? 0.0 : bounds[bucket - 1];
      const double upper =
          bucket < bounds.size() ? bounds[bucket] : std::max(snap.max, lower);
      const double est = snap.quantile(q);
      EXPECT_GE(est, lower) << "trial " << trial << " q " << q;
      EXPECT_LE(est, upper) << "trial " << trial << " q " << q;
    }
    if (n > 0) {
      EXPECT_GT(snap.quantile(0.5), 0.0);
      EXPECT_LE(snap.quantile(0.5), snap.quantile(0.9));
      EXPECT_LE(snap.quantile(0.9), snap.quantile(0.99));
    }
  }
}

TEST(Metrics, HistogramQuantileOnEmptyHistogramIsZero) {
  obs::MetricsRegistry registry;
  const obs::Histogram h = registry.histogram(
      "test.empty", obs::MetricsRegistry::latency_buckets_us());
  EXPECT_TRUE(h.bound());  // registered but never observed
  const obs::HistogramSnapshot snap =
      registry.snapshot().histograms.at("test.empty");
  EXPECT_DOUBLE_EQ(snap.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 0.0);
}

TEST(Metrics, HistogramQuantileClampsOutOfRangeProbabilities) {
  obs::MetricsRegistry registry;
  const obs::Histogram h = registry.histogram("test.clamp", {10.0, 20.0});
  h.observe(5.0);
  h.observe(15.0);
  const obs::HistogramSnapshot snap =
      registry.snapshot().histograms.at("test.clamp");
  EXPECT_DOUBLE_EQ(snap.quantile(-1.0), snap.quantile(0.0));
  EXPECT_DOUBLE_EQ(snap.quantile(2.0), snap.quantile(1.0));
}

TEST(Metrics, LatencyBucketsAreSharedAndExponential) {
  const std::vector<double>& buckets =
      obs::MetricsRegistry::latency_buckets_us();
  ASSERT_FALSE(buckets.empty());
  EXPECT_DOUBLE_EQ(buckets.front(), 10.0);
  EXPECT_GE(buckets.back(), 10000.0);
  for (std::size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_DOUBLE_EQ(buckets[i], 2.0 * buckets[i - 1]);
  }
  // Same object every call: histograms sharing the layout stay comparable.
  EXPECT_EQ(&buckets, &obs::MetricsRegistry::latency_buckets_us());
}

TEST(Trace, SpansProduceBalancedStrictlyIncreasingEvents) {
  obs::Tracer tracer;
  {
    obs::Tracer::Span outer = tracer.span("outer");
    {
      obs::Tracer::Span inner = tracer.span("inner", "{\"k\": 1}");
      tracer.instant("tick");
    }
    outer.annotate("{\"result\": 42}");
  }
  const std::vector<obs::TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 5u);

  std::map<int, double> last_ts;
  std::map<int, std::vector<std::string>> open;
  for (const obs::TraceEvent& ev : events) {
    const auto it = last_ts.find(ev.tid);
    if (it != last_ts.end()) {
      EXPECT_GT(ev.ts_us, it->second) << "ts not strictly increasing";
    }
    last_ts[ev.tid] = ev.ts_us;
    if (ev.phase == 'B') {
      open[ev.tid].push_back(ev.name);
    } else if (ev.phase == 'E') {
      ASSERT_FALSE(open[ev.tid].empty()) << "E without B";
      EXPECT_EQ(open[ev.tid].back(), ev.name) << "spans must nest";
      open[ev.tid].pop_back();
    }
  }
  for (const auto& [tid, stack] : open) {
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
  }
  // annotate() lands on the closing event of the right span.
  EXPECT_EQ(events.back().name, "outer");
  EXPECT_EQ(events.back().phase, 'E');
  EXPECT_EQ(events.back().args, "{\"result\": 42}");
}

TEST(Trace, NullTracerHelpersAreInert) {
  obs::Tracer::Span span = obs::Tracer::span_if(nullptr, "nothing");
  span.annotate("{}");
  span.finish();
  obs::Tracer::instant_if(nullptr, "nothing");  // must not crash
}

TEST(Trace, ChromeJsonHasTraceEventsArray) {
  obs::Tracer tracer;
  { obs::Tracer::Span s = tracer.span("phase"); }
  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"E\""), std::string::npos);
}

TEST(Trace, EventsFromWorkerThreadsGetDistinctTids) {
  obs::Tracer tracer;
  tracer.instant("main");
  std::thread worker([&] { tracer.instant("worker"); });
  worker.join();
  std::set<int> tids;
  for (const obs::TraceEvent& ev : tracer.events()) tids.insert(ev.tid);
  EXPECT_EQ(tids.size(), 2u);
}

// ---------------------------------------------------------------------------
// Kernel sink plumbing

TEST(Trace, JsonlEmitsOneParseableEventPerLine) {
  obs::Tracer tracer;
  {
    obs::Tracer::Span outer = tracer.span("outer", "{\"k\": 1}");
    tracer.instant("tick");
    obs::Tracer::Span inner = tracer.span("inner");
  }
  const std::string jsonl = tracer.to_jsonl();
  std::istringstream lines(jsonl);
  std::string line;
  int events = 0;
  int depth = 0;
  bool saw_args = false;
  while (std::getline(lines, line)) {
    ++events;
    const json::ParseResult doc = json::parse(line);
    ASSERT_TRUE(doc.ok) << line;
    const json::Value* ts = doc.value.find("ts_us");
    ASSERT_NE(ts, nullptr) << line;
    EXPECT_TRUE(ts->is_number()) << line;
    const json::Value* name = doc.value.find("name");
    ASSERT_NE(name, nullptr) << line;
    EXPECT_FALSE(name->as_string().empty()) << line;
    const json::Value* ph = doc.value.find("ph");
    ASSERT_NE(ph, nullptr) << line;
    const std::string phase = ph->as_string();
    if (phase == "B") ++depth;
    if (phase == "E") --depth;
    EXPECT_GE(depth, 0) << line;
    if (doc.value.find("args") != nullptr) saw_args = true;
  }
  // outer B/E, inner B/E, one instant -- all on one thread, balanced.
  EXPECT_EQ(events, 5);
  EXPECT_EQ(depth, 0);
  EXPECT_TRUE(saw_args);  // outer's args round-trip as real JSON
}

// ---------------------------------------------------------------------------
// Trace context

TEST(TraceContext, MintedIdsAreDeterministicSixteenHexChars) {
  const std::string id = obs::mint_trace_id(3, "{\"op\": \"query\"}");
  EXPECT_EQ(id, obs::mint_trace_id(3, "{\"op\": \"query\"}"));
  ASSERT_EQ(id.size(), 16u);
  for (const char c : id) {
    EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c)) &&
                !std::isupper(static_cast<unsigned char>(c)))
        << id;
  }
  // Byte-identical lines at different line numbers (a polling client) get
  // distinct ids; different bytes at one line number do too.
  EXPECT_NE(id, obs::mint_trace_id(4, "{\"op\": \"query\"}"));
  EXPECT_NE(id, obs::mint_trace_id(3, "{\"op\": \"stats\"}"));
}

TEST(KernelSink, ScopeInstallsAndRestores) {
  obs::MetricsRegistry registry;
  obs::KernelSink outer_sink(registry);
  obs::KernelSink inner_sink(registry);
  EXPECT_EQ(curve::kernel_hooks(), nullptr);
  {
    curve::KernelHooksScope outer(&outer_sink);
    EXPECT_EQ(curve::kernel_hooks(), &outer_sink);
    {
      curve::KernelHooksScope inner(&inner_sink);
      EXPECT_EQ(curve::kernel_hooks(), &inner_sink);
    }
    EXPECT_EQ(curve::kernel_hooks(), &outer_sink);
  }
  EXPECT_EQ(curve::kernel_hooks(), nullptr);
}

// ---------------------------------------------------------------------------
// Engine integration

/// All engine-relevant numbers of one analysis, for bitwise comparison.
std::vector<double> result_fingerprint(const AnalysisResult& r) {
  std::vector<double> out;
  out.push_back(r.ok ? 1.0 : 0.0);
  out.push_back(r.horizon);
  for (const JobReport& j : r.jobs) {
    out.push_back(j.wcrt);
    out.push_back(j.schedulable ? 1.0 : 0.0);
    for (const SubjobReport& hop : j.hops) out.push_back(hop.local_bound);
  }
  return out;
}

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b,
                          const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bitwise, not approximate: NaN-safe and catches sign/rounding drift.
    EXPECT_TRUE(std::memcmp(&a[i], &b[i], sizeof(double)) == 0)
        << label << " value " << i << ": " << a[i] << " vs " << b[i];
  }
}

std::vector<int> engine_thread_counts() {
  std::vector<int> counts = {1, 2};
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 2) counts.push_back(static_cast<int>(hw));
  return counts;
}

TEST(ObservedAnalysis, BoundsBitIdenticalWithObserverOnAcrossThreadCounts) {
  const System sys = make_system(SchedulerKind::kSpnp);
  AnalysisConfig plain;
  const std::vector<double> reference =
      result_fingerprint(BoundsAnalyzer(plain).analyze(sys));
  for (const int threads : engine_thread_counts()) {
    obs::MetricsRegistry registry;
    obs::Tracer tracer;
    AnalysisConfig cfg;
    cfg.threads = threads;
    cfg.observer.metrics = &registry;
    cfg.observer.tracer = &tracer;
    const std::vector<double> observed =
        result_fingerprint(BoundsAnalyzer(cfg).analyze(sys));
    expect_bitwise_equal(reference, observed,
                         "bounds threads=" + std::to_string(threads));
    EXPECT_GT(registry.snapshot().counters.at("bounds.units"), 0u);
  }
}

TEST(ObservedAnalysis, IterativeBitIdenticalWithObserverOnAcrossThreadCounts) {
  const System sys = make_system(SchedulerKind::kSpp);
  AnalysisConfig plain;
  const std::vector<double> reference =
      result_fingerprint(IterativeBoundsAnalyzer(plain).analyze(sys));
  for (const int threads : engine_thread_counts()) {
    obs::MetricsRegistry registry;
    obs::Tracer tracer;
    AnalysisConfig cfg;
    cfg.threads = threads;
    cfg.observer.metrics = &registry;
    cfg.observer.tracer = &tracer;
    const std::vector<double> observed =
        result_fingerprint(IterativeBoundsAnalyzer(cfg).analyze(sys));
    expect_bitwise_equal(reference, observed,
                         "iterative threads=" + std::to_string(threads));
    EXPECT_GT(registry.snapshot().counters.at("iterative.rounds"), 0u);
  }
}

/// Deterministic subset of a snapshot: everything except wall-clock-derived
/// metrics (the "_us"/"_ns" suffix convention of obs/metrics.hpp).
struct DeterministicView {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, obs::HistogramSnapshot> histograms;

  bool operator==(const DeterministicView&) const = default;
};

bool is_time_metric(const std::string& name) {
  const auto ends_with = [&](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  return ends_with("_us") || ends_with("_ns");
}

DeterministicView deterministic_view(const obs::MetricsSnapshot& snap) {
  DeterministicView v;
  for (const auto& [name, value] : snap.counters) {
    if (!is_time_metric(name)) v.counters.emplace(name, value);
  }
  for (const auto& [name, value] : snap.gauges) {
    if (!is_time_metric(name)) v.gauges.emplace(name, value);
  }
  v.histograms = snap.histograms;  // knot counts: never time-derived
  return v;
}

TEST(ObservedAnalysis, MetricsSnapshotDeterministicAtOneThread) {
  for (const SchedulerKind kind :
       {SchedulerKind::kSpp, SchedulerKind::kSpnp, SchedulerKind::kFcfs}) {
    const System sys = make_system(kind, /*seed=*/11);
    DeterministicView first;
    for (int run = 0; run < 3; ++run) {
      obs::MetricsRegistry registry;
      AnalysisConfig cfg;
      cfg.threads = 1;
      cfg.observer.metrics = &registry;
      (void)IterativeBoundsAnalyzer(cfg).analyze(sys);
      const DeterministicView view = deterministic_view(registry.snapshot());
      EXPECT_FALSE(view.counters.empty());
      if (run == 0) {
        first = view;
      } else {
        EXPECT_EQ(view, first) << "scheduler " << to_string(kind)
                               << " run " << run;
      }
    }
  }
}

TEST(ObservedAnalysis, KernelCountersArePopulated) {
  const System sys = make_system(SchedulerKind::kSpnp);
  obs::MetricsRegistry registry;
  AnalysisConfig cfg;
  cfg.observer.metrics = &registry;
  (void)BoundsAnalyzer(cfg).analyze(sys);
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_GT(snap.counters.at("kernel.pointwise_ops"), 0u);
  EXPECT_GT(snap.counters.at("kernel.pinv_ops"), 0u);
  const obs::HistogramSnapshot& knots =
      snap.histograms.at("kernel.pointwise_result_knots");
  EXPECT_GT(knots.count, 0u);
  EXPECT_GT(knots.max, 0.0);
}

TEST(ObservedAnalysis, TraceCoversWavefrontAndRounds) {
  const System sys = make_system(SchedulerKind::kSpp);
  obs::Tracer tracer;
  AnalysisConfig cfg;
  cfg.observer.tracer = &tracer;
  (void)IterativeBoundsAnalyzer(cfg).analyze(sys);
  std::set<std::string> names;
  for (const obs::TraceEvent& ev : tracer.events()) names.insert(ev.name);
  EXPECT_TRUE(names.count("iterative.analyze"));
  EXPECT_TRUE(names.count("iterative.round"));
  EXPECT_TRUE(names.count("iterative.pass_phase"));
  EXPECT_TRUE(names.count("iterative.propagate"));
  EXPECT_TRUE(names.count("iterative.final_pass"));
}

// ---------------------------------------------------------------------------
// Service metrics surface (src/service/metrics_export.*, request_scheduler)

/// Regression: the queue-depth gauge uses record_max, which never resets --
/// it is a high-water mark, not a live depth. It must therefore be named
/// service.queue_depth_max; the old name service.queue_depth (implying a
/// resettable level) must be gone from the snapshot.
TEST(ServiceObs, QueueDepthGaugeIsNamedAsHighWaterMark) {
  const System sys = make_system(SchedulerKind::kSpp);
  obs::MetricsRegistry registry;
  service::SessionConfig cfg;
  cfg.analysis.observer.metrics = &registry;
  service::AdmissionSession session(sys, cfg);
  std::ostringstream out;
  service::RequestScheduler scheduler(session, out, service::StreamOptions{});
  for (int i = 0; i < 3; ++i) scheduler.submit_line("{\"op\": \"query\"}");
  scheduler.finish();

  const obs::MetricsSnapshot snap = registry.snapshot();
  ASSERT_TRUE(snap.gauges.count("service.queue_depth_max"));
  EXPECT_GE(snap.gauges.at("service.queue_depth_max"), 1.0);
  EXPECT_EQ(snap.gauges.count("service.queue_depth"), 0u);
  // Both exports render the renamed gauge verbatim.
  const json::Value payload = service::stats_payload(snap);
  ASSERT_NE(payload.find("gauges"), nullptr);
  EXPECT_NE(payload.find("gauges")->find("service.queue_depth_max"), nullptr);
  const std::string prom = service::to_prometheus_text(snap);
  EXPECT_NE(prom.find("rta_service_queue_depth_max"), std::string::npos);
  EXPECT_EQ(prom.find("rta_service_queue_depth "), std::string::npos);
}

/// Regression: destroying a PromFlusher must leave a complete exposition at
/// the target path even when the flush interval never elapsed -- the final
/// write belongs to stop_and_flush()/the destructor, not the timer.
TEST(ServiceObs, PromFlusherWritesFinalSnapshotOnDestruction) {
  namespace fs = std::filesystem;
  const fs::path path = fs::path("obs_prom_final_test.prom");
  std::error_code ec;
  fs::remove(path, ec);
  obs::MetricsRegistry registry;
  registry.counter("final.count").add(42);
  {
    // An interval far beyond the test's lifetime: the background thread
    // never fires, so any bytes at `path` came from the final flush.
    service::PromFlusher flusher(registry, path.string(),
                                 /*interval_ms=*/60 * 60 * 1000.0);
    EXPECT_FALSE(fs::exists(path));
  }
  ASSERT_TRUE(fs::exists(path));
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("rta_final_count 42"), std::string::npos);
  EXPECT_NE(text.find("rta_scrape_time_seconds"), std::string::npos);
  fs::remove(path, ec);
}

/// Regression: when the atomic rename fails (here: the target path is a
/// directory), the staged `.tmp` file must be cleaned up, and the failure
/// must surface through stop_and_flush().
TEST(ServiceObs, PromFlusherCleansUpTmpWhenRenameFails) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path("obs_prom_rename_fail.prom");
  std::error_code ec;
  fs::remove_all(dir, ec);
  ASSERT_TRUE(fs::create_directory(dir));
  const fs::path tmp = fs::path(dir.string() + ".tmp");

  obs::MetricsRegistry registry;
  registry.counter("doomed.count").inc();
  bool clean = true;
  {
    service::PromFlusher flusher(registry, dir.string(),
                                 /*interval_ms=*/60 * 60 * 1000.0);
    clean = flusher.stop_and_flush();
  }
  EXPECT_FALSE(clean);            // the failed write is reported...
  EXPECT_FALSE(fs::exists(tmp));  // ...and the staging file is gone
  EXPECT_TRUE(fs::is_directory(dir));
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace rta
