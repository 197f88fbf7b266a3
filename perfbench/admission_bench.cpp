// Admission-service benchmark: one workload, one seed, one run.
//
//   admission_bench --workload NAME --seed N --seconds S --trace 0|1
//                   [--result FILE]
//
// The run times set-up, drives the service with a closed loop of callers
// for S seconds, checks every answer (checks.hpp), and prints a readable
// report followed by one JSON object as the last line of standard output:
//
//   {"correct": ..., "attempted": ..., "failed": ...,
//    "metrics": {"<name>": {"value": ..., "unit": "..."}, ...}}
//
// --trace 0 reports the end-to-end metrics, scaled to the host's reference
// speed by a probe taken throughout the run (machine.hpp). --trace 1
// reports the per-layer metrics instead: it replays the identical request
// sequence with the service's MetricsRegistry and Tracer attached, folds
// the spans into the per-layer ledger (ledger.hpp), and replays the
// requests once more straight on fresh sessions and through the codec
// alone. --result writes the full record: both metric sets where measured,
// the end-to-end metrics as measured, their spread across the run's trials
// (as measured), the machine probes and the check counts.
// README.md describes the workloads and the load model.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "closed_loop.hpp"
#include "io/json.hpp"
#include "ledger.hpp"
#include "machine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "service/request_codec.hpp"

using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

/// The loop pauses between two waves every kPauseEvery seconds to take the
/// speed probe, and every kSetupEvery-th pause also times one set-up build.
/// Set-up is also timed kSetupRuns times before the loop and after it. The
/// medians of all of them are used. The host changes speed over seconds to
/// minutes, so samples spread over the whole run see it as the loop does.
constexpr double kPauseEvery = 0.1;
constexpr int kSetupEvery = 5;
constexpr int kSetupRuns = 3;
/// Share of the run discarded while caches fill.
constexpr double kWarmupShare = 0.1;
/// The record splits the measured part into this many trials, to show how
/// far the metrics move within a run. The reported metrics pool all of it.
constexpr int kTrials = 10;
/// Every reported p90 must rest on at least this many samples of its class.
constexpr std::size_t kMinPerClass = 100;
/// Wall-time cap of the traced run's direct session replay.
constexpr double kSessionReplayS = 3.0;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// The metrics as the host would give them at its reference speed: times
/// divided by `slowdown` (the run's median speed probe over
/// kReferenceProbeMs), rates multiplied by it.
std::vector<Metric> at_reference_speed(std::vector<Metric> metrics,
                                       double slowdown) {
  for (Metric& m : metrics) {
    if (m.unit == "1/s") {
      m.value *= slowdown;
    } else if (m.unit == "ms" || m.unit == "s") {
      m.value /= slowdown;
    }
  }
  return metrics;
}

double spread(const std::vector<double>& v) {
  const double med = quantile(v, 0.5);
  return med != 0.0 ? (quantile(v, 0.75) - quantile(v, 0.25)) / med : 0.0;
}

/// End-to-end metrics over the requests submitted in [from_us, to_us), and
/// the sample count of the smaller class.
std::pair<std::vector<Metric>, std::size_t> end_to_end(const LoopResult& run,
                                                       double from_us,
                                                       double to_us) {
  std::vector<double> reads;
  std::vector<double> mutates;
  for (const Completed& c : run.done) {
    if (c.submit_us < from_us || c.submit_us >= to_us) continue;
    (is_read(c.req.op) ? reads : mutates).push_back(c.latency_us / 1000.0);
  }
  const double n = static_cast<double>(reads.size() + mutates.size());
  return {{
      {"req_per_s", ratio(n, (to_us - from_us) / 1e6), "1/s"},
      {"read_p50_ms", quantile(reads, 0.5), "ms"},
      {"read_p90_ms", quantile(reads, 0.9), "ms"},
      {"mutate_p50_ms", quantile(mutates, 0.5), "ms"},
      {"mutate_p90_ms", quantile(mutates, 0.9), "ms"},
  }, std::min(reads.size(), mutates.size())};
}

std::uint64_t counter(const rta::obs::MetricsSnapshot& before,
                      const rta::obs::MetricsSnapshot& after,
                      const std::string& name) {
  const auto a = after.counters.find(name);
  if (a == after.counters.end()) return 0;
  const auto b = before.counters.find(name);
  return a->second - (b == before.counters.end() ? 0 : b->second);
}

/// The request lines of a run, and each one's position in its tenant's
/// stream (the line number its trace_id is minted from).
struct Lines {
  std::vector<std::string> text;
  std::vector<int> line_no;
};

Lines regenerate(const Workload& wl, const LoopResult& run) {
  Lines lines;
  std::map<int, int> per_bucket;
  for (const Completed& c : run.done) {
    lines.text.push_back(wl.line(c.req));
    lines.line_no.push_back(++per_bucket[c.req.tenant]);
  }
  return lines;
}

/// Median per-class latency of the run's requests issued straight to fresh
/// sessions: no codec, no scheduler (read_what_if, admit, remove). The
/// replay covers the run's first kSessionReplayS seconds' worth of requests.
std::pair<double, double> session_latency(const Workload& wl,
                                          const LoopResult& run,
                                          const Lines& lines) {
  std::map<int, std::unique_ptr<rta::service::AdmissionSession>> sessions;
  std::vector<double> reads;
  std::vector<double> mutates;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;
       i < run.done.size() && seconds_since(start) < kSessionReplayS; ++i) {
    const Request& req = run.done[i].req;
    if (req.op == Op::kQuery) continue;
    auto& session = sessions[req.tenant];
    if (session == nullptr) {
      session = std::make_unique<rta::service::AdmissionSession>(wl.base(),
                                                                 wl.config());
    }
    rta::service::detail::ParsedRequest parsed;
    if (req.op != Op::kRemove) {
      parsed = rta::service::detail::parse_request(lines.text[i]);
      if (!parsed.saw_priority) {
        rta::service::assign_lowest_priorities(session->system(), parsed.job);
      }
    }
    const Clock::time_point t0 = Clock::now();
    switch (req.op) {
      case Op::kWhatIf: (void)session->read_what_if(std::move(parsed.job)); break;
      case Op::kAdmit: (void)session->admit(std::move(parsed.job)); break;
      case Op::kRemove: (void)session->remove(req.job_id); break;
      case Op::kQuery: break;
    }
    (is_read(req.op) ? reads : mutates).push_back(seconds_since(t0) * 1e3);
  }
  return {quantile(reads, 0.5), quantile(mutates, 0.5)};
}

/// Per-request time of parse_request on the run's own lines.
double codec_parse_us(const Lines& lines) {
  std::size_t parsed = 0;
  const Clock::time_point t0 = Clock::now();
  do {
    for (const std::string& line : lines.text) {
      const rta::service::detail::ParsedRequest req =
          rta::service::detail::parse_request(line);
      parsed += req.op.size() > 0 ? 1 : 0;
    }
  } while (seconds_since(t0) < 0.25);
  return ratio(seconds_since(t0) * 1e6, static_cast<double>(parsed));
}

double clone_ms(const Service& svc) {
  const rta::service::AdmissionSession& base =
      svc.session != nullptr ? *svc.session : svc.registry->session(0);
  std::vector<double> ms;
  for (int i = 0; i < 9; ++i) {
    const Clock::time_point t0 = Clock::now();
    const std::unique_ptr<rta::service::AdmissionSession> c =
        base.clone_committed();
    ms.push_back(seconds_since(t0) * 1e3);
  }
  return quantile(ms, 0.5);
}

/// Arrival-count buckets of the unit time per problem size: one per rung of
/// the bursty ladder (24 / 48 / 96); periodic candidates fall in the first.
const std::vector<std::pair<std::size_t, std::string>>& n_buckets() {
  static const std::vector<std::pair<std::size_t, std::string>> buckets = {
      {32, "analysis.unit_ms_n_lt32"},
      {64, "analysis.unit_ms_n32_63"},
      {SIZE_MAX, "analysis.unit_ms_n_ge64"}};
  return buckets;
}

struct LayerRun {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, double>> table;  ///< layer, share of wall
  std::vector<std::string> failures;
};

/// The traced replay and the per-layer metrics.
LayerRun measure_layers(const std::string& name, std::uint64_t seed,
                        const LoopResult& untraced) {
  LayerRun out;
  const double n = static_cast<double>(untraced.done.size());

  rta::obs::MetricsRegistry registry;
  rta::obs::Tracer tracer;
  const rta::obs::Observer observer{&registry, &tracer};
  const std::unique_ptr<Workload> wl = make_workload(name, seed);
  Service svc = build_service(*wl, observer);
  const rta::obs::MetricsSnapshot before = registry.snapshot();
  const double from_us = tracer.now_us();
  LoopOptions lo;
  lo.max_requests = untraced.done.size();
  const LoopResult traced = run_closed_loop(*wl, svc, lo, observer);
  const rta::obs::MetricsSnapshot after = registry.snapshot();

  // Observing must never change an answer.
  bool same = traced.done.size() == untraced.done.size();
  for (std::size_t i = 0; same && i < traced.done.size(); ++i) {
    same = traced.done[i].hash == untraced.done[i].hash;
  }
  if (!same) out.failures.push_back("traced run answered differently");

  const Ledger ledger = fold_trace(tracer.events(), from_us);
  const Lines lines = regenerate(*wl, untraced);
  const double wall_us = traced.wall_s * 1e6;
  const double parse_us = codec_parse_us(lines);
  const auto c = [&](const char* metric) {
    return static_cast<double>(counter(before, after, metric));
  };
  const auto self_ms = [&](const char* layer) {
    const auto it = ledger.self_us.find(layer);
    return it == ledger.self_us.end() ? 0.0 : it->second / n / 1000.0;
  };

  std::size_t reads = 0;
  for (const Completed& done : untraced.done) reads += is_read(done.req.op);

  // Unit time per candidate arrival count.
  std::vector<double> bucket_us(n_buckets().size(), 0.0);
  std::vector<double> bucket_requests(n_buckets().size(), 0.0);
  for (std::size_t i = 0; i < untraced.done.size(); ++i) {
    const Request& req = untraced.done[i].req;
    if (req.op != Op::kWhatIf && req.op != Op::kAdmit) continue;
    const std::size_t arrivals = wl->candidate(req).arrivals.count();
    std::size_t b = 0;
    while (arrivals >= n_buckets()[b].first) ++b;
    bucket_requests[b] += 1.0;
    const auto it = ledger.unit_us_by_trace.find(
        rta::obs::mint_trace_id(lines.line_no[i], lines.text[i]));
    if (it != ledger.unit_us_by_trace.end()) bucket_us[b] += it->second;
  }

  const auto [session_read_ms, session_mutate_ms] =
      session_latency(*wl, untraced, lines);
  const double analysed =
      c("service.admit") + c("service.what_if") + c("service.remove");
  const double fast = static_cast<double>(ledger.fast_paths);
  const auto knots = [&](const rta::obs::MetricsSnapshot& s) {
    const auto it = s.histograms.find("kernel.pointwise_result_knots");
    return it == s.histograms.end() ? 0.0 : it->second.sum;
  };
  const double hits = c("curve_cache.conv_hits") + c("curve_cache.pinv_hits");
  const double misses =
      c("curve_cache.conv_misses") + c("curve_cache.pinv_misses");
  const double other_us =
      wall_us - ledger.spans_us() - parse_us * n - traced.client_us;

  out.metrics = {
      {"codec.parse_us", parse_us, "us"},
      {"codec.response_bytes", untraced.response_bytes / n, "B"},
      {"sched.coalesced_frac",
       ratio(static_cast<double>(untraced.coalesced),
             static_cast<double>(reads)),
       "ratio"},
      {"sched.queue_ms_p50", quantile(ledger.queue_us, 0.5) / 1000.0, "ms"},
      {"sched.self_ms", self_ms("sched"), "ms"},
      {"session.read_ms_p50", session_read_ms, "ms"},
      {"session.mutate_ms_p50", session_mutate_ms, "ms"},
      {"session.incremental_frac",
       ratio(c("service.incremental") - fast, analysed), "ratio"},
      {"session.fast_path_frac", ratio(fast, analysed), "ratio"},
      {"session.full_frac", ratio(c("service.full"), analysed), "ratio"},
      {"session.dirty_subjobs_mean",
       ratio(c("service.dirty_subjobs"), c("service.incremental")), "count"},
      {"session.self_ms", self_ms("session"), "ms"},
      {"session.clone_ms", clone_ms(svc), "ms"},
      {"analysis.unit_ms", ledger.unit_us / n / 1000.0, "ms"},
      {"analysis.unit_ms_spp", c("analysis.unit_time_spp_us") / n / 1000.0,
       "ms"},
      {"analysis.unit_ms_spnp", c("analysis.unit_time_spnp_us") / n / 1000.0,
       "ms"},
      {"analysis.unit_ms_fcfs", c("analysis.unit_time_fcfs_us") / n / 1000.0,
       "ms"},
      {"analysis.unit_frac", ratio(ledger.unit_us, wall_us), "ratio"},
      {"analysis.units", static_cast<double>(ledger.units) / n, "count"},
      {"analysis.wave_ms", self_ms("analysis.wave"), "ms"},
      {"analysis.work_over_span",
       ratio(ledger.wave_unit_us, ledger.critical_us), "ratio"},
      {"kernel.pointwise_ops", c("kernel.pointwise_ops") / n, "count"},
      {"kernel.pinv_ops", c("kernel.pinv_ops") / n, "count"},
      {"kernel.conv_ops", (c("kernel.conv_ops") + c("kernel.deconv_ops")) / n,
       "count"},
      {"kernel.pointwise_knots", (knots(after) - knots(before)) / n, "count"},
      {"cache.hit_frac", ratio(hits, hits + misses), "ratio"},
      {"ledger.other_frac", ratio(other_us, wall_us), "ratio"},
      {"trace_overhead_frac", ratio(traced.wall_s, untraced.wall_s) - 1.0,
       "ratio"},
      {"loop.client_frac", ratio(untraced.client_us, untraced.wall_s * 1e6),
       "ratio"},
  };
  for (std::size_t b = 0; b < n_buckets().size(); ++b) {
    out.metrics.push_back({n_buckets()[b].second,
                           ratio(bucket_us[b], bucket_requests[b]) / 1000.0,
                           "ms"});
  }

  for (const auto& [layer, us] : ledger.self_us) {
    out.table.emplace_back(layer, ratio(us, wall_us));
  }
  out.table.emplace_back("codec.parse (replayed)", ratio(parse_us * n, wall_us));
  out.table.emplace_back("callers", ratio(traced.client_us, wall_us));
  out.table.emplace_back("other", ratio(other_us, wall_us));
  return out;
}

rta::json::Value metrics_json(const std::vector<Metric>& metrics) {
  rta::json::Value obj{rta::json::Value::Object{}};
  for (const Metric& m : metrics) {
    rta::json::Value v;
    v.set("value", m.value);
    v.set("unit", m.unit);
    obj.set(m.name, std::move(v));
  }
  return obj;
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

/// `--key value` pairs.
using Args = std::map<std::string, std::string>;

std::string arg(const Args& args, const std::string& key,
                const std::string& fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

int run(const Args& args) {
  const std::string name = arg(args, "workload", "");
  const auto seed =
      static_cast<std::uint64_t>(std::strtoull(arg(args, "seed", "1").c_str(),
                                               nullptr, 10));
  const double seconds = std::strtod(arg(args, "seconds", "10").c_str(), nullptr);
  const bool trace = arg(args, "trace", "0") != "0";
  if (make_workload(name, seed) == nullptr || seconds <= 0.0) {
    std::fprintf(stderr, "usage: admission_bench --workload {");
    for (const std::string& w : workload_names()) {
      std::fprintf(stderr, " %s", w.c_str());
    }
    std::fprintf(stderr,
                 " } --seed N --seconds S --trace 0|1 [--result FILE]\n");
    return 2;
  }

  const double calib_start = calib_ms();
  const double cores = effective_cores();
  reset_peak_rss();

  std::vector<double> setup_s;
  std::vector<double> probe_ms;
  const auto time_setup = [&] {
    probe_ms.push_back(speed_probe_ms());
    const std::unique_ptr<Workload> fresh = make_workload(name, seed);
    const Clock::time_point t0 = Clock::now();
    const Service built = build_service(*fresh);
    setup_s.push_back(seconds_since(t0));
  };
  for (int r = 0; r < kSetupRuns; ++r) time_setup();

  const std::unique_ptr<Workload> wl = make_workload(name, seed);
  Service svc = build_service(*wl);
  LoopOptions lo;
  lo.seconds = seconds;
  lo.rss_probe_at = wl->rss_probe_at();
  int pauses = 0;
  lo.between_waves = [&] {
    if (++pauses % kSetupEvery == 0) {
      time_setup();
    } else {
      probe_ms.push_back(speed_probe_ms());
    }
  };
  lo.pause_every_s = kPauseEvery;
  const LoopResult run = run_closed_loop(*wl, svc, lo);
  for (int r = 0; r < kSetupRuns; ++r) time_setup();
  const CheckReport checks = check_outputs(*wl, run);
  const double probe_median_ms = quantile(probe_ms, 0.5);
  const double slowdown = probe_median_ms / kReferenceProbeMs;

  std::size_t failed = 0;
  for (const Completed& c : run.done) failed += c.ok ? 0 : 1;
  const double from_us = kWarmupShare * seconds * 1e6;
  const double to_us = run.done.back().submit_us + 1.0;
  const double trial_us = (to_us - from_us) / kTrials;
  std::map<std::string, std::vector<double>> trials;
  for (int t = 0; t < kTrials; ++t) {
    const double begin_us = from_us + t * trial_us;
    for (const Metric& m : end_to_end(run, begin_us, begin_us + trial_us).first) {
      trials[m.name].push_back(m.value);
    }
  }
  auto [raw, fewest] = end_to_end(run, from_us, to_us);
  raw.push_back({"setup_s", quantile(setup_s, 0.5), "s"});
  raw.push_back({"peak_rss_mb", run.peak_rss_mb, "MB"});
  const std::vector<Metric> e2e = at_reference_speed(raw, slowdown);

  std::vector<std::string> failures = checks.failures;
  if (fewest < kMinPerClass) {
    failures.push_back("a p90 rests on " + std::to_string(fewest) +
                       " samples, fewer than " + std::to_string(kMinPerClass));
  }
  LayerRun layers;
  if (trace) {
    layers = measure_layers(name, seed, run);
    failures.insert(failures.end(), layers.failures.begin(),
                    layers.failures.end());
  }
  const double calib_end = calib_ms();
  if (trace) {
    layers.metrics.push_back(
        {"calib_ms", 0.5 * (calib_start + calib_end), "ms"});
    layers.metrics.push_back({"effective_cores", cores, "count"});
    layers.metrics.push_back({"speed_probe_ms", probe_median_ms, "ms"});
  }

  std::size_t reads = 0;
  for (const Completed& c : run.done) reads += is_read(c.req.op);
  std::printf("workload %s seed %llu: %zu requests (%zu read, %zu mutate) in "
              "%.2f s, %zu failed\n",
              name.c_str(), static_cast<unsigned long long>(seed),
              run.done.size(), reads, run.done.size() - reads, run.wall_s,
              failed);
  std::printf("checks: %zu responses identical to the sequential reference, "
              "%zu decisions re-analyzed, %.1f s, %s\n",
              checks.compared, checks.sampled, checks.seconds,
              failures.empty() ? "ok" : "FAILED");
  for (const std::string& f : failures) std::printf("  FAIL %s\n", f.c_str());
  std::printf("machine: nproc %u, effective cores %.2f, calib %.1f / %.1f ms, "
              "speed probe %.3f ms (median of %zu), slowdown %.3f\n",
              std::thread::hardware_concurrency(), cores, calib_start,
              calib_end, probe_median_ms, probe_ms.size(), slowdown);
  print_metrics("end-to-end, as measured:", raw);
  print_metrics("end-to-end, at the reference speed (reported):", e2e);
  if (trace) {
    print_metrics("per-layer:", layers.metrics);
    std::printf("ledger (self time, share of the traced run's wall time):\n");
    for (const auto& [layer, share] : layers.table) {
      std::printf("  %-28s %6.1f%%\n", layer.c_str(), 100.0 * share);
    }
  }

  const std::vector<Metric>& reported = trace ? layers.metrics : e2e;
  rta::json::Value result;
  result.set("correct", failures.empty());
  result.set("attempted", static_cast<double>(run.done.size()));
  result.set("failed", static_cast<double>(failed));
  result.set("metrics", metrics_json(reported));

  if (const std::string path = arg(args, "result", ""); !path.empty()) {
    rta::json::Value record = result;
    record.set("workload", name);
    record.set("seed", static_cast<double>(seed));
    record.set("seconds", seconds);
    record.set("end_to_end", metrics_json(e2e));
    record.set("end_to_end_as_measured", metrics_json(raw));
    if (trace) record.set("per_layer", metrics_json(layers.metrics));
    rta::json::Value spreads{rta::json::Value::Object{}};
    for (const auto& [metric, values] : trials) {
      rta::json::Value s;
      rta::json::Value::Array arr(values.begin(), values.end());
      s.set("trials", rta::json::Value(std::move(arr)));
      s.set("iqr_over_median", spread(values));
      spreads.set(metric, std::move(s));
    }
    rta::json::Value setup_arr{rta::json::Value::Array(setup_s.begin(),
                                                       setup_s.end())};
    spreads.set("setup_s", rta::json::Value(std::move(setup_arr)));
    record.set("trial_spread", std::move(spreads));
    rta::json::Value machine;
    machine.set("nproc", static_cast<double>(std::thread::hardware_concurrency()));
    machine.set("effective_cores", cores);
    machine.set("calib_ms_start", calib_start);
    machine.set("calib_ms_end", calib_end);
    machine.set("speed_probe_ms", probe_median_ms);
    machine.set("speed_probes", static_cast<double>(probe_ms.size()));
    machine.set("slowdown", slowdown);
    record.set("machine", std::move(machine));
    rta::json::Value chk;
    chk.set("compared", static_cast<double>(checks.compared));
    chk.set("sampled", static_cast<double>(checks.sampled));
    chk.set("seconds", checks.seconds);
    record.set("checks", std::move(chk));
    std::ofstream(path) << record.dump(2) << "\n";
  }
  std::printf("%s\n", result.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::string(argv[i]).rfind("--", 0) != 0) break;
    args[argv[i] + 2] = argv[i + 1];
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "admission_bench: %s\n", e.what());
    return 1;
  }
}
