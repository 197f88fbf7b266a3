#include "service/region.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "analysis/bounds.hpp"
#include "analysis/result.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/number_format.hpp"
#include "util/thread_pool.hpp"

namespace rta {

namespace {

/// Multiply every hop of `job` by the scale factor.
void scale_exec_job(Job& job, double v) {
  for (Subjob& s : job.chain) s.exec_time *= v;
}

/// Compress inter-arrival gaps toward the first release: t' = t1 + (t-t1)/v.
/// v > 1 packs releases tighter (a rate increase); v < 1 stretches them.
void compress_rate(Job& job, double v) {
  const std::vector<Time>& rel = job.arrivals.releases();
  if (rel.size() < 2) return;
  std::vector<Time> out;
  out.reserve(rel.size());
  const Time t1 = rel.front();
  for (const Time t : rel) out.push_back(t1 + (t - t1) / v);
  job.arrivals = ArrivalSequence(std::move(out));
}

/// Inject floor(v) extra releases at the first release instant: the
/// leaky-bucket worst case of `burst` simultaneous arrivals.
void inject_burst(Job& job, double v) {
  const auto b = static_cast<std::size_t>(std::floor(v));
  if (b == 0 || job.arrivals.empty()) return;
  const std::vector<Time>& rel = job.arrivals.releases();
  std::vector<Time> out;
  out.reserve(rel.size() + b);
  out.insert(out.end(), b, rel.front());
  out.insert(out.end(), rel.begin(), rel.end());
  job.arrivals = ArrivalSequence(std::move(out));
}

/// Apply one kJob-scoped axis to the target job.
void transform_target(Job& job, const RegionAxis& axis, double v) {
  switch (axis.param) {
    case RegionParam::kExecScale:
      scale_exec_job(job, v);
      return;
    case RegionParam::kRateScale:
      compress_rate(job, v);
      return;
    case RegionParam::kBurst:
      inject_burst(job, v);
      return;
  }
}

/// Preformatted probe-span args, e.g. {"values": [1.5, 2]}.
std::string probe_args(const std::vector<double>& values) {
  std::string s = "{\"values\": [";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) s += ", ";
    append_double(s, values[i]);
  }
  s += "]}";
  return s;
}

}  // namespace

const char* region_param_name(RegionParam param) {
  switch (param) {
    case RegionParam::kExecScale: return "exec_scale";
    case RegionParam::kBurst: return "burst";
    case RegionParam::kRateScale: return "rate_scale";
  }
  return "?";
}

const char* region_scope_name(RegionScope scope) {
  switch (scope) {
    case RegionScope::kJob: return "job";
    case RegionScope::kProcessor: return "processor";
    case RegionScope::kGlobal: return "global";
  }
  return "?";
}

std::optional<RegionParam> parse_region_param(const std::string& name) {
  if (name == "exec_scale") return RegionParam::kExecScale;
  if (name == "burst") return RegionParam::kBurst;
  if (name == "rate_scale") return RegionParam::kRateScale;
  return std::nullopt;
}

std::optional<RegionScope> parse_region_scope(const std::string& name) {
  if (name == "job") return RegionScope::kJob;
  if (name == "processor") return RegionScope::kProcessor;
  if (name == "global") return RegionScope::kGlobal;
  return std::nullopt;
}

void region_default_bracket(RegionParam param, double& lo, double& hi) {
  if (param == RegionParam::kBurst) {
    lo = 0.0;
    hi = 32.0;
  } else {
    lo = 1.0;
    hi = 8.0;
  }
}

/// One column's probe executor: either an incremental session with the
/// target removed (all-kJob queries) or a retained full analyzer over
/// transformed copies of the base system. Single-owner, like the session.
struct RegionAnalyzer::Prober {
  // Incremental path.
  std::unique_ptr<service::AdmissionSession> probe_session;
  Job target;
  // Full-system path.
  const System* base = nullptr;
  std::unique_ptr<BoundsAnalyzer> full;

  const RegionQuery* query = nullptr;
  obs::Counter counter;
  obs::Tracer* tracer = nullptr;
  int probes = 0;
  int incremental = 0;
  std::string error;  ///< first probe failure; poisons the query

  /// Feasibility of the system transformed by `values` (one per axis).
  /// False with `error` set when the probe itself could not run.
  bool probe(const std::vector<double>& values) {
    ++probes;
    counter.inc();
    obs::Tracer::Span span = obs::Tracer::span_if(
        tracer, "region.probe",
        tracer != nullptr ? probe_args(values) : std::string());
    bool feasible = false;
    if (probe_session != nullptr) {
      Job cand = target;
      for (std::size_t i = 0; i < query->axes.size(); ++i) {
        transform_target(cand, query->axes[i], values[i]);
      }
      const service::Decision d = probe_session->what_if(std::move(cand));
      if (!d.ok) {
        error = d.error;
        return false;
      }
      if (d.incremental) ++incremental;
      feasible = d.admitted;
    } else {
      System sys;
      if (!RegionAnalyzer::apply_axes(*base, *query, values, sys, error)) {
        return false;
      }
      const AnalysisResult r = full->analyze(sys);
      if (!r.ok) {
        error = r.error;
        return false;
      }
      feasible = r.all_schedulable();
    }
    span.annotate(feasible ? "{\"feasible\": true}" : "{\"feasible\": false}");
    return feasible;
  }
};

RegionAnalyzer::RegionAnalyzer(System base, service::SessionConfig config) {
  // Pin the horizon so probe edits never shift it and every probe can take
  // the incremental path (admission_session.hpp).
  if (config.analysis.horizon <= 0.0) {
    config.analysis.horizon = default_horizon(base, config.analysis);
  }
  owned_ =
      std::make_unique<service::AdmissionSession>(std::move(base), config);
  session_ = owned_.get();
}

RegionAnalyzer::RegionAnalyzer(const service::AdmissionSession& session)
    : session_(&session) {}

RegionAnalyzer::~RegionAnalyzer() = default;

bool RegionAnalyzer::validate(RegionQuery& query, std::string& error) const {
  const System& sys = session_->system();
  if (query.axes.empty() || query.axes.size() > 2) {
    error = "region needs 1 or 2 axes";
    return false;
  }
  if (!(query.tolerance > 0.0)) query.tolerance = 1e-3;
  bool needs_target = false;
  for (RegionAxis& axis : query.axes) {
    if (!std::isfinite(axis.lo) || !std::isfinite(axis.hi) ||
        !(axis.lo <= axis.hi)) {
      error = "region axis needs finite lo <= hi";
      return false;
    }
    switch (axis.param) {
      case RegionParam::kExecScale:
        if (!(axis.lo > 0.0)) {
          error = "exec_scale lo must be > 0";
          return false;
        }
        break;
      case RegionParam::kRateScale:
        if (!(axis.lo > 0.0)) {
          error = "rate_scale lo must be > 0";
          return false;
        }
        if (axis.scope == RegionScope::kProcessor) {
          error = "rate_scale scope must be job or global";
          return false;
        }
        break;
      case RegionParam::kBurst:
        if (axis.scope != RegionScope::kJob) {
          error = "burst scope must be job";
          return false;
        }
        axis.lo = std::floor(axis.lo);
        axis.hi = std::floor(axis.hi);
        if (axis.lo < 0.0) {
          error = "burst lo must be >= 0";
          return false;
        }
        break;
    }
    if (axis.scope == RegionScope::kProcessor) {
      if (axis.processor < 0 || axis.processor >= sys.processor_count()) {
        error = "region axis processor out of range";
        return false;
      }
    } else {
      axis.processor = -1;
      if (axis.scope == RegionScope::kJob) needs_target = true;
    }
  }
  if (query.axes.size() == 2) {
    if (query.columns < 2 || query.columns > 256) {
      error = "2-D region needs 2 <= columns <= 256";
      return false;
    }
  }
  if (needs_target) {
    if (query.target.empty()) {
      error = "region needs a 'target' job for job-scoped axes";
      return false;
    }
    if (sys.job_index_by_name(query.target) < 0) {
      error = "no job named '" + query.target + "'";
      return false;
    }
  }
  return true;
}

RegionBoundary RegionAnalyzer::bisect(const RegionQuery& query,
                                      std::size_t axis_index,
                                      const std::vector<double>& fixed,
                                      Prober& prober) const {
  const RegionAxis& axis = query.axes[axis_index];
  const bool integral = axis.param == RegionParam::kBurst;
  RegionBoundary b;
  auto probe = [&](double v) {
    std::vector<double> values = fixed;
    values.push_back(v);
    ++b.probes;
    return prober.probe(values);
  };
  // The feasible set is downward-closed (monotone parameters), so two
  // bracket probes classify the region and bisection does the rest. Every
  // reported endpoint carries a certified probe verdict.
  if (!probe(axis.lo)) {
    b.empty = prober.error.empty();
    b.infeasible = axis.lo;
    return b;
  }
  b.feasible = axis.lo;
  if (probe(axis.hi)) {
    b.open = prober.error.empty();
    b.feasible = axis.hi;
    return b;
  }
  if (!prober.error.empty()) return b;
  b.infeasible = axis.hi;
  for (int iter = 0; iter < 64; ++iter) {
    const double gap = b.infeasible - b.feasible;
    if (integral ? gap <= 1.0 : gap <= query.tolerance) break;
    const double mid = integral
                           ? std::floor(0.5 * (b.feasible + b.infeasible))
                           : 0.5 * (b.feasible + b.infeasible);
    if (!(mid > b.feasible) || !(mid < b.infeasible)) break;  // fp exhausted
    if (probe(mid)) {
      b.feasible = mid;
    } else {
      b.infeasible = mid;
    }
    if (!prober.error.empty()) break;
  }
  return b;
}

RegionResult RegionAnalyzer::run(const RegionQuery& query) {
  RegionResult result;
  result.query = query;
  std::string error;
  if (!validate(result.query, error)) {
    result.error = std::move(error);
    return result;
  }
  if (!session_->last().ok) {
    result.error = "base analysis failed: " + session_->last().error;
    return result;
  }
  const RegionQuery& q = result.query;
  const service::SessionConfig& cfg = session_->config();
  obs::Tracer* tracer = cfg.analysis.observer.tracer;
  obs::MetricsRegistry* metrics = cfg.analysis.observer.metrics;
  obs::Counter counter;
  if (metrics != nullptr) counter = metrics->counter("service.region_probes");
  obs::Tracer::Span span = obs::Tracer::span_if(
      tracer, "service.region",
      tracer != nullptr
          ? "{\"axes\": " + std::to_string(q.axes.size()) + "}"
          : std::string());

  result.horizon = session_->last().horizon;

  bool all_job_scoped = true;
  for (const RegionAxis& axis : q.axes) {
    if (axis.scope != RegionScope::kJob) all_job_scoped = false;
  }

  // Incremental probe base: committed clone with the target removed, so a
  // probe is one what_if of the transformed target (dirty closure only) and
  // the bound session stays untouched.
  std::unique_ptr<service::AdmissionSession> probe_base;
  Job target;
  if (all_job_scoped) {
    const int k = session_->system().job_index_by_name(q.target);
    target = session_->system().job(k);
    probe_base = session_->clone_committed();
    const service::Decision removed = probe_base->remove(target.id);
    if (!removed.ok) {
      result.error = removed.error;
      return result;
    }
  }

  // A 2-D column already runs on the column pool, so its full-system
  // analyzer is serial: no pool starts inside a pooled grain.
  auto make_prober = [&](bool column) {
    Prober p;
    p.query = &q;
    p.counter = counter;
    p.tracer = tracer;
    if (all_job_scoped) {
      p.target = target;
      p.probe_session =
          column ? probe_base->clone_committed() : std::move(probe_base);
    } else {
      p.base = &session_->system();
      AnalysisConfig analysis = cfg.analysis;
      if (column) analysis.threads = 1;
      p.full = std::make_unique<BoundsAnalyzer>(analysis);
    }
    return p;
  };

  if (q.axes.size() == 1) {
    Prober p = make_prober(/*column=*/false);
    result.boundary = bisect(q, 0, {}, p);
    result.probes = p.probes;
    result.incremental_probes = p.incremental;
    if (!p.error.empty()) {
      result.error = std::move(p.error);
      return result;
    }
    result.ok = true;
    span.annotate("{\"probes\": " + std::to_string(result.probes) + "}");
    return result;
  }

  // 2-D: grid axis 0, bisect axis 1 per column. Columns are independent
  // and each owns its session snapshot, so the pool fan-out is
  // byte-identical to running them in sequence.
  const std::size_t n = static_cast<std::size_t>(q.columns);
  const RegionAxis& a0 = q.axes[0];
  result.columns.resize(n);
  std::vector<Prober> probers;
  probers.reserve(n);
  const double step = (a0.hi - a0.lo) / static_cast<double>(n - 1);
  for (std::size_t c = 0; c < n; ++c) {
    double v = c + 1 == n ? a0.hi : a0.lo + static_cast<double>(c) * step;
    if (a0.param == RegionParam::kBurst) v = std::floor(v);
    result.columns[c].value = v;
    probers.push_back(make_prober(/*column=*/true));
  }

  const std::size_t workers =
      std::min(resolve_workers(cfg.analysis.threads), n);
  std::unique_ptr<ThreadPool> pool;
  if (workers > 1) pool = std::make_unique<ThreadPool>(workers);
  for_each_index(pool.get(), n, [&](std::size_t c) {
    result.columns[c].boundary =
        bisect(q, 1, {result.columns[c].value}, probers[c]);
  });

  for (Prober& p : probers) {
    result.probes += p.probes;
    result.incremental_probes += p.incremental;
    if (result.error.empty() && !p.error.empty()) result.error = p.error;
  }
  if (!result.error.empty()) return result;
  result.ok = true;
  span.annotate("{\"probes\": " + std::to_string(result.probes) + "}");
  return result;
}

bool RegionAnalyzer::apply_axes(const System& base, const RegionQuery& query,
                                const std::vector<double>& values, System& out,
                                std::string& error) {
  if (values.size() != query.axes.size()) {
    error = "one value per region axis required";
    return false;
  }
  out = base;
  int target = -1;
  for (std::size_t i = 0; i < query.axes.size(); ++i) {
    const RegionAxis& axis = query.axes[i];
    const double v = values[i];
    if (axis.scope == RegionScope::kJob) {
      if (target < 0) {
        target = out.job_index_by_name(query.target);
        if (target < 0) {
          error = "no job named '" + query.target + "'";
          return false;
        }
      }
      transform_target(out.job(target), axis, v);
      continue;
    }
    switch (axis.param) {
      case RegionParam::kExecScale:
        for (int k = 0; k < out.job_count(); ++k) {
          for (Subjob& s : out.job(k).chain) {
            if (axis.scope == RegionScope::kGlobal ||
                s.processor == axis.processor) {
              s.exec_time *= v;
            }
          }
        }
        break;
      case RegionParam::kRateScale:  // kGlobal; validate() rejects the rest
        for (int k = 0; k < out.job_count(); ++k) {
          compress_rate(out.job(k), v);
        }
        break;
      case RegionParam::kBurst:
        error = "burst axis requires job scope";
        return false;
    }
  }
  return true;
}

namespace {

json::Value region_axis_value(const RegionAxis& axis) {
  json::Value v{json::Value::Object{}};
  v.set("param", region_param_name(axis.param));
  v.set("scope", region_scope_name(axis.scope));
  if (axis.scope == RegionScope::kProcessor) v.set("processor", axis.processor);
  v.set("lo", axis.lo);
  v.set("hi", axis.hi);
  return v;
}

json::Value region_boundary_value(const RegionBoundary& b) {
  json::Value v{json::Value::Object{}};
  v.set("empty", b.empty);
  v.set("open", b.open);
  if (!b.empty) v.set("feasible", b.feasible);
  if (!b.open) v.set("infeasible", b.infeasible);
  v.set("probes", b.probes);
  return v;
}

}  // namespace

json::Value region_result_value(const RegionResult& result) {
  json::Value v{json::Value::Object{}};
  if (!result.query.target.empty()) v.set("target", result.query.target);
  v.set("horizon", result.horizon);
  v.set("tolerance", result.query.tolerance);
  json::Value axes{json::Value::Array{}};
  for (const RegionAxis& axis : result.query.axes) {
    axes.as_array().push_back(region_axis_value(axis));
  }
  v.set("axes", std::move(axes));
  v.set("probes", result.probes);
  v.set("incremental_probes", result.incremental_probes);
  if (result.columns.empty()) {
    v.set("boundary", region_boundary_value(result.boundary));
  } else {
    json::Value columns{json::Value::Array{}};
    for (const RegionColumn& col : result.columns) {
      json::Value cv{json::Value::Object{}};
      cv.set("value", col.value);
      cv.set("boundary", region_boundary_value(col.boundary));
      columns.as_array().push_back(std::move(cv));
    }
    v.set("columns", std::move(columns));
  }
  return v;
}

}  // namespace rta
