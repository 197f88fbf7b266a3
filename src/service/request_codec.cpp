#include "service/request_codec.hpp"

#include <exception>
#include <utility>

#include "io/system_json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_context.hpp"
#include "service/metrics_export.hpp"

namespace rta::service::detail {

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Map a session / region error message onto a stable v2 code. The strings
/// are the codec's own deterministic vocabulary, so prefix matching is
/// exact, not heuristic.
const char* classify_error(const std::string& message) {
  if (starts_with(message, "duplicate job id")) return "conflict";
  if (starts_with(message, "no job with id") ||
      starts_with(message, "no job named")) {
    return "not_found";
  }
  return "invalid_argument";
}

/// Parse one axis object of a what_if_region request. Errors mirror the
/// parse_request style ("bad axis: ...") and are deterministic.
bool parse_region_axis(const json::Value& value, RegionAxis& axis,
                       std::string& error) {
  if (!value.is_object()) {
    error = "axis is not an object";
    return false;
  }
  const json::Value* param = value.find("param");
  if (param == nullptr || !param->is_string()) {
    error = "axis needs a string 'param'";
    return false;
  }
  const std::optional<RegionParam> p = parse_region_param(param->as_string());
  if (!p) {
    error = "unknown param '" + param->as_string() +
            "' (exec_scale, burst, rate_scale)";
    return false;
  }
  axis.param = *p;
  axis.scope = RegionScope::kJob;
  if (const json::Value* scope = value.find("scope"); scope != nullptr) {
    if (!scope->is_string()) {
      error = "axis 'scope' must be a string";
      return false;
    }
    const std::optional<RegionScope> s = parse_region_scope(scope->as_string());
    if (!s) {
      error = "unknown scope '" + scope->as_string() +
              "' (job, processor, global)";
      return false;
    }
    axis.scope = *s;
  }
  if (const json::Value* proc = value.find("processor"); proc != nullptr) {
    if (!proc->is_number()) {
      error = "axis 'processor' must be a number";
      return false;
    }
    const auto processor =
        json::checked_integer(*proc, json::kIntMin, json::kIntMax);
    if (!processor) {
      error = "axis 'processor' must be an integer in the int range";
      return false;
    }
    axis.processor = static_cast<int>(*processor);
  }
  region_default_bracket(axis.param, axis.lo, axis.hi);
  if (const json::Value* lo = value.find("lo"); lo != nullptr) {
    if (!lo->is_number()) {
      error = "axis 'lo' must be a number";
      return false;
    }
    axis.lo = lo->as_number();
  }
  if (const json::Value* hi = value.find("hi"); hi != nullptr) {
    if (!hi->is_number()) {
      error = "axis 'hi' must be a number";
      return false;
    }
    axis.hi = hi->as_number();
  }
  return true;
}

}  // namespace

void set_error(json::Value& response, const char* code,
               const std::string& message, bool retryable) {
  response.set("ok", false);
  json::Value err{json::Value::Object{}};
  err.set("code", code);
  err.set("message", message);
  err.set("retryable", retryable);
  response.set("error", std::move(err));
}

bool is_skipped_line(const std::string& line) {
  const std::size_t first = line.find_first_not_of(" \t\r");
  return first == std::string::npos || line[first] == '#';
}

ParsedRequest parse_request(const std::string& line) {
  ParsedRequest req;
  auto immediate = [&](std::string message) {
    req.cls = RequestClass::kImmediate;
    req.error = std::move(message);
    return req;
  };

  const json::ParseResult doc = json::parse(line);
  if (!doc.ok) return immediate("bad request json: " + doc.error);
  const json::Value* trace = doc.value.find("trace_id");
  if (trace != nullptr && trace->is_string()) req.trace_id = trace->as_string();
  if (const json::Value* tenant = doc.value.find("tenant"); tenant != nullptr) {
    if (!tenant->is_string() || tenant->as_string().empty()) {
      return immediate("field 'tenant' must be a non-empty string");
    }
    req.tenant = tenant->as_string();
    req.has_tenant = true;
  }
  const json::Value* op = doc.value.find("op");
  if (op == nullptr || !op->is_string()) {
    return immediate("missing string 'op'");
  }
  req.op = op->as_string();

  if (req.op == "admit" || req.op == "what_if") {
    const json::Value* jv = doc.value.find("job");
    std::string error;
    if (jv == nullptr) return immediate("missing 'job'");
    if (!parse_job_json(*jv, req.job, error, &req.saw_priority)) {
      return immediate("bad job: " + error);
    }
    req.cls =
        req.op == "admit" ? RequestClass::kMutate : RequestClass::kRead;
    return req;
  }
  if (req.op == "remove") {
    const json::Value* id = doc.value.find("job_id");
    const json::Value* name = doc.value.find("name");
    if (id != nullptr && id->is_number() && id->as_number() >= 0.0) {
      const auto checked =
          json::checked_integer(*id, 0, json::kMaxExactInteger);
      if (!checked) {
        return immediate("field 'job_id' must be an integer in [0, 2^53]");
      }
      req.remove_by_id = true;
      req.remove_id = static_cast<std::uint64_t>(*checked);
    } else if (name != nullptr && name->is_string()) {
      req.remove_name = name->as_string();
    } else {
      return immediate("remove needs 'job_id' or 'name'");
    }
    req.cls = RequestClass::kMutate;
    return req;
  }
  if (req.op == "what_if_region") {
    if (const json::Value* target = doc.value.find("target");
        target != nullptr && target->is_string()) {
      req.region.target = target->as_string();
    }
    const json::Value* axes = doc.value.find("axes");
    if (axes == nullptr || !axes->is_array() || axes->as_array().empty()) {
      return immediate("what_if_region needs a non-empty 'axes' array");
    }
    std::string error;
    for (const json::Value& av : axes->as_array()) {
      RegionAxis axis;
      if (!parse_region_axis(av, axis, error)) {
        return immediate("bad axis: " + error);
      }
      req.region.axes.push_back(axis);
    }
    if (const json::Value* tol = doc.value.find("tolerance");
        tol != nullptr && tol->is_number()) {
      req.region.tolerance = tol->as_number();
    }
    if (const json::Value* cols = doc.value.find("columns");
        cols != nullptr && cols->is_number()) {
      const auto columns =
          json::checked_integer(*cols, json::kIntMin, json::kIntMax);
      if (!columns) {
        return immediate("field 'columns' must be an integer in the int range");
      }
      req.region.columns = static_cast<int>(*columns);
    }
    req.cls = RequestClass::kRead;
    return req;
  }
  if (req.op == "query" || req.op == "stats") {
    req.cls = RequestClass::kRead;
    return req;
  }
  return immediate("unknown op '" + req.op +
                   "' (admit, what_if, what_if_region, remove, query, stats)");
}

std::string open_envelope(json::Value& response, int request_no, int line_no,
                          const ParsedRequest& req, const std::string& line) {
  response.set("schema_version", 2);
  response.set("request", request_no);
  response.set("line", line_no);
  if (!req.op.empty()) response.set("op", req.op);
  if (req.has_tenant) response.set("tenant", req.tenant);
  std::string trace_id =
      req.trace_id.empty() ? obs::mint_trace_id(line_no, line) : req.trace_id;
  response.set("trace_id", trace_id);
  return trace_id;
}

void read_decision_into(json::Value& response, const ReadDecision& rd) {
  response.set("ok", rd.ok);
  if (!rd.error.empty()) {
    json::Value err{json::Value::Object{}};
    err.set("code", classify_error(rd.error));
    err.set("message", rd.error);
    err.set("retryable", false);
    response.set("error", std::move(err));
  }
  response.set("admitted", rd.admitted);
  response.set("committed", rd.committed);
  response.set("incremental", rd.incremental);
  response.set("job_id", static_cast<double>(rd.job_id));
  response.set("dirty_subjobs", rd.dirty_subjobs);
  response.set("total_subjobs", rd.total_subjobs);
  if (rd.ok) {
    response.set("schedulable", rd.schedulable);
    response.set("max_wcrt", time_value(rd.max_wcrt));
    response.set("horizon", time_value(rd.horizon));
  }
  if (rd.ok && rd.explain.available) {
    json::Value hops{json::Value::Array{}};
    for (const ExplainHop& eh : rd.explain.hops) {
      json::Value hop{json::Value::Object{}};
      hop.set("hop", eh.hop);
      hop.set("processor", eh.processor);
      hop.set("bound", time_value(eh.bound));
      hops.as_array().push_back(std::move(hop));
    }
    json::Value explain{json::Value::Object{}};
    explain.set("wcrt", time_value(rd.explain.wcrt));
    explain.set("deadline", time_value(rd.explain.deadline));
    explain.set("dominant_hop", rd.explain.dominant_hop);
    explain.set("doublings", rd.explain.horizon_doublings);
    explain.set("hops", std::move(hops));
    response.set("explain", std::move(explain));
  }
}

bool execute_request(AdmissionSession& session, const ParsedRequest& req,
                     json::Value& response, bool fast_reads) {
  if (req.op == "admit" || req.op == "what_if") {
    Job job = req.job;
    if (!req.saw_priority) assign_lowest_priorities(session.system(), job);
    ReadDecision rd;
    if (req.op == "admit") {
      rd = AdmissionSession::summarize(session.admit(std::move(job)));
    } else if (fast_reads) {
      rd = session.read_what_if(std::move(job));
    } else {
      rd = AdmissionSession::summarize(session.what_if(std::move(job)));
    }
    read_decision_into(response, rd);
    return rd.ok;
  }
  if (req.op == "remove") {
    std::uint64_t job_id = req.remove_id;
    if (!req.remove_by_id) {
      const int k = session.system().job_index_by_name(req.remove_name);
      if (k < 0) {
        set_error(response, "not_found",
                  "no job named '" + req.remove_name + "'",
                  /*retryable=*/false);
        return false;
      }
      job_id = session.system().job(k).id;
    }
    const ReadDecision rd = AdmissionSession::summarize(session.remove(job_id));
    read_decision_into(response, rd);
    return rd.ok;
  }
  if (req.op == "what_if_region") {
    // Read-class sensitivity sweep: probes run on clones of `session`, so
    // the response is a pure function of the committed state and the
    // request -- byte-identical across drivers and widths.
    RegionAnalyzer region(session);
    const RegionResult r = region.run(req.region);
    if (!r.ok) {
      set_error(response, classify_error(r.error), r.error,
                /*retryable=*/false);
      return false;
    }
    response.set("ok", true);
    response.set("region", region_result_value(r));
    return true;
  }
  if (req.op == "stats") {
    // Live introspection of the shared MetricsRegistry. The payload is
    // wall-clock-derived (latency quantiles, scrape-time counters), so this
    // is the one verb outside the drivers' byte-identity contract -- except
    // for this deterministic error when no registry is attached.
    obs::MetricsRegistry* metrics = session.config().analysis.observer.metrics;
    if (metrics == nullptr) {
      set_error(response, "unavailable",
                "stats: no metrics registry attached (run serve with "
                "--stats, --metrics-json or --metrics-prom)",
                /*retryable=*/false);
      return false;
    }
    response.set("ok", true);
    const json::Value payload = stats_payload(metrics->snapshot());
    for (const auto& [key, value] : payload.as_object()) {
      response.set(key, value);
    }
    return true;
  }
  // query: committed-system summary straight off the retained analysis.
  const AnalysisResult& r = session.last();
  if (!r.ok) {
    set_error(response, "internal",
              r.error.empty() ? "base analysis failed" : r.error,
              /*retryable=*/false);
    return false;
  }
  response.set("ok", true);
  response.set("jobs", session.system().job_count());
  response.set("schedulable", r.all_schedulable());
  response.set("max_wcrt", time_value(r.max_wcrt()));
  response.set("horizon", time_value(r.horizon));
  return true;
}

Executed guarded_execute(AdmissionSession& session, const ParsedRequest& req,
                         json::Value& response, bool fast_reads,
                         obs::Tracer* tracer) {
  Executed result;
  try {
    obs::Tracer::Span class_span = obs::Tracer::span_if(
        tracer, req.cls == RequestClass::kMutate ? "service.mutate"
                                                 : "service.read");
    result.ok = execute_request(session, req, response, fast_reads);
  } catch (const std::exception& e) {
    set_error(response, "internal", std::string("request failed: ") + e.what(),
              /*retryable=*/false);
    result.failed = true;
  } catch (...) {
    set_error(response, "internal", "request failed: unknown exception",
              /*retryable=*/false);
    result.failed = true;
  }
  return result;
}

double micros_since(std::chrono::steady_clock::time_point since) {
  const std::chrono::duration<double, std::micro> us =
      std::chrono::steady_clock::now() - since;
  return us.count();
}

}  // namespace rta::service::detail
