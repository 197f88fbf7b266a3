#include "service/request_codec.hpp"

#include <charconv>
#include <cmath>
#include <exception>
#include <utility>

#include "io/system_json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_context.hpp"
#include "service/metrics_export.hpp"
#include "util/json_escape.hpp"
#include "util/number_format.hpp"

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

bool outcome_ok(const Outcome& outcome) {
  if (const auto* rd = std::get_if<ReadDecision>(&outcome)) return rd->ok;
  return !std::holds_alternative<ErrorReply>(outcome);
}

std::string response_trace_id(const ParsedRequest& req, int line_no,
                              const std::string& line) {
  return req.trace_id.empty() ? obs::mint_trace_id(line_no, line)
                              : req.trace_id;
}

std::string json_quoted(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  append_json_escaped(out, s);
  out += '"';
  return out;
}

namespace {

/// Append-only writer of compact JSON: field() writes the separator and the
/// key, a value call writes the value's bytes. Field names are the codec's
/// own ASCII identifiers and are copied as is; every string value is
/// escaped. (tools/lint/rta_archcheck.py reads the field() names as the
/// emitted response schema.)
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(out) {}

  void open(char bracket) {
    out_ += bracket;
    first_ = true;
  }
  void close(char bracket) {
    out_ += bracket;
    first_ = false;
  }
  /// Separator before the next object member or array element.
  void next() {
    if (!first_) out_ += ',';
    first_ = false;
  }
  void field(std::string_view k) {
    next();
    out_ += '"';
    out_ += k;
    out_ += "\":";
  }
  /// field() for a key from a payload: escaped like a string value.
  void escaped_field(std::string_view k) {
    next();
    string(k);
    out_ += ':';
  }
  void boolean(bool b) { out_ += b ? "true" : "false"; }
  void number(double v) { append_double(out_, v); }
  /// An int's %.17g bytes: every int has fewer than 17 digits, so printf
  /// prints it as plain digits, exactly what to_chars writes.
  void integer(int v) {
    char buf[16];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out_.append(buf, res.ptr);
  }
  void string(std::string_view s) {
    out_ += '"';
    append_json_escaped(out_, s);
    out_ += '"';
  }
  /// time_value's spelling: "inf" for an unbounded time, else the number.
  void time_or_inf(Time t) {
    if (std::isinf(t)) {
      out_ += "\"inf\"";
    } else {
      number(t);
    }
  }
  void value(const json::Value& v) { v.dump_append(out_); }

 private:
  std::string& out_;
  bool first_ = true;
};

/// The structured "error" member: {"code", "message", "retryable"}.
void write_error(JsonWriter& w, const char* code, std::string_view message,
                 bool retryable) {
  w.field("error");
  w.open('{');
  w.field("code");
  w.string(code);
  w.field("message");
  w.string(message);
  w.field("retryable");
  w.boolean(retryable);
  w.close('}');
}

void write_body(JsonWriter& w, const ReadDecision& rd) {
  w.field("ok");
  w.boolean(rd.ok);
  if (!rd.error.empty()) {
    write_error(w, classify_error(rd.error), rd.error, /*retryable=*/false);
  }
  w.field("admitted");
  w.boolean(rd.admitted);
  w.field("committed");
  w.boolean(rd.committed);
  w.field("incremental");
  w.boolean(rd.incremental);
  w.field("job_id");
  w.number(static_cast<double>(rd.job_id));
  w.field("dirty_subjobs");
  w.integer(rd.dirty_subjobs);
  w.field("total_subjobs");
  w.integer(rd.total_subjobs);
  if (!rd.ok) return;
  w.field("schedulable");
  w.boolean(rd.schedulable);
  w.field("max_wcrt");
  w.time_or_inf(rd.max_wcrt);
  w.field("horizon");
  w.time_or_inf(rd.horizon);
  if (!rd.explain.available) return;
  w.field("explain");
  w.open('{');
  w.field("wcrt");
  w.time_or_inf(rd.explain.wcrt);
  w.field("deadline");
  w.time_or_inf(rd.explain.deadline);
  w.field("dominant_hop");
  w.integer(rd.explain.dominant_hop);
  w.field("doublings");
  w.integer(rd.explain.horizon_doublings);
  w.field("hops");
  w.open('[');
  for (const ExplainHop& eh : rd.explain.hops) {
    w.next();
    w.open('{');
    w.field("hop");
    w.integer(eh.hop);
    w.field("processor");
    w.integer(eh.processor);
    w.field("bound");
    w.time_or_inf(eh.bound);
    w.close('}');
  }
  w.close(']');
  w.close('}');
}

void write_body(JsonWriter& w, const QuerySummary& q) {
  w.field("ok");
  w.boolean(true);
  w.field("jobs");
  w.integer(q.jobs);
  w.field("schedulable");
  w.boolean(q.schedulable);
  w.field("max_wcrt");
  w.time_or_inf(q.max_wcrt);
  w.field("horizon");
  w.time_or_inf(q.horizon);
}

void write_body(JsonWriter& w, const ErrorReply& e) {
  w.field("ok");
  w.boolean(false);
  write_error(w, e.code, e.message, e.retryable);
}

void write_body(JsonWriter& w, const RegionReply& r) {
  w.field("ok");
  w.boolean(true);
  w.field("region");
  w.value(r.region);
}

void write_body(JsonWriter& w, const StatsReply& s) {
  w.field("ok");
  w.boolean(true);
  for (const auto& [k, v] : s.payload.as_object()) {
    w.escaped_field(k);
    w.value(v);
  }
}

}  // namespace

void append_response(std::string& out, int request_no, int line_no,
                     const ParsedRequest& req, const std::string& trace_id,
                     const Outcome& outcome, double latency_us) {
  JsonWriter w(out);
  w.open('{');
  w.field("schema_version");
  w.integer(2);
  w.field("request");
  w.integer(request_no);
  w.field("line");
  w.integer(line_no);
  if (!req.op.empty()) {
    w.field("op");
    w.string(req.op);
  }
  if (req.has_tenant) {
    w.field("tenant");
    w.string(req.tenant);
  }
  w.field("trace_id");
  w.string(trace_id);
  std::visit([&w](const auto& body) { write_body(w, body); }, outcome);
  w.field("latency_us");
  w.number(latency_us);
  w.close('}');
}

Outcome execute_request(AdmissionSession& session, const ParsedRequest& req,
                        bool fast_reads) {
  if (req.op == "admit" || req.op == "what_if") {
    Job job = req.job;
    if (!req.saw_priority) assign_lowest_priorities(session.system(), job);
    if (req.op == "admit") {
      return AdmissionSession::summarize(session.admit(std::move(job)));
    }
    if (fast_reads) return session.read_what_if(std::move(job));
    return AdmissionSession::summarize(session.what_if(std::move(job)));
  }
  if (req.op == "remove") {
    std::uint64_t job_id = req.remove_id;
    if (!req.remove_by_id) {
      const int k = session.system().job_index_by_name(req.remove_name);
      if (k < 0) {
        return ErrorReply{"not_found",
                          "no job named '" + req.remove_name + "'",
                          /*retryable=*/false};
      }
      job_id = session.system().job(k).id;
    }
    return AdmissionSession::summarize(session.remove(job_id));
  }
  if (req.op == "what_if_region") {
    // Read-class sensitivity sweep: probes run on clones of `session`, so
    // the response is a pure function of the committed state and the
    // request -- byte-identical across drivers and widths.
    RegionAnalyzer region(session);
    const RegionResult r = region.run(req.region);
    if (!r.ok) {
      return ErrorReply{classify_error(r.error), r.error,
                        /*retryable=*/false};
    }
    return RegionReply{region_result_value(r)};
  }
  if (req.op == "stats") {
    // Live introspection of the shared MetricsRegistry. The payload is
    // wall-clock-derived (latency quantiles, scrape-time counters), so this
    // is the one verb outside the drivers' byte-identity contract -- except
    // for this deterministic error when no registry is attached.
    obs::MetricsRegistry* metrics = session.config().analysis.observer.metrics;
    if (metrics == nullptr) {
      return ErrorReply{"unavailable",
                        "stats: no metrics registry attached (run serve with "
                        "--stats, --metrics-json or --metrics-prom)",
                        /*retryable=*/false};
    }
    return StatsReply{stats_payload(metrics->snapshot())};
  }
  // query: committed-system summary straight off the retained analysis.
  const AnalysisResult& r = session.last();
  if (!r.ok) {
    return ErrorReply{"internal",
                      r.error.empty() ? "base analysis failed" : r.error,
                      /*retryable=*/false};
  }
  return QuerySummary{session.system().job_count(), r.all_schedulable(),
                      r.max_wcrt(), r.horizon};
}

Executed guarded_execute(AdmissionSession& session, const ParsedRequest& req,
                         bool fast_reads, obs::Tracer* tracer) {
  Executed result;
  try {
    obs::Tracer::Span class_span = obs::Tracer::span_if(
        tracer, req.cls == RequestClass::kMutate ? "service.mutate"
                                                 : "service.read");
    result.outcome = execute_request(session, req, fast_reads);
  } catch (const std::exception& e) {
    result.outcome = ErrorReply{
        "internal", std::string("request failed: ") + e.what(),
        /*retryable=*/false};
    result.failed = true;
  } catch (...) {
    result.outcome = ErrorReply{"internal",
                                "request failed: unknown exception",
                                /*retryable=*/false};
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
