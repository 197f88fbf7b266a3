#include "io/system_json.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "io/json.hpp"

namespace rta {

json::Value time_value(Time t) {
  if (std::isinf(t)) return json::Value("inf");
  return json::Value(t);
}

namespace {

bool read_time(const json::Value& v, Time& out) {
  if (v.is_number()) {
    out = v.as_number();
    return true;
  }
  if (v.is_string() && v.as_string() == "inf") {
    out = kTimeInfinity;
    return true;
  }
  return false;
}

/// Checks the envelope: an object whose "schema_version" equals ours.
bool check_schema(const json::Value& root, std::string& error) {
  if (!root.is_object()) {
    error = "document is not a JSON object";
    return false;
  }
  const json::Value* ver = root.find("schema_version");
  if (ver == nullptr || !ver->is_number()) {
    error = "missing numeric 'schema_version'";
    return false;
  }
  const auto version =
      json::checked_integer(*ver, json::kIntMin, json::kIntMax);
  if (!version) {
    error = "'schema_version' must be an integer in the int range";
    return false;
  }
  if (*version != kSystemJsonSchemaVersion) {
    error = "unsupported schema_version " + std::to_string(*version) +
            " (supported: " + std::to_string(kSystemJsonSchemaVersion) + ")";
    return false;
  }
  return true;
}

const json::Value* require(const json::Value& obj, const char* key,
                           json::Value::Kind kind, std::string& error) {
  const json::Value* v = obj.find(key);
  if (v == nullptr || v->kind() != kind) {
    error = std::string("missing or mistyped '") + key + "'";
    return nullptr;
  }
  return v;
}

}  // namespace

bool parse_job_json(const json::Value& value, Job& out, std::string& error,
                    bool* saw_priority) {
  using json::Value;
  if (saw_priority != nullptr) *saw_priority = false;
  if (!value.is_object()) {
    error = "job is not an object";
    return false;
  }
  Job job;
  const Value* name = require(value, "name", Value::Kind::kString, error);
  const Value* deadline =
      require(value, "deadline", Value::Kind::kNumber, error);
  const Value* chain = require(value, "chain", Value::Kind::kArray, error);
  const Value* arrivals =
      require(value, "arrivals", Value::Kind::kArray, error);
  if (name == nullptr || deadline == nullptr || chain == nullptr ||
      arrivals == nullptr) {
    return false;
  }
  job.name = name->as_string();
  job.deadline = deadline->as_number();
  if (job.deadline <= 0.0) {
    error = "deadline must be > 0";
    return false;
  }
  if (const Value* id = value.find("id"); id != nullptr) {
    if (!id->is_number() || id->as_number() < 0.0) {
      error = "'id' must be a nonnegative number";
      return false;
    }
    const auto checked = json::checked_integer(*id, 0, json::kMaxExactInteger);
    if (!checked) {
      error = "'id' must be an integer in [0, 2^53]";
      return false;
    }
    job.id = static_cast<std::uint64_t>(*checked);
  }
  for (std::size_t h = 0; h < chain->as_array().size(); ++h) {
    const Value& hv = chain->as_array()[h];
    const std::string where = "chain[" + std::to_string(h) + "]";
    if (!hv.is_object()) {
      error = where + " is not an object";
      return false;
    }
    Subjob sub;
    const Value* proc = require(hv, "processor", Value::Kind::kNumber, error);
    const Value* exec = require(hv, "exec", Value::Kind::kNumber, error);
    if (proc == nullptr || exec == nullptr) {
      error = where + ": " + error;
      return false;
    }
    const auto processor =
        json::checked_integer(*proc, json::kIntMin, json::kIntMax);
    if (!processor) {
      error = where + ": 'processor' must be an integer in the int range";
      return false;
    }
    sub.processor = static_cast<int>(*processor);
    sub.exec_time = exec->as_number();
    if (sub.exec_time <= 0.0) {
      error = where + ": exec must be > 0";
      return false;
    }
    if (const Value* prio = hv.find("priority"); prio != nullptr) {
      if (!prio->is_number()) {
        error = where + ": 'priority' must be a number";
        return false;
      }
      const auto priority =
          json::checked_integer(*prio, json::kIntMin, json::kIntMax);
      if (!priority) {
        error = where + ": 'priority' must be an integer in the int range";
        return false;
      }
      sub.priority = static_cast<int>(*priority);
      if (saw_priority != nullptr) *saw_priority = true;
    }
    job.chain.push_back(sub);
  }
  if (job.chain.empty()) {
    error = "'chain' must be non-empty";
    return false;
  }
  std::vector<Time> releases;
  for (std::size_t a = 0; a < arrivals->as_array().size(); ++a) {
    const Value& av = arrivals->as_array()[a];
    if (!av.is_number()) {
      error = "arrivals[" + std::to_string(a) + "] is not a number";
      return false;
    }
    releases.push_back(av.as_number());
  }
  if (releases.empty()) {
    error = "'arrivals' must be non-empty";
    return false;
  }
  for (std::size_t a = 1; a < releases.size(); ++a) {
    if (releases[a] < releases[a - 1]) {
      error = "arrivals must be nondecreasing";
      return false;
    }
  }
  if (releases.front() < 0.0) {
    error = "negative release time";
    return false;
  }
  job.arrivals = ArrivalSequence(std::move(releases));
  out = std::move(job);
  return true;
}

std::string to_system_json(const System& system) {
  using json::Value;
  Value root;
  root.set("schema_version", kSystemJsonSchemaVersion);

  Value::Array processors;
  for (int p = 0; p < system.processor_count(); ++p) {
    Value proc;
    proc.set("scheduler", to_string(system.scheduler(p)));
    processors.push_back(std::move(proc));
  }
  root.set("processors", Value(std::move(processors)));

  Value::Array jobs;
  for (int k = 0; k < system.job_count(); ++k) {
    jobs.push_back(job_to_json(system.job(k)));
  }
  root.set("jobs", Value(std::move(jobs)));
  return root.dump(2) + "\n";
}

json::Value job_to_json(const Job& job) {
  using json::Value;
  Value out;
  out.set("id", static_cast<double>(job.id));
  out.set("name", job.name);
  out.set("deadline", job.deadline);
  Value::Array chain;
  for (const Subjob& s : job.chain) {
    Value hop;
    hop.set("processor", s.processor);
    hop.set("exec", s.exec_time);
    hop.set("priority", s.priority);
    chain.push_back(std::move(hop));
  }
  out.set("chain", Value(std::move(chain)));
  Value::Array arrivals;
  for (Time t : job.arrivals.releases()) arrivals.push_back(Value(t));
  out.set("arrivals", Value(std::move(arrivals)));
  return out;
}

ParsedSystem parse_system_json(const std::string& text) {
  using json::Value;
  ParsedSystem result;

  const json::ParseResult doc = json::parse(text);
  if (!doc.ok) {
    result.error = "json: " + doc.error;
    return result;
  }
  if (!check_schema(doc.value, result.error)) return result;

  const Value* processors =
      require(doc.value, "processors", Value::Kind::kArray, result.error);
  if (processors == nullptr) return result;
  if (processors->as_array().empty()) {
    result.error = "'processors' must be non-empty";
    return result;
  }

  System system(static_cast<int>(processors->as_array().size()));
  for (std::size_t p = 0; p < processors->as_array().size(); ++p) {
    const Value& proc = processors->as_array()[p];
    if (!proc.is_object()) {
      result.error = "processors[" + std::to_string(p) + "] is not an object";
      return result;
    }
    const Value* sched =
        require(proc, "scheduler", Value::Kind::kString, result.error);
    if (sched == nullptr) return result;
    const auto kind = parse_scheduler_kind(sched->as_string());
    if (!kind) {
      result.error = "unknown scheduler '" + sched->as_string() + "'";
      return result;
    }
    system.set_scheduler(static_cast<int>(p), *kind);
  }

  const Value* jobs =
      require(doc.value, "jobs", Value::Kind::kArray, result.error);
  if (jobs == nullptr) return result;
  for (std::size_t ji = 0; ji < jobs->as_array().size(); ++ji) {
    Job job;
    if (!parse_job_json(jobs->as_array()[ji], job, result.error)) {
      result.error = "jobs[" + std::to_string(ji) + "]: " + result.error;
      return result;
    }
    system.add_job(std::move(job));
  }

  if (auto invalid = system.validation_error()) {
    result.error = std::move(*invalid);
    return result;
  }
  result.ok = true;
  result.system = std::move(system);
  return result;
}

ParsedSystem load_system_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    ParsedSystem r;
    r.error = "cannot open '" + path + "'";
    return r;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  ParsedSystem r = parse_system_json(buf.str());
  if (!r.ok) r.error = path + ": " + r.error;
  return r;
}

bool save_system_json_file(const System& system, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << to_system_json(system);
  return out.good();
}

std::string to_result_json(const AnalysisResult& result, bool compact) {
  using json::Value;
  Value root;
  root.set("schema_version", kSystemJsonSchemaVersion);
  root.set("ok", result.ok);
  if (!result.error.empty()) root.set("error", result.error);
  root.set("horizon", time_value(result.horizon));

  Value::Array jobs;
  for (const JobReport& j : result.jobs) {
    Value job;
    job.set("wcrt", time_value(j.wcrt));
    job.set("schedulable", j.schedulable);
    if (!j.per_instance.empty()) {
      Value::Array inst;
      for (Time t : j.per_instance) inst.push_back(time_value(t));
      job.set("per_instance", Value(std::move(inst)));
    }
    Value::Array hops;
    for (const SubjobReport& h : j.hops) {
      Value hop;
      hop.set("job", h.ref.job);
      hop.set("hop", h.ref.hop);
      hop.set("local_bound", time_value(h.local_bound));
      hops.push_back(std::move(hop));
    }
    if (!hops.empty()) job.set("hops", Value(std::move(hops)));
    jobs.push_back(std::move(job));
  }
  root.set("jobs", Value(std::move(jobs)));
  return compact ? root.dump() : root.dump(2) + "\n";
}

ParsedResult parse_result_json(const std::string& text) {
  using json::Value;
  ParsedResult out;

  const json::ParseResult doc = json::parse(text);
  if (!doc.ok) {
    out.error = "json: " + doc.error;
    return out;
  }
  if (!check_schema(doc.value, out.error)) return out;

  const Value* ok = doc.value.find("ok");
  if (ok == nullptr || !ok->is_bool()) {
    out.error = "missing or mistyped 'ok'";
    return out;
  }
  out.result.ok = ok->as_bool();
  if (const Value* err = doc.value.find("error"); err != nullptr) {
    if (!err->is_string()) {
      out.error = "'error' must be a string";
      return out;
    }
    out.result.error = err->as_string();
  }
  const Value* horizon = doc.value.find("horizon");
  if (horizon == nullptr || !read_time(*horizon, out.result.horizon)) {
    out.error = "missing or mistyped 'horizon'";
    return out;
  }

  const Value* jobs = require(doc.value, "jobs", Value::Kind::kArray, out.error);
  if (jobs == nullptr) return out;
  for (std::size_t ji = 0; ji < jobs->as_array().size(); ++ji) {
    const Value& jv = jobs->as_array()[ji];
    const std::string where = "jobs[" + std::to_string(ji) + "]";
    if (!jv.is_object()) {
      out.error = where + " is not an object";
      return out;
    }
    JobReport report;
    const Value* wcrt = jv.find("wcrt");
    const Value* schedulable = jv.find("schedulable");
    if (wcrt == nullptr || !read_time(*wcrt, report.wcrt) ||
        schedulable == nullptr || !schedulable->is_bool()) {
      out.error = where + ": missing or mistyped 'wcrt'/'schedulable'";
      return out;
    }
    report.schedulable = schedulable->as_bool();
    if (const Value* inst = jv.find("per_instance"); inst != nullptr) {
      if (!inst->is_array()) {
        out.error = where + ": 'per_instance' must be an array";
        return out;
      }
      for (const Value& v : inst->as_array()) {
        Time t = 0.0;
        if (!read_time(v, t)) {
          out.error = where + ": bad per_instance entry";
          return out;
        }
        report.per_instance.push_back(t);
      }
    }
    if (const Value* hops = jv.find("hops"); hops != nullptr) {
      if (!hops->is_array()) {
        out.error = where + ": 'hops' must be an array";
        return out;
      }
      for (const Value& hv : hops->as_array()) {
        SubjobReport hop;
        const Value* hjob = hv.find("job");
        const Value* hhop = hv.find("hop");
        const Value* bound = hv.find("local_bound");
        const auto job_index =
            hjob == nullptr
                ? std::nullopt
                : json::checked_integer(*hjob, json::kIntMin, json::kIntMax);
        const auto hop_index =
            hhop == nullptr
                ? std::nullopt
                : json::checked_integer(*hhop, json::kIntMin, json::kIntMax);
        if (!hv.is_object() || !job_index || !hop_index || bound == nullptr ||
            !read_time(*bound, hop.local_bound)) {
          out.error = where + ": malformed hop entry";
          return out;
        }
        hop.ref.job = static_cast<int>(*job_index);
        hop.ref.hop = static_cast<int>(*hop_index);
        report.hops.push_back(std::move(hop));
      }
    }
    out.result.jobs.push_back(std::move(report));
  }
  out.ok = true;
  return out;
}

}  // namespace rta
