#include "io/system_text.hpp"

#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

namespace rta {

namespace {

/// Tokenizer state for one parse run.
struct Parser {
  std::istream& in;
  int line_no = 0;
  std::string error;

  explicit Parser(std::istream& stream) : in(stream) {}

  bool fail(const std::string& msg) {
    if (error.empty()) {
      error = "line " + std::to_string(line_no) + ": " + msg;
    }
    return false;
  }

  /// Next non-empty, comment-stripped line split into tokens; false at EOF.
  bool next_line(std::vector<std::string>& tokens) {
    std::string line;
    while (std::getline(in, line)) {
      ++line_no;
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.erase(hash);
      std::istringstream ss(line);
      tokens.clear();
      std::string tok;
      while (ss >> tok) tokens.push_back(tok);
      if (!tokens.empty()) return true;
    }
    return false;
  }
};

/// A finite number spanning the whole token: std::stod alone also accepts
/// "nan" and "inf", which no field of the format may hold.
bool parse_double(const std::string& tok, double& out) {
  std::size_t pos = 0;
  try {
    out = std::stod(tok, &pos);
  } catch (...) {
    return false;
  }
  return pos == tok.size() && std::isfinite(out);
}

bool parse_int(const std::string& tok, int& out) {
  std::size_t pos = 0;
  try {
    out = std::stoi(tok, &pos);
  } catch (...) {
    return false;
  }
  return pos == tok.size();
}

/// Read "key value key value ..." pairs from tokens[start..].
bool parse_kv(Parser& p, const std::vector<std::string>& tokens,
              std::size_t start, std::map<std::string, std::string>& kv) {
  if ((tokens.size() - start) % 2 != 0) {
    return p.fail("expected key/value pairs after '" + tokens[start - 1] +
                  "'");
  }
  for (std::size_t i = start; i + 1 < tokens.size(); i += 2) {
    kv[tokens[i]] = tokens[i + 1];
  }
  return true;
}

bool require_double(Parser& p, std::map<std::string, std::string>& kv,
                    const std::string& key, double& out) {
  auto it = kv.find(key);
  if (it == kv.end()) return p.fail("missing '" + key + "'");
  if (!parse_double(it->second, out)) {
    return p.fail("bad number for '" + key + "': " + it->second);
  }
  return true;
}

bool parse_arrivals(Parser& p, const std::vector<std::string>& tokens,
                    ArrivalSequence& out) {
  if (tokens.size() < 2) return p.fail("arrivals: missing kind");
  const std::string& kind = tokens[1];

  if (kind == "explicit") {
    std::vector<Time> times;
    for (std::size_t i = 2; i < tokens.size(); ++i) {
      double t = 0.0;
      if (!parse_double(tokens[i], t)) {
        return p.fail("arrivals explicit: bad instant '" + tokens[i] + "'");
      }
      times.push_back(t);
    }
    if (times.empty()) return p.fail("arrivals explicit: no instants");
    for (std::size_t i = 1; i < times.size(); ++i) {
      if (times[i] < times[i - 1]) {
        return p.fail("arrivals explicit: instants must be nondecreasing");
      }
    }
    if (times.front() < 0.0) {
      return p.fail("arrivals explicit: negative release time");
    }
    out = ArrivalSequence(std::move(times));
    return true;
  }

  std::map<std::string, std::string> kv;
  if (!parse_kv(p, tokens, 2, kv)) return false;

  if (kind == "periodic") {
    double period = 0.0, window = 0.0, offset = 0.0;
    if (!require_double(p, kv, "period", period)) return false;
    if (!require_double(p, kv, "window", window)) return false;
    if (kv.count("offset") && !require_double(p, kv, "offset", offset)) {
      return false;
    }
    if (period <= 0.0) return p.fail("arrivals periodic: period must be > 0");
    if (window < offset) return p.fail("arrivals periodic: window < offset");
    out = ArrivalSequence::periodic(period, window, offset);
    return true;
  }
  if (kind == "bursty") {
    double x = 0.0, window = 0.0;
    if (!require_double(p, kv, "x", x)) return false;
    if (!require_double(p, kv, "window", window)) return false;
    if (x <= 0.0 || x >= 1.0) {
      return p.fail("arrivals bursty: x must be in (0,1)");
    }
    out = ArrivalSequence::bursty_eq27(x, window);
    return true;
  }
  if (kind == "burst") {
    double count = 0.0, gap = 0.0, period = 0.0, window = 0.0;
    if (!require_double(p, kv, "count", count)) return false;
    if (!require_double(p, kv, "gap", gap)) return false;
    if (!require_double(p, kv, "period", period)) return false;
    if (!require_double(p, kv, "window", window)) return false;
    if (count < 1.0 || gap <= 0.0 || period < gap) {
      return p.fail("arrivals burst: need count >= 1, gap > 0, period >= gap");
    }
    out = ArrivalSequence::burst_then_periodic(
        static_cast<std::size_t>(count), gap, period, window);
    return true;
  }
  return p.fail("unknown arrival kind '" + kind + "'");
}

}  // namespace

ParsedSystem parse_system_text(std::istream& in) {
  ParsedSystem result;
  Parser p(in);
  std::vector<std::string> tokens;

  int processor_count = -1;
  std::vector<SchedulerKind> schedulers;
  struct PendingJob {
    Job job;
    bool has_arrivals = false;
  };
  std::optional<PendingJob> current;
  std::vector<Job> jobs;

  auto finish_job = [&]() -> bool {
    if (!current) return p.fail("'end' without a job");
    if (current->job.chain.empty()) {
      return p.fail("job '" + current->job.name + "' has no hops");
    }
    if (!current->has_arrivals) {
      return p.fail("job '" + current->job.name + "' has no arrivals");
    }
    jobs.push_back(std::move(current->job));
    current.reset();
    return true;
  };

  while (p.next_line(tokens)) {
    const std::string& head = tokens[0];

    if (head == "processors") {
      if (tokens.size() != 2 || !parse_int(tokens[1], processor_count) ||
          processor_count <= 0) {
        p.fail("expected 'processors <positive count>'");
        break;
      }
      schedulers.assign(processor_count, SchedulerKind::kSpp);
    } else if (head == "scheduler") {
      int proc = -1;
      if (tokens.size() != 3 || !parse_int(tokens[1], proc)) {
        p.fail("expected 'scheduler <processor> <SPP|SPNP|FCFS>'");
        break;
      }
      if (processor_count < 0) {
        p.fail("'scheduler' before 'processors'");
        break;
      }
      if (proc < 0 || proc >= processor_count) {
        p.fail("scheduler: processor index out of range");
        break;
      }
      const auto kind = parse_scheduler_kind(tokens[2]);
      if (!kind) {
        p.fail("unknown scheduler '" + tokens[2] + "'");
        break;
      }
      schedulers[proc] = *kind;
    } else if (head == "job") {
      if (current) {
        p.fail("nested 'job' (missing 'end'?)");
        break;
      }
      if (tokens.size() != 4 || tokens[2] != "deadline") {
        p.fail("expected 'job <name> deadline <value>'");
        break;
      }
      PendingJob pj;
      pj.job.name = tokens[1];
      if (!parse_double(tokens[3], pj.job.deadline) ||
          pj.job.deadline <= 0.0) {
        p.fail("bad deadline '" + tokens[3] + "'");
        break;
      }
      current = std::move(pj);
    } else if (head == "hop") {
      if (!current) {
        p.fail("'hop' outside a job");
        break;
      }
      // hop <proc> exec <time> [prio <n>]
      Subjob sub;
      bool ok = tokens.size() >= 4 && parse_int(tokens[1], sub.processor) &&
                tokens[2] == "exec" && parse_double(tokens[3], sub.exec_time);
      if (ok && tokens.size() == 6 && tokens[4] == "prio") {
        ok = parse_int(tokens[5], sub.priority);
      } else if (ok && tokens.size() != 4) {
        ok = false;
      }
      if (!ok) {
        p.fail("expected 'hop <proc> exec <time> [prio <n>]'");
        break;
      }
      if (sub.exec_time <= 0.0) {
        p.fail("hop: execution time must be > 0");
        break;
      }
      current->job.chain.push_back(sub);
    } else if (head == "arrivals") {
      if (!current) {
        p.fail("'arrivals' outside a job");
        break;
      }
      if (current->has_arrivals) {
        p.fail("duplicate 'arrivals' in job '" + current->job.name + "'");
        break;
      }
      if (!parse_arrivals(p, tokens, current->job.arrivals)) break;
      current->has_arrivals = true;
    } else if (head == "end") {
      if (!finish_job()) break;
    } else {
      p.fail("unknown directive '" + head + "'");
      break;
    }
  }

  if (p.error.empty() && current) {
    p.fail("unterminated job '" + current->job.name + "'");
  }
  if (p.error.empty() && processor_count < 0) {
    p.fail("missing 'processors' directive");
  }

  if (!p.error.empty()) {
    result.error = p.error;
    return result;
  }

  System system(processor_count);
  for (int i = 0; i < processor_count; ++i) {
    system.set_scheduler(i, schedulers[i]);
  }
  for (Job& j : jobs) system.add_job(std::move(j));

  if (auto invalid = system.validation_error()) {
    result.error = std::move(*invalid);
    return result;
  }
  result.ok = true;
  result.system = std::move(system);
  return result;
}

ParsedSystem parse_system_text(const std::string& text) {
  std::istringstream ss(text);
  return parse_system_text(ss);
}

ParsedSystem load_system_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    ParsedSystem r;
    r.error = "cannot open '" + path + "'";
    return r;
  }
  return parse_system_text(in);
}

std::string to_system_text(const System& system) {
  std::ostringstream out;
  out.precision(17);
  out << "processors " << system.processor_count() << "\n";
  for (int pidx = 0; pidx < system.processor_count(); ++pidx) {
    if (system.scheduler(pidx) != SchedulerKind::kSpp) {
      out << "scheduler " << pidx << " " << to_string(system.scheduler(pidx))
          << "\n";
    }
  }
  for (int k = 0; k < system.job_count(); ++k) {
    const Job& j = system.job(k);
    out << "\njob " << j.name << " deadline " << j.deadline << "\n";
    for (const Subjob& s : j.chain) {
      out << "  hop " << s.processor << " exec " << s.exec_time << " prio "
          << s.priority << "\n";
    }
    out << "  arrivals explicit";
    for (Time t : j.arrivals.releases()) out << " " << t;
    out << "\nend\n";
  }
  return out.str();
}

bool save_system_file(const System& system, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << to_system_text(system);
  return out.good();
}

}  // namespace rta
