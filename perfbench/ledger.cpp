#include "ledger.hpp"

#include <algorithm>
#include <cstdlib>
#include <string_view>

namespace perfbench {

namespace {

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

const char* layer_of(std::string_view name) {
  if (name == "service.request" || name == "service.read" ||
      name == "service.mutate" || name == "service.shard.pump") {
    return "sched";
  }
  if (name == "service.dirty_closure" || name == "service.snapshot_clone") {
    return "session";
  }
  if (name == "service.fast_what_if") return "analysis.fast_unit";
  if (starts_with(name, "bounds.unit")) return "analysis.unit";
  if (name == "bounds.wave") return "analysis.wave";
  return "other.spans";
}

/// Value of a `"key": ...` member in a span's preformatted args object.
std::string_view arg(std::string_view args, std::string_view key) {
  std::string needle(1, '"');
  needle.append(key).append("\": ");
  const std::size_t at = args.find(needle);
  if (at == std::string_view::npos) return {};
  std::string_view rest = args.substr(at + needle.size());
  if (!rest.empty() && rest.front() == '"') {
    rest.remove_prefix(1);
    return rest.substr(0, rest.find('"'));
  }
  return rest.substr(0, rest.find_first_of(",}"));
}

double arg_number(std::string_view args, std::string_view key) {
  const std::string v(arg(args, key));
  return v.empty() ? 0.0 : std::strtod(v.c_str(), nullptr);
}

struct Open {
  std::string_view name;
  double start_us = 0.0;
  double child_us = 0.0;
  double longest_child_us = 0.0;
  std::string trace;
};

}  // namespace

double Ledger::spans_us() const {
  double total = 0.0;
  for (const auto& [layer, us] : self_us) total += us;
  return total;
}

Ledger fold_trace(const std::vector<rta::obs::TraceEvent>& events,
                  double from_us) {
  Ledger ledger;
  // Events arrive grouped by thread, each thread's properly bracketed.
  std::vector<Open> stack;
  int tid = -1;
  for (const rta::obs::TraceEvent& ev : events) {
    if (ev.tid != tid) {
      stack.clear();
      tid = ev.tid;
    }
    if (ev.ts_us < from_us) continue;
    if (ev.phase == 'B') {
      Open open;
      open.name = ev.name;
      open.start_us = ev.ts_us;
      if (ev.name == "service.request") {
        open.trace = std::string(arg(ev.args, "trace_id"));
        ledger.queue_us.push_back(arg_number(ev.args, "queue_us"));
      } else if (!stack.empty()) {
        open.trace = stack.back().trace;
      }
      if (ev.name == "service.fast_what_if") {
        ++ledger.fast_paths;
        ledger.units += static_cast<std::size_t>(arg_number(ev.args, "hops"));
      }
      stack.push_back(std::move(open));
      continue;
    }
    if (ev.phase != 'E' || stack.empty()) continue;
    const Open open = std::move(stack.back());
    stack.pop_back();
    const double dur = ev.ts_us - open.start_us;
    const double self = dur - open.child_us;
    const char* layer = layer_of(open.name);
    ledger.self_us[layer] += self;
    if (!stack.empty()) {
      stack.back().child_us += dur;
      stack.back().longest_child_us =
          std::max(stack.back().longest_child_us, dur);
    }
    const std::string_view l(layer);
    if (l == "analysis.unit" || l == "analysis.fast_unit") {
      ledger.unit_us += self;
      ledger.unit_us_by_trace[open.trace] += self;
      if (l == "analysis.unit") {
        ++ledger.units;
        if (!stack.empty() && stack.back().name == "bounds.wave") {
          ledger.wave_unit_us += dur;
        }
      }
    } else if (l == "analysis.wave") {
      ledger.critical_us += open.longest_child_us;
    }
  }
  return ledger;
}

}  // namespace perfbench
