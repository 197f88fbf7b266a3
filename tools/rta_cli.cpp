// rta_cli -- command-line front end to the bursty-rta analyzers.
//
// Subcommands (run `rta_cli <cmd> --help` for the full flag reference):
//   analyze   response-time bounds for a system
//   simulate  discrete-event simulation of the same system
//   validate  analysis vs simulation soundness check
//   curves    per-subjob service-bound CSVs
//   trace     simulation Gantt / instance CSVs
//   region    parametric schedulability region (feasibility boundary)
//   serve     incremental admission service over a JSONL request stream
//   generate  emit a random job shop
//
// Every subcommand's synopsis, flag list, defaults, and unknown-flag
// rejection are generated from one command table (command_table() below),
// so the help text and the parser can never drift apart.
//
// System files ending in ".json" load through the versioned JSON format
// (io/system_json.hpp); everything else through the text format.
//
// Exit status: 0 = ok / schedulable (region: non-empty), 1 = not
// schedulable (serve: some request failed; region: empty region),
// 2 = usage or input error.
#include <algorithm>
#include <cassert>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "eval/validation.hpp"
#include "io/curve_csv.hpp"
#include "io/system_json.hpp"
#include "io/system_text.hpp"
#include "io/trace_csv.hpp"
#include "model/priority.hpp"
#include "model/system.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/admission_session.hpp"
#include "service/metrics_export.hpp"
#include "service/region.hpp"
#include "service/request_runner.hpp"
#include "service/sharded_scheduler.hpp"
#include "service/tenant_registry.hpp"
#include "sim/simulator.hpp"
#include "util/number_format.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "workload/jobshop.hpp"

namespace {

using namespace rta;

/// Largest value a worker-count flag (FlagSpec::workers) accepts, the region
/// column cap: each value sizes a thread pool, and a shard scheduler starts
/// all of its threads up front.
constexpr long long kMaxWorkers = 256;

/// One flag row of the command table: the parser default and the help line
/// come from the same place.
struct FlagSpec {
  const char* name;  ///< without the leading "--"
  const char* arg;   ///< metavar ("N", "FILE", ...); nullptr = boolean flag
  const char* def;   ///< default printed in --help; nullptr = none/required
  const char* help;  ///< one-line description
  /// A worker count: its value sizes a thread pool, so check_numeric_flags
  /// caps it at kMaxWorkers.
  bool workers = false;
};

struct CommandSpec {
  const char* name;
  const char* args;     ///< positional synopsis ("FILE" or "")
  const char* summary;  ///< one-line summary for the top-level usage
  bool with_shared;     ///< accepts the shared analysis/observability flags
  std::vector<FlagSpec> flags;
};

/// The observability/engine flags shared by every analysis subcommand
/// (docs/observability.md).
const std::vector<FlagSpec>& shared_analysis_flags() {
  static const std::vector<FlagSpec> kFlags = {
      {"threads", "N", "1",
       "bounds-engine worker threads (0 = all hardware threads); results "
       "are identical for every N",
       true},
      {"stats", nullptr, nullptr,
       "print kernel/pool statistics; never changes computed bounds"},
      {"metrics-json", "FILE", nullptr,
       "write aggregated engine metrics as JSON"},
      {"trace-json", "FILE", nullptr,
       "write a Chrome trace_event JSON timeline (chrome://tracing, "
       "Perfetto)"},
      {"trace-jsonl", "FILE", nullptr,
       "write the same span timeline as structured JSONL events"},
  };
  return kFlags;
}

/// The single source of truth for subcommands: usage(), per-command --help,
/// check_flags(), and the cmd_* parsing defaults all read from here.
const std::vector<CommandSpec>& command_table() {
  static const std::vector<CommandSpec> kCommands = {
      {"analyze", "FILE", "response-time bounds for a system", true,
       {
           {"method", "M", "auto",
            "auto|spp-exact|bounds|iterative|holistic"},
           {"priorities", "P", "keep", "keep|pdm|dm|rm"},
           {"verbose", nullptr, nullptr, "print per-hop local bounds"},
       }},
      {"simulate", "FILE", "discrete-event simulation", false,
       {
           {"horizon", "H", "auto", "simulation horizon"},
           {"priorities", "P", "keep", "keep|pdm|dm|rm"},
       }},
      {"validate", "FILE", "analysis vs simulation soundness check", true,
       {
           {"method", "M", "auto",
            "auto|spp-exact|bounds|iterative|holistic"},
           {"priorities", "P", "keep", "keep|pdm|dm|rm"},
       }},
      {"curves", "FILE", "per-subjob service-bound CSVs", true,
       {
           {"out", "DIR", nullptr, "output directory (required)"},
           {"method", "M", "auto",
            "auto|spp-exact|bounds|iterative|holistic"},
           {"priorities", "P", "keep", "keep|pdm|dm|rm"},
       }},
      {"trace", "FILE", "simulation Gantt / instance CSVs", false,
       {
           {"out", "PREFIX", nullptr, "output file prefix (required)"},
           {"horizon", "H", "auto", "simulation horizon"},
           {"priorities", "P", "keep", "keep|pdm|dm|rm"},
       }},
      {"region", "FILE",
       "parametric schedulability region (feasibility boundary)", true,
       {
           {"param", "K", nullptr,
            "exec_scale|burst|rate_scale -- axis-1 parameter (required)"},
           {"target", "JOB", nullptr,
            "job the job-scoped axes transform (required for scope=job)"},
           {"scope", "S", "job", "job|processor|global"},
           {"processor", "N", nullptr, "processor index for scope=processor"},
           {"min", "V", "auto",
            "axis-1 bracket low (exec/rate: 1, burst: 0)"},
           {"max", "V", "auto",
            "axis-1 bracket high (exec/rate: 8, burst: 32)"},
           {"param2", "K", nullptr,
            "axis-2 parameter: makes the query 2-D (axis 1 becomes the "
            "swept grid)"},
           {"scope2", "S", "job", "axis-2 scope"},
           {"processor2", "N", nullptr, "axis-2 processor index"},
           {"min2", "V", "auto", "axis-2 bracket low"},
           {"max2", "V", "auto", "axis-2 bracket high"},
           {"tolerance", "T", "0.001",
            "bisection tolerance (burst snaps to integers)"},
           {"columns", "N", "9", "2-D only: grid points on axis 1"},
           {"format", "F", "table", "table|csv|json"},
           {"out", "FILE", nullptr, "write the report here instead of stdout"},
           {"horizon", "H", "auto", "pinned analysis horizon"},
           {"priorities", "P", "keep", "keep|pdm|dm|rm"},
       }},
      {"serve", "FILE", "incremental admission service (JSONL)", true,
       {
           {"requests", "FILE", nullptr, "JSONL request stream (required)"},
           {"out", "FILE", nullptr, "responses here instead of stdout"},
           {"horizon", "H", "auto", "pinned analysis horizon"},
           {"priorities", "P", "keep", "keep|pdm|dm|rm"},
           {"max-inflight", "N", "0",
            "shed requests beyond this batch depth (0 = unbounded)"},
           {"request-timeout-ms", "MS", "0",
            "expire requests older than this before execution (0 = never)"},
           {"metrics-prom", "FILE", nullptr,
            "periodic Prometheus text-format metric snapshots"},
           {"prom-interval-ms", "MS", "1000", "snapshot period"},
           {"tenants-from", "FILE", nullptr,
            "multi-tenant mode: manifest of 'name [system-file]' lines, one "
            "tenant each (docs/api.md)"},
           {"shards", "N", "1",
            "multi-tenant worker shards (0 = hardware; needs --tenants-from "
            "and, unless 1, --threads 1)",
            true},
       }},
      {"generate", "", "emit a random job shop", false,
       {
           {"stages", "N", "4", "pipeline stages"},
           {"procs", "N", "2", "processors per stage"},
           {"jobs", "N", "6", "job count"},
           {"util", "U", "0.6", "target utilization"},
           {"seed", "S", "1", "RNG seed"},
           {"aperiodic", nullptr, nullptr,
            "aperiodic arrival pattern (default periodic)"},
           {"scheduler", "S", "SPP", "SPP|SPNP|FCFS"},
           {"out", "FILE", nullptr, "write here instead of stdout"},
       }},
  };
  return kCommands;
}

const CommandSpec* find_command(const std::string& name) {
  for (const CommandSpec& spec : command_table()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

/// Table-driven default lookup: the cmd_* parsers read literal defaults
/// from the same rows --help prints, so the two cannot drift. Aborts (in
/// debug) on a flag the table doesn't declare a literal default for.
const char* table_default(const char* cmd, const char* flag) {
  const CommandSpec* spec = find_command(cmd);
  assert(spec != nullptr);
  for (const FlagSpec& f : spec->flags) {
    if (std::strcmp(f.name, flag) == 0) {
      assert(f.def != nullptr);
      return f.def;
    }
  }
  assert(false && "flag missing from command table");
  return "";
}

double table_default_double(const char* cmd, const char* flag) {
  return std::atof(table_default(cmd, flag));
}

long long table_default_int(const char* cmd, const char* flag) {
  return std::atoll(table_default(cmd, flag));
}

void print_flag(std::FILE* f, const FlagSpec& flag) {
  std::string head = std::string("--") + flag.name;
  if (flag.arg != nullptr) head += std::string(" ") + flag.arg;
  std::fprintf(f, "  %-24s %s", head.c_str(), flag.help);
  if (flag.def != nullptr) std::fprintf(f, " (default: %s)", flag.def);
  std::fprintf(f, "\n");
}

/// `rta_cli <cmd> --help`: synopsis + every accepted flag, generated from
/// the command table.
int print_command_help(const CommandSpec& spec) {
  std::fprintf(stdout, "usage: rta_cli %s%s%s [flags]\n\n%s\n\nflags:\n",
               spec.name, spec.args[0] != '\0' ? " " : "", spec.args,
               spec.summary);
  for (const FlagSpec& flag : spec.flags) print_flag(stdout, flag);
  if (spec.with_shared) {
    std::fprintf(stdout, "\nshared analysis flags (docs/observability.md):\n");
    for (const FlagSpec& flag : shared_analysis_flags()) {
      print_flag(stdout, flag);
    }
  }
  return 0;
}

int usage() {
  std::fprintf(stderr, "usage: rta_cli <command> [FILE] [flags]\n\n");
  for (const CommandSpec& spec : command_table()) {
    std::fprintf(stderr, "  %-9s %-5s %s\n", spec.name, spec.args,
                 spec.summary);
  }
  std::fprintf(stderr,
               "\nrun 'rta_cli <command> --help' for the flag reference.\n"
               "FILEs ending in .json use the JSON system format "
               "(docs/api.md).\n");
  return 2;
}

/// Values of N / MS / H flags must parse in full as finite numbers: N and MS
/// non-negative (integers for N, at most INT_MAX since the commands read
/// them into an int, and at most kMaxWorkers for a worker count), H (a
/// horizon) positive. Prints every offender; true when all are well-formed.
bool check_numeric_flags(const char* cmd, const Options& opts,
                         const std::vector<FlagSpec>& flags) {
  bool ok = true;
  for (const FlagSpec& f : flags) {
    if (f.arg == nullptr || !opts.has(f.name)) continue;
    const bool integer = std::strcmp(f.arg, "N") == 0;
    const bool positive = std::strcmp(f.arg, "H") == 0;
    if (!integer && !positive && std::strcmp(f.arg, "MS") != 0) continue;
    const std::string v = opts.get(f.name, "");
    char* end = nullptr;
    const double x =
        integer ? static_cast<double>(std::strtoll(v.c_str(), &end, 10))
                : std::strtod(v.c_str(), &end);
    if (v.empty() || *end != '\0' || !std::isfinite(x) ||
        (positive ? x <= 0.0 : x < 0.0)) {
      std::fprintf(stderr, "rta_cli %s: --%s wants a %s, got '%s'\n", cmd,
                   f.name,
                   integer    ? "non-negative integer"
                   : positive ? "positive number"
                              : "non-negative number",
                   v.c_str());
      ok = false;
    } else if (integer && x > static_cast<double>(INT_MAX)) {
      std::fprintf(stderr, "rta_cli %s: --%s wants an integer at most %d, "
                   "got '%s'\n", cmd, f.name, INT_MAX, v.c_str());
      ok = false;
    } else if (f.workers && x > static_cast<double>(kMaxWorkers)) {
      std::fprintf(stderr, "rta_cli %s: --%s wants at most %lld workers, "
                   "got '%s'\n", cmd, f.name, kMaxWorkers, v.c_str());
      ok = false;
    }
  }
  return ok;
}

/// Reject flags the command table doesn't declare (printing the valid set)
/// and malformed numeric values; true when every flag is known and valid.
bool check_flags(const char* cmd, const Options& opts) {
  const CommandSpec* spec = find_command(cmd);
  assert(spec != nullptr);
  std::vector<std::string> allowed = {"help"};
  for (const FlagSpec& flag : spec->flags) allowed.push_back(flag.name);
  if (spec->with_shared) {
    for (const FlagSpec& flag : shared_analysis_flags()) {
      allowed.push_back(flag.name);
    }
  }
  std::sort(allowed.begin(), allowed.end());
  bool ok = true;
  for (const std::string& key : opts.keys()) {
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      std::fprintf(stderr, "rta_cli %s: unknown flag --%s\n", cmd,
                   key.c_str());
      ok = false;
    }
  }
  if (!ok) {
    std::string list;
    for (const std::string& name : allowed) {
      if (!list.empty()) list += ", ";
      list += "--" + name;
    }
    std::fprintf(stderr, "valid flags for '%s': %s\n", cmd, list.c_str());
  }
  ok = check_numeric_flags(cmd, opts, spec->flags) && ok;
  if (spec->with_shared) {
    ok = check_numeric_flags(cmd, opts, shared_analysis_flags()) && ok;
  }
  return ok;
}

/// Writes `content` to `path`, replacing any existing file.
bool write_text_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  const bool closed = std::fclose(f) == 0;
  return wrote && closed;
}

/// Sinks and export paths behind --metrics-json / --trace-json /
/// --trace-jsonl / --stats. The registry also backs --stats on its own (no
/// file needed): the analyzers flush their pool/kernel counters into it
/// per analyze().
struct ObsSession {
  std::string metrics_path;
  std::string trace_path;
  std::string trace_jsonl_path;
  bool stats = false;
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<obs::Tracer> tracer;

  static ObsSession from_options(const Options& opts) {
    ObsSession s;
    s.metrics_path = opts.get("metrics-json", "");
    s.trace_path = opts.get("trace-json", "");
    s.trace_jsonl_path = opts.get("trace-jsonl", "");
    s.stats = opts.get_bool("stats", false);
    if (!s.metrics_path.empty() || s.stats) {
      s.metrics = std::make_unique<obs::MetricsRegistry>();
    }
    if (!s.trace_path.empty() || !s.trace_jsonl_path.empty()) {
      s.tracer = std::make_unique<obs::Tracer>();
    }
    return s;
  }

  [[nodiscard]] obs::Observer observer() const {
    return obs::Observer{metrics.get(), tracer.get()};
  }

  /// `f` lets serve keep stdout clean for JSONL responses (stats -> stderr).
  void print_stats(std::FILE* f = stdout) const {
    if (!stats || metrics == nullptr) return;
    const obs::MetricsSnapshot snap = metrics->snapshot();
    auto c = [&](const char* name) -> unsigned long long {
      const auto it = snap.counters.find(name);
      return it == snap.counters.end() ? 0ULL : it->second;
    };
    auto g = [&](const char* name) -> double {
      const auto it = snap.gauges.find(name);
      return it == snap.gauges.end() ? 0.0 : it->second;
    };
    std::fprintf(f, "-- stats --\n");
    std::fprintf(f, "kernel ops: pointwise %llu, pinv %llu\n",
                 c("kernel.pointwise_ops"), c("kernel.pinv_ops"));
    if (c("bounds.units") > 0) {
      std::fprintf(f, "wavefront: %llu waves, %llu units\n", c("bounds.waves"),
                   c("bounds.units"));
    }
    if (c("iterative.rounds") > 0) {
      std::fprintf(
          f,
          "iterative: %d iterations, %llu passes run, %llu skipped, %llu job "
          "refinements\n",
          static_cast<int>(g("iterative.iterations")),
          c("iterative.passes_run"), c("iterative.passes_skipped"),
          c("iterative.jobs_refined"));
    }
    if (c("service.admit") + c("service.what_if") + c("service.remove") > 0) {
      std::fprintf(
          f,
          "service: %llu admits (%llu fast), %llu what-ifs (%llu from the "
          "memo), %llu removes; %llu incremental passes (%llu dirty "
          "subjobs), %llu full passes\n",
          c("service.admit"), c("service.fast_admits"), c("service.what_if"),
          c("service.what_if_memo_hits"), c("service.remove"),
          c("service.incremental"), c("service.dirty_subjobs"),
          c("service.full"));
    }
    if (c("service.region_probes") > 0) {
      std::fprintf(f, "region: %llu probes\n", c("service.region_probes"));
    }
    std::fprintf(
        f,
        "analysis time by scheduler: spp %llu us, spnp %llu us, fcfs %llu "
        "us\n",
        c("analysis.unit_time_spp_us"), c("analysis.unit_time_spnp_us"),
        c("analysis.unit_time_fcfs_us"));
    std::fprintf(
        f,
        "pool: %llu tasks, %llu indices (%llu abandoned), queue high water "
        "%d, busy %llu us\n",
        c("pool.tasks_executed"), c("pool.indices_executed"),
        c("pool.indices_abandoned"),
        static_cast<int>(g("pool.queue_high_water")),
        c("pool.worker_busy_us"));
  }

  /// Write the requested export files; false (with a message) on failure.
  [[nodiscard]] bool write_exports() const {
    if (metrics != nullptr && !metrics_path.empty() &&
        !write_text_file(metrics_path, metrics->snapshot().to_json())) {
      std::fprintf(stderr, "cannot write '%s'\n", metrics_path.c_str());
      return false;
    }
    if (tracer != nullptr && !trace_path.empty() &&
        !write_text_file(trace_path, tracer->to_chrome_json())) {
      std::fprintf(stderr, "cannot write '%s'\n", trace_path.c_str());
      return false;
    }
    if (tracer != nullptr && !trace_jsonl_path.empty() &&
        !write_text_file(trace_jsonl_path, tracer->to_jsonl())) {
      std::fprintf(stderr, "cannot write '%s'\n", trace_jsonl_path.c_str());
      return false;
    }
    return true;
  }
};

/// Analysis knobs shared by the analyze/validate/curves/region subcommands.
AnalysisConfig analysis_config(const Options& opts) {
  AnalysisConfig cfg;
  cfg.threads = static_cast<int>(opts.get_int("threads", 1));
  return cfg;
}

bool apply_priorities(System& system, const std::string& policy) {
  if (policy == "keep") return true;
  if (policy == "pdm") {
    assign_proportional_deadline_monotonic(system);
    return true;
  }
  if (policy == "dm") {
    assign_deadline_monotonic(system);
    return true;
  }
  if (policy == "rm") {
    assign_rate_monotonic(system);
    return true;
  }
  std::fprintf(stderr, "unknown priority policy '%s'\n", policy.c_str());
  return false;
}

/// Resolve --method through the rta::Analyzer facade (engine dispatch and
/// kAuto selection live there; docs/api.md).
AnalysisResult run_method(const std::string& method, const System& system,
                          const AnalysisConfig& cfg, std::string* used) {
  const std::optional<EngineKind> kind = parse_engine_kind(method);
  if (!kind) {
    AnalysisResult r;
    r.error = "unknown method '" + method + "'";
    return r;
  }
  return Analyzer(cfg).analyze(system, *kind, used);
}

int cmd_analyze(const Options& opts, System system) {
  if (!check_flags("analyze", opts)) return 2;
  if (!apply_priorities(
          system, opts.get("priorities", table_default("analyze", "priorities"))))
    return 2;
  ObsSession session = ObsSession::from_options(opts);
  AnalysisConfig cfg = analysis_config(opts);
  cfg.observer = session.observer();
  std::string used;
  AnalysisResult r;
  {
    obs::Tracer::Span span =
        obs::Tracer::span_if(session.tracer.get(), "cli.analyze");
    r = run_method(opts.get("method", table_default("analyze", "method")),
                   system, cfg, &used);
  }
  if (!r.ok) {
    std::fprintf(stderr, "analysis failed: %s\n", r.error.c_str());
    return 2;
  }
  std::printf("method: %s\n", used.c_str());
  std::printf("%-16s %12s %12s %8s\n", "job", "wcrt", "deadline", "ok?");
  for (int k = 0; k < system.job_count(); ++k) {
    std::printf("%-16s %12.4f %12.4f %8s\n", system.job(k).name.c_str(),
                r.jobs[k].wcrt, system.job(k).deadline,
                r.jobs[k].schedulable ? "yes" : "NO");
    if (opts.get_bool("verbose", false)) {
      for (const SubjobReport& hop : r.jobs[k].hops) {
        std::printf("    hop %d on P%d: local bound %.4f\n", hop.ref.hop,
                    system.subjob(hop.ref).processor, hop.local_bound);
      }
    }
  }
  std::printf("schedulable: %s\n", r.all_schedulable() ? "yes" : "no");
  session.print_stats();
  if (!session.write_exports()) return 2;
  return r.all_schedulable() ? 0 : 1;
}

int cmd_simulate(const Options& opts, System system) {
  if (!check_flags("simulate", opts)) return 2;
  if (!apply_priorities(system, opts.get("priorities", "keep"))) return 2;
  const Time horizon = opts.get_double(
      "horizon", default_horizon(system, AnalysisConfig{}));
  const SimResult s = simulate(system, horizon);
  std::printf("simulated on [0, %.3f]\n", horizon);
  std::printf("%-16s %10s %14s %10s\n", "job", "instances", "worst resp",
              "deadline");
  bool all_meet = true;
  for (int k = 0; k < system.job_count(); ++k) {
    std::printf("%-16s %10zu %14.4f %10.4f\n", system.job(k).name.c_str(),
                s.traces[k].size(), s.worst_response[k],
                system.job(k).deadline);
    if (!(s.worst_response[k] <= system.job(k).deadline)) all_meet = false;
  }
  std::printf("all instances completed: %s; all deadlines met: %s\n",
              s.all_completed ? "yes" : "no", all_meet ? "yes" : "no");
  return all_meet ? 0 : 1;
}

int cmd_validate(const Options& opts, System system) {
  if (!check_flags("validate", opts)) return 2;
  if (!apply_priorities(system, opts.get("priorities", "keep"))) return 2;
  ObsSession session = ObsSession::from_options(opts);
  AnalysisConfig cfg = analysis_config(opts);
  cfg.observer = session.observer();
  using Clock = std::chrono::steady_clock;
  std::string used;
  AnalysisResult r;
  const Clock::time_point t0 = Clock::now();
  {
    obs::Tracer::Span span =
        obs::Tracer::span_if(session.tracer.get(), "cli.analyze");
    r = run_method(opts.get("method", table_default("validate", "method")),
                   system, cfg, &used);
  }
  const Clock::time_point t1 = Clock::now();
  if (!r.ok) {
    std::fprintf(stderr, "analysis failed: %s\n", r.error.c_str());
    return 2;
  }
  const Time horizon =
      r.horizon > 0.0 ? r.horizon : default_horizon(system, AnalysisConfig{});
  SimResult s;
  {
    obs::Tracer::Span span =
        obs::Tracer::span_if(session.tracer.get(), "cli.simulate");
    s = simulate(system, horizon);
  }
  const Clock::time_point t2 = Clock::now();
  const ValidationReport report = compare_with_simulation(system, r, s);
  std::printf("method: %s\n", used.c_str());
  std::printf("%-16s %12s %12s %10s\n", "job", "bound", "simulated",
              "slack");
  for (const JobValidation& jv : report.jobs) {
    std::printf("%-16s %12.4f %12.4f %10.4f\n", jv.job_name.c_str(),
                jv.analyzed_bound, jv.simulated_worst,
                jv.analyzed_bound - jv.simulated_worst);
  }
  const bool sound = report.bounds_hold();
  std::printf("bounds dominate simulation: %s\n", sound ? "yes" : "NO");
  const std::chrono::duration<double, std::milli> analysis_ms = t1 - t0;
  const std::chrono::duration<double, std::milli> sim_ms = t2 - t1;
  std::printf("analysis wall time: %.3f ms; simulation wall time: %.3f ms\n",
              analysis_ms.count(), sim_ms.count());
  session.print_stats();
  if (!session.write_exports()) return 2;
  return sound ? 0 : 1;
}

int cmd_curves(const Options& opts, System system) {
  if (!check_flags("curves", opts)) return 2;
  if (!apply_priorities(system, opts.get("priorities", "keep"))) return 2;
  const std::string dir = opts.get("out", "");
  if (dir.empty()) {
    std::fprintf(stderr, "curves: --out DIR is required\n");
    return 2;
  }
  ObsSession session = ObsSession::from_options(opts);
  AnalysisConfig cfg = analysis_config(opts);
  cfg.record_curves = true;
  cfg.observer = session.observer();
  std::string used;
  AnalysisResult r;
  {
    obs::Tracer::Span span =
        obs::Tracer::span_if(session.tracer.get(), "cli.analyze");
    r = run_method(opts.get("method", table_default("curves", "method")),
                   system, cfg, &used);
  }
  if (!r.ok) {
    std::fprintf(stderr, "analysis failed: %s\n", r.error.c_str());
    return 2;
  }
  int written = 0;
  for (int k = 0; k < system.job_count(); ++k) {
    for (std::size_t h = 0; h < r.jobs[k].hops.size(); ++h) {
      if (r.jobs[k].hops[h].curves.empty()) continue;
      const SubjobCurves& c = r.jobs[k].hops[h].curves[0];
      const std::string base = dir + "/" + system.job(k).name + "_hop" +
                               std::to_string(h);
      const bool ok = save_curve_csv(c.service_lower, base + "_svc_lower.csv") &&
                      save_curve_csv(c.service_upper, base + "_svc_upper.csv") &&
                      save_curve_csv(c.arrival_upper, base + "_arr_upper.csv") &&
                      save_curve_csv(c.departure_lower, base + "_dep_lower.csv");
      if (!ok) {
        std::fprintf(stderr, "cannot write under '%s'\n", dir.c_str());
        return 2;
      }
      written += 4;
    }
  }
  std::printf("wrote %d curve CSVs under %s (method: %s)\n", written,
              dir.c_str(), used.c_str());
  session.print_stats();
  if (!session.write_exports()) return 2;
  return 0;
}

int cmd_trace(const Options& opts, System system) {
  if (!check_flags("trace", opts)) return 2;
  if (!apply_priorities(system, opts.get("priorities", "keep"))) return 2;
  const std::string prefix = opts.get("out", "");
  if (prefix.empty()) {
    std::fprintf(stderr, "trace: --out PREFIX is required\n");
    return 2;
  }
  const Time horizon = opts.get_double(
      "horizon", default_horizon(system, AnalysisConfig{}));
  const SimResult s = simulate(system, horizon);
  if (!save_trace_csv(system, s, prefix)) {
    std::fprintf(stderr, "cannot write '%s_*.csv'\n", prefix.c_str());
    return 2;
  }
  std::printf("wrote %s_gantt.csv and %s_instances.csv ([0, %.3f])\n",
              prefix.c_str(), prefix.c_str(), horizon);
  return 0;
}

/// One line of the human-readable region report.
std::string format_boundary(const RegionBoundary& b) {
  char buf[160];
  if (b.empty) {
    std::snprintf(buf, sizeof(buf), "empty (infeasible at %.6g; %d probes)",
                  b.infeasible, b.probes);
  } else if (b.open) {
    std::snprintf(buf, sizeof(buf),
                  "open (feasible through %.6g; %d probes)", b.feasible,
                  b.probes);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "feasible <= %.6g < infeasible <= %.6g (%d probes)",
                  b.feasible, b.infeasible, b.probes);
  }
  return buf;
}

/// One CSV row: empty,open,feasible,infeasible,probes -- feasible /
/// infeasible cells blank when the region is empty / open respectively.
std::string csv_boundary(const RegionBoundary& b) {
  std::string row = b.empty ? "1," : "0,";
  row += b.open ? "1," : "0,";
  if (!b.empty) append_double(row, b.feasible);
  row += ',';
  if (!b.open) append_double(row, b.infeasible);
  row += ',';
  row += std::to_string(b.probes);
  return row;
}

std::string axis_synopsis(const RegionAxis& axis) {
  std::ostringstream line;
  line << region_param_name(axis.param) << " scope="
       << region_scope_name(axis.scope);
  if (axis.scope == RegionScope::kProcessor) {
    line << " processor=" << axis.processor;
  }
  char range[64];
  std::snprintf(range, sizeof(range), " [%.6g, %.6g]", axis.lo, axis.hi);
  line << range;
  return line.str();
}

int cmd_region(const Options& opts, System system) {
  if (!check_flags("region", opts)) return 2;
  if (!apply_priorities(system, opts.get("priorities", "keep"))) return 2;

  RegionQuery query;
  query.target = opts.get("target", "");
  query.tolerance =
      opts.get_double("tolerance", table_default_double("region", "tolerance"));
  query.columns = static_cast<int>(
      opts.get_int("columns", table_default_int("region", "columns")));

  // Axis flags come in two suffixed families: --param/--scope/... and
  // --param2/--scope2/... for the optional second dimension.
  auto parse_axis = [&](const char* suffix, bool required) -> int {
    const std::string param = opts.get(std::string("param") + suffix, "");
    if (param.empty()) {
      if (!required) return 0;
      std::fprintf(stderr, "region: --param is required\n");
      return -1;
    }
    RegionAxis axis;
    const std::optional<RegionParam> p = parse_region_param(param);
    if (!p) {
      std::fprintf(stderr,
                   "region: unknown param '%s' (exec_scale, burst, "
                   "rate_scale)\n",
                   param.c_str());
      return -1;
    }
    axis.param = *p;
    const std::string scope = opts.get(std::string("scope") + suffix, "job");
    const std::optional<RegionScope> s = parse_region_scope(scope);
    if (!s) {
      std::fprintf(stderr,
                   "region: unknown scope '%s' (job, processor, global)\n",
                   scope.c_str());
      return -1;
    }
    axis.scope = *s;
    axis.processor = static_cast<int>(
        opts.get_int(std::string("processor") + suffix, -1));
    region_default_bracket(axis.param, axis.lo, axis.hi);
    axis.lo = opts.get_double(std::string("min") + suffix, axis.lo);
    axis.hi = opts.get_double(std::string("max") + suffix, axis.hi);
    query.axes.push_back(axis);
    return 1;
  };
  if (parse_axis("", /*required=*/true) < 0) return 2;
  if (parse_axis("2", /*required=*/false) < 0) return 2;

  ObsSession session = ObsSession::from_options(opts);
  service::SessionConfig cfg;
  cfg.analysis = analysis_config(opts);
  cfg.analysis.observer = session.observer();
  // Pinned like serve: every probe evaluates on the same horizon, so the
  // incremental path is always eligible.
  cfg.analysis.horizon =
      opts.get_double("horizon", default_horizon(system, cfg.analysis));

  RegionAnalyzer analyzer(std::move(system), cfg);
  const RegionResult r = analyzer.run(query);
  if (!r.ok) {
    std::fprintf(stderr, "region: %s\n", r.error.c_str());
    return 2;
  }

  const std::string format =
      opts.get("format", table_default("region", "format"));
  std::ostringstream report;
  bool all_empty = true;
  if (format == "json") {
    report << region_result_value(r).dump() << "\n";
  } else if (format == "csv") {
    if (r.query.axes.size() == 1) {
      report << "empty,open,feasible,infeasible,probes\n"
             << csv_boundary(r.boundary) << "\n";
    } else {
      report << "value,empty,open,feasible,infeasible,probes\n";
      for (const RegionColumn& col : r.columns) {
        std::string num;
        append_double(num, col.value);
        report << num << "," << csv_boundary(col.boundary) << "\n";
      }
    }
  } else if (format == "table") {
    if (!r.query.target.empty()) report << "target: " << r.query.target << "\n";
    char head[96];
    std::snprintf(head, sizeof(head),
                  "horizon: %.6g; probes: %d (%d incremental)\n", r.horizon,
                  r.probes, r.incremental_probes);
    report << head;
    for (std::size_t i = 0; i < r.query.axes.size(); ++i) {
      report << "axis " << (i + 1) << ": " << axis_synopsis(r.query.axes[i])
             << "\n";
    }
    if (r.query.axes.size() == 1) {
      report << "boundary: " << format_boundary(r.boundary) << "\n";
    } else {
      for (const RegionColumn& col : r.columns) {
        char val[48];
        std::snprintf(val, sizeof(val), "%12.6g  ", col.value);
        report << val << format_boundary(col.boundary) << "\n";
      }
    }
  } else {
    std::fprintf(stderr, "region: unknown format '%s' (table, csv, json)\n",
                 format.c_str());
    return 2;
  }
  if (r.query.axes.size() == 1) {
    all_empty = r.boundary.empty;
  } else {
    for (const RegionColumn& col : r.columns) {
      if (!col.boundary.empty) all_empty = false;
    }
  }

  const std::string out_path = opts.get("out", "");
  if (out_path.empty()) {
    std::fputs(report.str().c_str(), stdout);
  } else if (!write_text_file(out_path, report.str())) {
    std::fprintf(stderr, "cannot write '%s'\n", out_path.c_str());
    return 2;
  }
  session.print_stats(stderr);
  if (!session.write_exports()) return 2;
  return all_empty ? 1 : 0;
}

bool json_path(const std::string& path);  // defined with the loaders below

/// Parse a tenant manifest ("name [system-file]" per line; '#' comments) and
/// fill `registry`. The base analysis runs once per distinct system source
/// (the positional FILE when the path column is omitted); tenants receive
/// clone_committed() copies, so 1000 tenants cost one analysis, not 1000.
/// Reports and returns false on any error.
bool build_tenant_registry(const std::string& manifest_path,
                           const Options& opts, const System& base,
                           const service::SessionConfig& base_cfg,
                           service::TenantRegistry& registry) {
  std::ifstream mf(manifest_path);
  if (!mf) {
    std::fprintf(stderr, "cannot read '%s'\n", manifest_path.c_str());
    return false;
  }
  std::map<std::string, std::unique_ptr<service::AdmissionSession>> protos;
  auto proto_for = [&](const std::string& path) -> service::AdmissionSession* {
    const auto it = protos.find(path);
    if (it != protos.end()) return it->second.get();
    System sys;
    service::SessionConfig cfg = base_cfg;
    if (path.empty()) {
      sys = base;
    } else {
      ParsedSystem parsed = json_path(path) ? load_system_json_file(path)
                                            : load_system_file(path);
      if (!parsed.ok) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), parsed.error.c_str());
        return nullptr;
      }
      sys = std::move(parsed.system);
      if (!apply_priorities(sys, opts.get("priorities", "keep"))) {
        return nullptr;
      }
      // Per-source pinned horizon, same rule as the base system's.
      cfg.analysis.horizon =
          opts.get_double("horizon", default_horizon(sys, cfg.analysis));
    }
    auto proto =
        std::make_unique<service::AdmissionSession>(std::move(sys), cfg);
    if (!proto->last().ok) {
      std::fprintf(stderr, "tenant system '%s': base analysis failed: %s\n",
                   path.empty() ? "(base)" : path.c_str(),
                   proto->last().error.c_str());
      return nullptr;
    }
    return protos.emplace(path, std::move(proto)).first->second.get();
  };

  std::string line;
  int line_no = 0;
  while (std::getline(mf, line)) {
    ++line_no;
    std::istringstream fields(line);
    std::string name;
    std::string path;
    if (!(fields >> name) || name[0] == '#') continue;
    fields >> path;
    service::AdmissionSession* proto = proto_for(path);
    if (proto == nullptr) return false;
    if (registry.add(name, proto->clone_committed()) < 0) {
      std::fprintf(stderr, "%s:%d: duplicate tenant '%s'\n",
                   manifest_path.c_str(), line_no, name.c_str());
      return false;
    }
  }
  if (registry.count() == 0) {
    std::fprintf(stderr, "%s: no tenants\n", manifest_path.c_str());
    return false;
  }
  return true;
}

int cmd_serve(const Options& opts, System system) {
  if (!check_flags("serve", opts)) return 2;
  if (!apply_priorities(system, opts.get("priorities", "keep"))) return 2;
  const std::string requests_path = opts.get("requests", "");
  if (requests_path.empty()) {
    std::fprintf(stderr, "serve: --requests FILE is required\n");
    return 2;
  }
  std::ifstream in(requests_path);
  if (!in) {
    std::fprintf(stderr, "cannot read '%s'\n", requests_path.c_str());
    return 2;
  }

  ObsSession session = ObsSession::from_options(opts);
  // --metrics-prom implies a registry: the periodic flusher and the in-band
  // `stats` verb both read from it.
  const std::string prom_path = opts.get("metrics-prom", "");
  if (!prom_path.empty() && session.metrics == nullptr) {
    session.metrics = std::make_unique<obs::MetricsRegistry>();
  }
  service::SessionConfig cfg;
  cfg.analysis = analysis_config(opts);
  cfg.analysis.observer = session.observer();
  // Pin the horizon so edits never shift it and every request can take the
  // incremental path (see admission_session.hpp).
  cfg.analysis.horizon =
      opts.get_double("horizon", default_horizon(system, cfg.analysis));

  const std::string tenants_path = opts.get("tenants-from", "");
  if (tenants_path.empty() && !opts.get("shards", "").empty()) {
    std::fprintf(stderr, "serve: --shards requires --tenants-from\n");
    return 2;
  }
  // One pooled grain at a time: a tenant's region columns would otherwise
  // start a pool inside a shard worker.
  if (opts.get_int("shards", 1) != 1 && opts.get_int("threads", 1) != 1) {
    std::fprintf(stderr,
                 "serve: --shards other than 1 requires --threads 1\n");
    return 2;
  }

  std::unique_ptr<service::AdmissionSession> admission;
  service::TenantRegistry registry;
  if (tenants_path.empty()) {
    admission =
        std::make_unique<service::AdmissionSession>(std::move(system), cfg);
  } else if (!build_tenant_registry(tenants_path, opts, system, cfg,
                                    registry)) {
    return 2;
  }

  std::unique_ptr<service::PromFlusher> prom;
  if (!prom_path.empty()) {
    prom = std::make_unique<service::PromFlusher>(
        *session.metrics, prom_path,
        opts.get_double("prom-interval-ms",
                        table_default_double("serve", "prom-interval-ms")));
  }

  // Everything past this point funnels through one exit so the observability
  // exports (--metrics-json/--trace-json/--trace-jsonl/--metrics-prom) are
  // flushed on EVERY path out -- stream write failures and timeout-heavy
  // error runs included, not just the happy path.
  const int stream_rc = [&]() -> int {
    if (admission != nullptr && !admission->last().ok) {
      std::fprintf(stderr, "base system analysis failed: %s\n",
                   admission->last().error.c_str());
      return 2;
    }

    service::StreamOptions stream;
    stream.max_inflight =
        static_cast<int>(opts.get_int("max-inflight", stream.max_inflight));
    stream.request_timeout_ms =
        opts.get_double("request-timeout-ms", stream.request_timeout_ms);

    // Responses own stdout (JSONL); the human-facing summary goes to stderr.
    auto run = [&](std::ostream& os) -> int {
      if (admission != nullptr) {
        const service::RunnerStats stats =
            service::run_request_stream(*admission, in, os, stream);
        std::fprintf(stderr,
                     "served %d requests (%d failed, %d threw, %d timed out, "
                     "%d rejected, %d coalesced); %d jobs admitted\n",
                     stats.requests, stats.errors, stats.failures,
                     stats.timeouts, stats.rejected, stats.coalesced,
                     admission->system().job_count());
        return stats.errors == 0 ? 0 : 1;
      }
      // Multi-tenant: every tenant's scheduler applies the same options
      // (docs/api.md, sharded_scheduler.hpp).
      service::ShardedOptions sharded;
      sharded.shards = static_cast<int>(opts.get_int("shards", 1));
      sharded.stream = stream;
      const service::ShardedStats stats = service::run_sharded_stream(
          registry, in, os, sharded, session.observer());
      std::fprintf(stderr,
                   "served %d requests for %d tenants on %d shards "
                   "(%d failed, %d threw, %d timed out, %d shed, "
                   "%d coalesced, %llu unrouted, %llu pumps)\n",
                   stats.stream.requests, registry.count(), stats.shards,
                   stats.stream.errors, stats.stream.failures,
                   stats.stream.timeouts, stats.stream.rejected,
                   stats.stream.coalesced,
                   static_cast<unsigned long long>(stats.unrouted),
                   static_cast<unsigned long long>(stats.pumps));
      return stats.stream.errors == 0 ? 0 : 1;
    };

    const std::string out_path = opts.get("out", "");
    if (out_path.empty()) {
      const int rc = run(std::cout);
      std::cout.flush();
      if (!std::cout) {
        std::fprintf(stderr, "write to stdout failed\n");
        return 2;
      }
      return rc;
    }
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot write '%s'\n", out_path.c_str());
      return 2;
    }
    const int rc = run(out);
    out.flush();
    if (!out) {
      std::fprintf(stderr, "write to '%s' failed\n", out_path.c_str());
      return 2;
    }
    return rc;
  }();

  session.print_stats(stderr);
  bool exported = session.write_exports();
  if (prom != nullptr && !prom->stop_and_flush()) {
    std::fprintf(stderr, "cannot write '%s'\n", prom_path.c_str());
    exported = false;
  }
  if (stream_rc == 0 && !exported) return 2;
  return stream_rc;
}

/// Whether a system path selects the JSON on-disk format (docs/api.md).
bool json_path(const std::string& path) {
  const std::string ext = ".json";
  return path.size() >= ext.size() &&
         path.compare(path.size() - ext.size(), ext.size(), ext) == 0;
}

int cmd_generate(const Options& opts) {
  if (!check_flags("generate", opts)) return 2;
  JobShopConfig cfg;
  cfg.stages = opts.get_int("stages", table_default_int("generate", "stages"));
  cfg.processors_per_stage =
      opts.get_int("procs", table_default_int("generate", "procs"));
  cfg.jobs = opts.get_int("jobs", table_default_int("generate", "jobs"));
  cfg.utilization =
      opts.get_double("util", table_default_double("generate", "util"));
  cfg.pattern = opts.get_bool("aperiodic", false)
                    ? ArrivalPattern::kAperiodic
                    : ArrivalPattern::kPeriodic;
  const std::string sched =
      opts.get("scheduler", table_default("generate", "scheduler"));
  const auto kind = parse_scheduler_kind(sched);
  if (!kind) {
    std::fprintf(stderr, "unknown scheduler '%s'\n", sched.c_str());
    return 2;
  }
  cfg.scheduler = *kind;
  Rng rng(opts.get_int("seed", table_default_int("generate", "seed")));
  System system = generate_jobshop(cfg, rng);
  assign_proportional_deadline_monotonic(system);

  const std::string out = opts.get("out", "");
  if (out.empty()) {
    std::printf("%s", to_system_text(system).c_str());
  } else if (json_path(out) ? !save_system_json_file(system, out)
                            : !save_system_file(system, out)) {
    std::fprintf(stderr, "cannot write '%s'\n", out.c_str());
    return 2;
  } else {
    std::printf("wrote %s\n", out.c_str());
  }
  return 0;
}

/// Load a system in either on-disk format, chosen by extension.
ParsedSystem load_any_system(const std::string& path) {
  return json_path(path) ? load_system_json_file(path)
                         : load_system_file(path);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const CommandSpec* spec = find_command(cmd);
  if (spec == nullptr) return usage();
  const Options opts = Options::parse(argc - 1, argv + 1);
  // `rta_cli <cmd> --help` works without a FILE argument.
  if (opts.get_bool("help", false)) return print_command_help(*spec);

  if (cmd == "generate") return cmd_generate(opts);

  if (opts.positional().empty()) return usage();
  const ParsedSystem parsed = load_any_system(opts.positional().front());
  if (!parsed.ok) {
    std::fprintf(stderr, "%s\n", parsed.error.c_str());
    return 2;
  }

  if (cmd == "analyze") return cmd_analyze(opts, parsed.system);
  if (cmd == "simulate") return cmd_simulate(opts, parsed.system);
  if (cmd == "validate") return cmd_validate(opts, parsed.system);
  if (cmd == "curves") return cmd_curves(opts, parsed.system);
  if (cmd == "trace") return cmd_trace(opts, parsed.system);
  if (cmd == "region") return cmd_region(opts, parsed.system);
  if (cmd == "serve") return cmd_serve(opts, parsed.system);
  return usage();
}
