// Bit-identity digests of the analysis: every recorded curve, local bound
// and wcrt, hashed exactly.
//
// For each system -- every examples/systems/*.rts file, then a fixed,
// seeded corpus of generated job shops -- the tool runs the auto, bounds and
// iterative engines with record_curves on and prints one line per engine:
//
//   <system> <engine> <ok|rejected> <fnv1a-64 digest>
//
// The digest is FNV-1a over the hex-float text ("%a") of the horizon, each
// job's wcrt, each hop's local bound and the knots (time, left limit, right
// value) of the hop's five recorded curves, so any changed bit changes it.
//
// Every system with an SPP processor then gets one more line,
//
//   <system> session <ok|rejected> <fnv1a-64 digest>
//
// from a seeded stream through one service::AdmissionSession at a pinned
// horizon: lowest-priority candidates of 1-3 hops on the SPP processors
// (periodic or bursty first-hop arrivals, some with two hops on one
// processor) probed with read_what_if -- the fast what-if path -- and
// interleaved with committed and refused admits and with removes. The
// digest covers each answer's verdict, job id, max_wcrt, horizon and
// explain hop bounds.
// A change meant to keep results bit-identical is checked by running the
// tool at the parent commit and at the change and diffing the two outputs.
// There is no golden value: the output is only ever compared with itself.
//
// Flags: --examples DIR (default examples/systems)
//        --per-config N (default 6): generated shops per configuration, over
//        SPP/SPNP/FCFS x periodic/aperiodic x utilization 0.5/0.8/0.95 x
//        1 or 2 processors per stage (36 configurations).
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "io/system_text.hpp"
#include "model/priority.hpp"
#include "service/admission_session.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "workload/jobshop.hpp"

using namespace rta;

namespace {

class Fnv1a {
 public:
  void add(const char* s) {
    for (; *s != '\0'; ++s) {
      hash_ ^= static_cast<unsigned char>(*s);
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double x) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a;", x);
    add(buf);
  }
  void add(const PwlCurve& c) {
    const CurveView v = c.view();
    for (std::size_t i = 0; i < v.n; ++i) {
      add(v.t[i]);
      add(v.l[i]);
      add(v.r[i]);
    }
    add("|");
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t digest(const AnalysisResult& r) {
  Fnv1a h;
  h.add(r.horizon);
  for (const JobReport& job : r.jobs) {
    h.add(job.wcrt);
    for (const SubjobReport& hop : job.hops) {
      h.add(hop.local_bound);
      for (const SubjobCurves& c : hop.curves) {
        h.add(c.arrival_upper);
        h.add(c.arrival_lower);
        h.add(c.service_upper);
        h.add(c.service_lower);
        h.add(c.departure_lower);
      }
    }
  }
  return h.value();
}

void print_digests(const Analyzer& analyzer, const std::string& name,
                   const System& system) {
  for (const EngineKind kind :
       {EngineKind::kAuto, EngineKind::kBounds, EngineKind::kIterative}) {
    const AnalysisResult r = analyzer.analyze(system, kind);
    std::printf("%s %s %s %016" PRIx64 "\n", name.c_str(),
                engine_kind_name(kind), r.ok ? "ok" : "rejected", digest(r));
  }
}

/// One candidate of the session stream: 1-3 hops on `spp` processors at
/// the lowest priorities, arrivals periodic, a burst then periodic, or
/// Eq. 27 bursty over the committed window.
Job session_candidate(Rng& rng, const System& committed,
                      const std::vector<int>& spp, int serial) {
  Job job;
  job.name += 's';
  job.name += std::to_string(serial);
  const int hops = rng.uniform_int(1, 3);
  double exec_total = 0.0;
  for (int h = 0; h < hops; ++h) {
    Subjob s;
    s.processor = spp[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(spp.size()) - 1))];
    s.exec_time = rng.uniform(0.01, 0.1);
    exec_total += s.exec_time;
    job.chain.push_back(s);
  }
  const Time period = rng.uniform(1.0, 6.0);
  const Time window = std::max<Time>(committed.last_release(), 4.0 * period);
  switch (rng.uniform_int(0, 2)) {
    case 0:
      job.arrivals = ArrivalSequence::periodic(period, window);
      break;
    case 1:
      job.arrivals = ArrivalSequence::burst_then_periodic(
          static_cast<std::size_t>(rng.uniform_int(2, 6)), 0.1 * period,
          period, window);
      break;
    default:
      job.arrivals = ArrivalSequence::bursty_eq27(rng.uniform(0.3, 0.7),
                                                  window);
      break;
  }
  job.deadline = exec_total * rng.uniform(2.0, 20.0) + period;
  service::assign_lowest_priorities(committed, job);
  return job;
}

void add_read(Fnv1a& h, const service::ReadDecision& rd) {
  h.add(rd.ok ? "ok" : "err");
  h.add(rd.admitted ? "A" : "R");
  h.add(rd.schedulable ? "S" : "U");
  h.add(std::to_string(rd.job_id).c_str());
  h.add(rd.max_wcrt);
  h.add(rd.horizon);
  h.add(rd.explain.wcrt);
  for (const service::ExplainHop& hop : rd.explain.hops) h.add(hop.bound);
  h.add("|");
}

/// The session line of `system` (nothing when it has no SPP processor).
void print_session_digest(const std::string& name, const System& system,
                          std::uint64_t seed) {
  std::vector<int> spp;
  for (int p = 0; p < system.processor_count(); ++p) {
    if (system.scheduler(p) == SchedulerKind::kSpp) spp.push_back(p);
  }
  if (spp.empty()) return;
  service::SessionConfig cfg;
  cfg.analysis.horizon = 4.0 * default_horizon(system, AnalysisConfig{});
  service::AdmissionSession session(system, cfg);
  Fnv1a h;
  if (session.last().ok) {
    Rng rng(seed);
    std::vector<std::uint64_t> admitted;
    for (int step = 0; step < 24; ++step) {
      const int kind = rng.uniform_int(0, 9);
      if (kind < 2 && !admitted.empty()) {
        const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<int>(admitted.size()) - 1));
        add_read(h, service::AdmissionSession::summarize(
                        session.remove(admitted[pick])));
        admitted.erase(admitted.begin() + static_cast<std::ptrdiff_t>(pick));
        continue;
      }
      const Job job = session_candidate(rng, session.system(), spp, step);
      if (kind < 4) {
        const service::Decision d = session.admit(job);
        if (d.committed) admitted.push_back(d.job_id);
        add_read(h, service::AdmissionSession::summarize(d));
      } else {
        add_read(h, session.read_what_if(job));
      }
    }
  }
  std::printf("%s session %s %016" PRIx64 "\n", name.c_str(),
              session.last().ok ? "ok" : "rejected", h.value());
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = Options::parse(argc, argv);
  const std::string dir = opts.get("examples", "examples/systems");
  const long long per_config = opts.get_int("per-config", 6);

  AnalysisConfig config;
  config.record_curves = true;
  const Analyzer analyzer(config);

  std::vector<std::filesystem::path> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".rts") files.push_back(entry.path());
  }
  if (ec || files.empty()) {
    std::fprintf(stderr, "no .rts files in '%s'\n", dir.c_str());
    return 1;
  }
  std::sort(files.begin(), files.end());
  for (const std::filesystem::path& path : files) {
    const ParsedSystem parsed = load_system_file(path.string());
    if (!parsed.ok) {
      std::fprintf(stderr, "%s\n", parsed.error.c_str());
      return 1;
    }
    print_digests(analyzer, path.filename().string(), parsed.system);
    print_session_digest(path.filename().string(), parsed.system, 1);
  }

  std::uint64_t seed = 1;
  for (const SchedulerKind sched :
       {SchedulerKind::kSpp, SchedulerKind::kSpnp, SchedulerKind::kFcfs}) {
    for (const ArrivalPattern pattern :
         {ArrivalPattern::kPeriodic, ArrivalPattern::kAperiodic}) {
      for (const double util : {0.5, 0.8, 0.95}) {
        for (const std::size_t procs : {1u, 2u}) {
          for (long long i = 0; i < per_config; ++i, ++seed) {
            JobShopConfig cfg;
            cfg.stages = 3;
            cfg.processors_per_stage = procs;
            cfg.jobs = 6;
            cfg.pattern = pattern;
            cfg.utilization = util;
            cfg.scheduler = sched;
            Rng rng(seed);
            System system = generate_jobshop(cfg, rng);
            assign_proportional_deadline_monotonic(system);
            print_digests(analyzer, "gen" + std::to_string(seed), system);
            print_session_digest("gen" + std::to_string(seed), system, seed);
          }
        }
      }
    }
  }
  return 0;
}
