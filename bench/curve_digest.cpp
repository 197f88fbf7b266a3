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
          }
        }
      }
    }
  }
  return 0;
}
