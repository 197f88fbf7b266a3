// Extra experiment: the price of trace-independence.
//
// The paper's analysis bounds the response times of ONE given release trace;
// the interval-domain envelope analyzer (src/envelope) bounds EVERY trace
// conforming to each job's arrival envelope. This bench measures what that
// generality costs: for random job shops it reports, per job class, the mean
// ratio of envelope bound / exact trace bound and envelope bound / simulated
// worst response, plus how often the envelope analysis still admits the set.
//
// Flags: --systems N (default 40)  --stages N (default 2)  --jobs N (def. 5)
//        --util U (default 0.4)    --seed S                --out FILE.csv
#include <cmath>
#include <cstdio>

#include "analysis/spp_exact.hpp"
#include "model/priority.hpp"
#include "sim/simulator.hpp"
#include "support/csv.hpp"
#include "support/envelope_analysis.hpp"
#include "support/stats.hpp"
#include "util/options.hpp"
#include "workload/jobshop.hpp"

using namespace rta;

int main(int argc, char** argv) {
  const Options opts = Options::parse(argc, argv);
  const std::size_t systems = opts.get_int("systems", 40);
  const std::size_t stages = opts.get_int("stages", 2);
  const std::size_t jobs = opts.get_int("jobs", 5);
  const double util = opts.get_double("util", 0.4);
  const std::uint64_t seed = opts.get_int("seed", 21);
  const std::string out = opts.get("out", "envelope_vs_trace.csv");

  std::printf("Trace-independent envelope bounds vs exact trace analysis\n");
  std::printf("%zu shops, stages=%zu, jobs=%zu, utilization=%.2f\n\n",
              systems, stages, jobs, util);

  CsvWriter csv({"pattern", "jobs_checked", "env_unbounded",
                 "mean_env_over_exact", "max_env_over_exact",
                 "exact_admits", "env_admits"});

  std::printf("%-10s %8s %10s %12s %12s %10s %10s\n", "pattern", "jobs",
              "env=inf", "mean e/x", "max e/x", "exact adm", "env adm");
  for (ArrivalPattern pattern :
       {ArrivalPattern::kPeriodic, ArrivalPattern::kAperiodic}) {
    RunningStats ratio;
    std::size_t checked = 0, unbounded = 0;
    std::size_t exact_admits = 0, env_admits = 0;
    for (std::uint64_t s = 1; s <= systems; ++s) {
      JobShopConfig cfg;
      cfg.stages = stages;
      cfg.processors_per_stage = 2;
      cfg.jobs = jobs;
      cfg.pattern = pattern;
      cfg.utilization = util;
      cfg.window_periods = 6.0;
      cfg.min_rate = 0.15;
      Rng rng(seed * 37 + s);
      System sys = generate_jobshop(cfg, rng);
      assign_proportional_deadline_monotonic(sys);

      const AnalysisResult exact = ExactSppAnalyzer().analyze(sys);
      const EnvelopeResult env =
          EnvelopeAnalyzer().analyze_from_traces(sys);
      if (!exact.ok || !env.ok) continue;
      if (exact.all_schedulable()) ++exact_admits;
      if (env.all_schedulable()) ++env_admits;
      for (int k = 0; k < sys.job_count(); ++k) {
        ++checked;
        if (std::isinf(env.jobs[k].wcrt)) {
          ++unbounded;
          continue;
        }
        if (exact.jobs[k].wcrt > 1e-9) {
          ratio.add(env.jobs[k].wcrt / exact.jobs[k].wcrt);
        }
      }
    }
    const char* pname =
        pattern == ArrivalPattern::kPeriodic ? "periodic" : "aperiodic";
    std::printf("%-10s %8zu %10zu %12.3f %12.3f %10zu %10zu\n", pname,
                checked, unbounded, ratio.mean(), ratio.max(), exact_admits,
                env_admits);
    csv.add(std::string(pname), checked, unbounded, ratio.mean(), ratio.max(),
            exact_admits, env_admits);
  }

  std::printf("\n(e/x = envelope bound over exact trace bound; the envelope "
              "bound covers every conforming trace, so e/x >= 1)\n");
  if (csv.write_file(out)) std::printf("wrote %s\n", out.c_str());
  return 0;
}
