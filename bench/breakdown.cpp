// Extra experiment: breakdown utilization per analysis method.
//
// For each stage count, draws random job sets and bisects the utilization
// knob to the largest value each method still admits. The method ordering of
// Figures 3/4 collapses into mean breakdown utilizations: SPP/Exact admits
// the most load; SPP/S&L trails it by an amount growing with the stage
// count; SPNP/App and FCFS/App sit far lower.
//
// Flags: --systems N (default 25)  --jobs N (default 6)  --seed S
//        --aperiodic (use Eq. 27 arrivals; drops SPP/S&L)  --out FILE.csv
#include <cstdio>

#include "support/breakdown.hpp"
#include "support/csv.hpp"
#include "support/stats.hpp"
#include "util/options.hpp"

using namespace rta;

int main(int argc, char** argv) {
  const Options opts = Options::parse(argc, argv);
  const std::size_t systems = opts.get_int("systems", 25);
  const std::size_t jobs = opts.get_int("jobs", 6);
  const std::uint64_t seed = opts.get_int("seed", 31);
  const bool aperiodic = opts.get_bool("aperiodic", false);
  const std::string out = opts.get("out", "breakdown.csv");

  std::vector<Method> methods = {Method::kSppExact, Method::kSppSL,
                                 Method::kSpnpApp, Method::kFcfsApp};
  if (aperiodic) {
    methods = {Method::kSppExact, Method::kSpnpApp, Method::kFcfsApp};
  }

  std::printf("Mean breakdown utilization (knob units) per method, %s "
              "arrivals, %zu systems/cell\n\n",
              aperiodic ? "bursty (Eq. 27)" : "periodic", systems);
  std::printf("%7s", "stages");
  for (Method m : methods) std::printf("  %10s", method_name(m));
  std::printf("\n");

  CsvWriter csv({"stages", "method", "mean_breakdown", "min_breakdown",
                 "max_breakdown"});

  for (std::size_t stages : {1ul, 2ul, 4ul}) {
    std::printf("%7zu", stages);
    for (Method method : methods) {
      RunningStats stats;
      for (std::uint64_t s = 1; s <= systems; ++s) {
        JobShopConfig shop;
        shop.stages = stages;
        shop.processors_per_stage = 2;
        shop.jobs = jobs;
        shop.pattern = aperiodic ? ArrivalPattern::kAperiodic
                                 : ArrivalPattern::kPeriodic;
        shop.deadline.period_multiple = 2.0;
        shop.deadline.mean = 4.0;
        shop.deadline.variance = 16.0;
        shop.window_periods = 6.0;
        shop.min_rate = 0.15;
        stats.add(breakdown_utilization(shop, method, seed * 100 + s));
      }
      std::printf("  %10.3f", stats.mean());
      csv.add(stages, std::string(method_name(method)), stats.mean(),
              stats.min(), stats.max());
    }
    std::printf("\n");
    std::fflush(stdout);
  }

  if (csv.write_file(out)) std::printf("\nwrote %s\n", out.c_str());
  return 0;
}
