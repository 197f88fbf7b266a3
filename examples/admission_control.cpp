// Online admission control -- the paper's motivating use case for an
// efficient schedulability test. Streams of work request admission one at a
// time; each candidate is admitted only if the exact SPP analysis still
// proves every accepted job's deadline. The example reports how far each
// analysis method would have let the system fill up, demonstrating the
// resource-utilization benefit of tighter analysis (§1's second requirement).
//
// Flags: --candidates N (default 16)  --seed S  --stages N (default 3)
//
// Build & run:  ./build/examples/admission_control
#include <cstdio>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/result.hpp"
#include "curve/arrival.hpp"
#include "model/priority.hpp"
#include "model/system.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"

namespace {

// A random candidate job routed through one processor per stage.
rta::Job make_candidate(int index, std::size_t stages, rta::Rng& rng,
                        rta::Time window) {
  using namespace rta;
  Job job;
  job.name = "J";
  job.name += std::to_string(index);
  const double period = rng.uniform(4.0, 20.0);
  job.deadline = period * rng.uniform(1.5, 3.0);
  for (std::size_t s = 0; s < stages; ++s) {
    Subjob sub;
    sub.processor = static_cast<int>(s);
    sub.exec_time = rng.uniform(0.2, 0.9);
    job.chain.push_back(sub);
  }
  job.arrivals = rng.uniform(0.0, 1.0) < 0.5
                     ? ArrivalSequence::periodic(period, window)
                     : ArrivalSequence::bursty_eq27(1.0 / period, window);
  return job;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rta;
  const Options opts = Options::parse(argc, argv);
  const int candidates = static_cast<int>(opts.get_int("candidates", 16));
  const std::size_t stages = opts.get_int("stages", 3);
  Rng rng(opts.get_int("seed", 3));
  const Time window = 120.0;

  // One admission ledger per method; each method sees the same candidates.
  struct Ledger {
    Method method;
    System system;
    int admitted = 0;
  };
  std::vector<Ledger> ledgers;
  for (Method m : {Method::kSppExact, Method::kSppApp, Method::kSpnpApp,
                   Method::kFcfsApp}) {
    ledgers.push_back({m,
                       System(static_cast<int>(stages), method_scheduler(m)),
                       0});
  }

  std::printf("admitting up to %d candidate jobs onto a %zu-stage line\n\n",
              candidates, stages);
  std::printf("%-6s", "job");
  for (const Ledger& l : ledgers) std::printf("  %10s", method_name(l.method));
  std::printf("\n");

  for (int i = 0; i < candidates; ++i) {
    const Job candidate = make_candidate(i, stages, rng, window);
    std::printf("%-6s", candidate.name.c_str());
    for (Ledger& ledger : ledgers) {
      System trial = ledger.system;
      trial.add_job(candidate);
      assign_proportional_deadline_monotonic(trial);
      const AnalysisResult r =
          analyze_with(ledger.method, trial, AnalysisConfig{});
      const bool ok = r.ok && r.all_schedulable();
      if (ok) {
        ledger.system = std::move(trial);
        ++ledger.admitted;
      }
      std::printf("  %10s", ok ? "admit" : "reject");
    }
    std::printf("\n");
  }

  std::printf("\nadmitted totals:");
  for (const Ledger& l : ledgers) {
    std::printf("  %s=%d", method_name(l.method), l.admitted);
  }
  std::printf("\n(tighter analysis -> more admitted load on the same "
              "hardware)\n");
  return 0;
}
