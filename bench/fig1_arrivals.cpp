// Figure 1 reproduction: arrival functions of the first subjob for a
// periodic pattern (Eq. 25) and the paper's bursty aperiodic pattern
// (Eq. 27), printed as step-function samples and released-instant tables.
//
// Flags: --x RATE (default 0.5)  --window T (default 12)  --out FILE.csv
#include <cstdio>

#include "curve/arrival.hpp"
#include "support/csv.hpp"
#include "util/options.hpp"

using namespace rta;

namespace {

void print_sequence(const char* name, const ArrivalSequence& seq,
                    Time window, CsvWriter* csv) {
  std::printf("\n%s arrivals (t_m):", name);
  for (std::size_t m = 1; m <= seq.count(); ++m) {
    std::printf(" %.3f", seq.release(m));
  }
  std::printf("\n%s f_arr(t) samples:\n  t   :", name);
  const PwlCurve f = seq.to_curve(window);
  for (double t = 0.0; t <= window + 1e-9; t += window / 12.0) {
    std::printf(" %6.2f", t);
  }
  std::printf("\n  f(t):");
  for (double t = 0.0; t <= window + 1e-9; t += window / 12.0) {
    std::printf(" %6.0f", f.eval(t));
    if (csv) csv->add(std::string(name), t, f.eval(t));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = Options::parse(argc, argv);
  const double x = opts.get_double("x", 0.5);
  const Time window = opts.get_double("window", 12.0);
  const std::string out = opts.get("out", "fig1_arrivals.csv");

  std::printf("Figure 1: arrival functions of the first subjob (x = %.2f, "
              "period 1/x = %.2f)\n", x, 1.0 / x);

  CsvWriter csv({"pattern", "t", "arrivals"});
  print_sequence("periodic (Eq.25)",
                 ArrivalSequence::periodic(1.0 / x, window), window, &csv);
  print_sequence("bursty (Eq.27)", ArrivalSequence::bursty_eq27(x, window),
                 window, &csv);

  // The defining property: the bursty pattern front-loads its releases.
  const ArrivalSequence p = ArrivalSequence::periodic(1.0 / x, window);
  const ArrivalSequence b = ArrivalSequence::bursty_eq27(x, window);
  std::printf("\nwithin [0, %.1f]: periodic releases %zu instances, bursty "
              "releases %zu\n",
              window, p.count(), b.count());

  if (csv.write_file(out)) {
    std::printf("wrote %s\n", out.c_str());
  }
  return 0;
}
