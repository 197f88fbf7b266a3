// Microbenchmarks of the curve-algebra substrate (google-benchmark):
// the operators that dominate analysis cost. BM_CurveSum and
// BM_CurveSumLeftFold race the one-pass n-ary sum against the binary fold it
// replaced, BM_CurveAvailable times the same pass shaped like
// Q̄ = t - Σ S̲hp (the identity minus K staircases), BM_CurveMinOfSums and
// BM_CurveMinOfSumsBinaryChain the fused S̄ pass against its chain of adds
// and mins, and BM_PinvSweep and BM_PinvPerLevel a pseudo-inverse sweep
// against one binary search per level.
//
// Two modes:
//   * default: the usual google-benchmark CLI, now including Legacy* twins
//     that run the knot-walking reference kernels
//     (tests/support/curve_reference.hpp) so `--benchmark_filter=Add`
//     prints flat-vs-legacy side by side;
//   * `--out FILE`: a self-timed flat-vs-legacy comparison harness that
//     writes FILE as JSON (BENCH_curve.json in CI) with ns/op for both
//     implementations and the speedup per kernel.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "curve/algebra.hpp"
#include "curve/arrival.hpp"
#include "curve/transforms.hpp"
#include "support/curve_reference.hpp"
#include "util/rng.hpp"

namespace rta {
namespace {

PwlCurve make_step(int jumps, Time horizon, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Time> times;
  times.reserve(jumps);
  for (int i = 0; i < jumps; ++i) times.push_back(rng.uniform(0.0, horizon));
  std::sort(times.begin(), times.end());
  return PwlCurve::step(horizon, times);
}

void BM_StepConstruction(benchmark::State& state) {
  const int jumps = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<Time> times;
  for (int i = 0; i < jumps; ++i) times.push_back(rng.uniform(0.0, 100.0));
  std::sort(times.begin(), times.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(PwlCurve::step(100.0, times));
  }
  state.SetComplexityN(jumps);
}
BENCHMARK(BM_StepConstruction)->Range(16, 1024)->Complexity();

void BM_CurveAdd(benchmark::State& state) {
  const int jumps = static_cast<int>(state.range(0));
  const PwlCurve a = make_step(jumps, 100.0, 1);
  const PwlCurve b = make_step(jumps, 100.0, 2);
  for (auto _ : state) benchmark::DoNotOptimize(curve_add(a, b));
  state.SetComplexityN(jumps);
}
BENCHMARK(BM_CurveAdd)->Range(16, 1024)->Complexity();

void BM_LegacyCurveAdd(benchmark::State& state) {
  const int jumps = static_cast<int>(state.range(0));
  const legacyref::Curve a = make_step(jumps, 100.0, 1).knots();
  const legacyref::Curve b = make_step(jumps, 100.0, 2).knots();
  for (auto _ : state) benchmark::DoNotOptimize(legacyref::add(a, b));
  state.SetComplexityN(jumps);
}
BENCHMARK(BM_LegacyCurveAdd)->Range(16, 1024)->Complexity();

/// K step curves of `jumps` jumps each on a shared horizon.
std::vector<PwlCurve> make_steps(int k, int jumps) {
  std::vector<PwlCurve> out;
  for (int i = 0; i < k; ++i) {
    out.push_back(make_step(jumps, 100.0, 100 + static_cast<std::uint64_t>(i)));
  }
  return out;
}

void BM_CurveSum(benchmark::State& state) {
  const std::vector<PwlCurve> curves =
      make_steps(static_cast<int>(state.range(0)), 256);
  for (auto _ : state) benchmark::DoNotOptimize(curve_sum(curves, 100.0));
}
BENCHMARK(BM_CurveSum)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

/// K staircases shaped like higher-priority service lower bounds: 256 jumps
/// each, scaled so that together they consume half of the horizon.
std::vector<PwlCurve> make_hp_services(int k) {
  std::vector<PwlCurve> out;
  for (const PwlCurve& c : make_steps(k, 256)) {
    out.push_back(curve_scale(c, 50.0 / (256.0 * k)));
  }
  return out;
}

/// Q̄ = t - Σ S̲hp: the identity base minus K staircases, in one pass.
void BM_CurveAvailable(benchmark::State& state) {
  const PwlCurve ident = PwlCurve::identity(100.0);
  const std::vector<PwlCurve> hp =
      make_hp_services(static_cast<int>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(curve_available(ident, hp));
}
BENCHMARK(BM_CurveAvailable)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

/// The left fold of binary curve_add that the one-pass curve_sum replaced.
void BM_CurveSumLeftFold(benchmark::State& state) {
  const std::vector<PwlCurve> curves =
      make_steps(static_cast<int>(state.range(0)), 256);
  for (auto _ : state) {
    PwlCurve acc = PwlCurve::zero(100.0);
    for (const PwlCurve& c : curves) acc = curve_add(acc, c);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_CurveSumLeftFold)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

/// Operands shaped like Theorem 5/6's S̄ = min(t + P1, Q̄ + P2, c̄): two
/// rising lines plus falling staircases, and a rising staircase.
struct MinOfSumsOperands {
  explicit MinOfSumsOperands(int jumps)
      : ident(PwlCurve::identity(100.0)),
        q(curve_sub(ident,
                    curve_scale(make_step(jumps, 100.0, 8), 20.0 / jumps))),
        p1(curve_scale(make_step(jumps, 100.0, 9), -100.0 / jumps)),
        p2(curve_scale(make_step(jumps, 100.0, 10), -50.0 / jumps)),
        c(curve_scale(make_step(jumps, 100.0, 11), 100.0 / jumps)) {}

  [[nodiscard]] std::vector<SumTerm> terms() const {
    return {{&ident, &p1}, {&q, &p2}, {&c}};
  }

  PwlCurve ident, q, p1, p2, c;
};

void BM_CurveMinOfSums(benchmark::State& state) {
  const MinOfSumsOperands ops(static_cast<int>(state.range(0)));
  const std::vector<SumTerm> terms = ops.terms();
  for (auto _ : state) benchmark::DoNotOptimize(curve_min_of_sums(terms));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CurveMinOfSums)->Range(16, 4096)->Complexity();

/// The binary chain curve_min_of_sums replaced: 2 adds and 2 mins.
void BM_CurveMinOfSumsBinaryChain(benchmark::State& state) {
  const MinOfSumsOperands ops(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve_min(
        curve_min(curve_add(ops.ident, ops.p1), curve_add(ops.q, ops.p2)),
        ops.c));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CurveMinOfSumsBinaryChain)->Range(16, 4096)->Complexity();

void BM_CurveMinWithCrossings(benchmark::State& state) {
  const int jumps = static_cast<int>(state.range(0));
  const PwlCurve a = make_step(jumps, 100.0, 3);
  const PwlCurve b = PwlCurve::line(100.0, a.end_value() / 100.0);
  for (auto _ : state) benchmark::DoNotOptimize(curve_min(a, b));
  state.SetComplexityN(jumps);
}
BENCHMARK(BM_CurveMinWithCrossings)->Range(16, 1024)->Complexity();

void BM_RunningMax(benchmark::State& state) {
  const int jumps = static_cast<int>(state.range(0));
  const PwlCurve f =
      curve_sub(PwlCurve::identity(100.0), make_step(jumps, 100.0, 4));
  for (auto _ : state) benchmark::DoNotOptimize(curve_running_max(f));
  state.SetComplexityN(jumps);
}
BENCHMARK(BM_RunningMax)->Range(16, 1024)->Complexity();

void BM_LegacyRunningMax(benchmark::State& state) {
  const int jumps = static_cast<int>(state.range(0));
  const legacyref::Curve f =
      curve_sub(PwlCurve::identity(100.0), make_step(jumps, 100.0, 4)).knots();
  for (auto _ : state) benchmark::DoNotOptimize(legacyref::running_max(f));
  state.SetComplexityN(jumps);
}
BENCHMARK(BM_LegacyRunningMax)->Range(16, 1024)->Complexity();

void BM_ServiceTransform(benchmark::State& state) {
  const int jumps = static_cast<int>(state.range(0));
  const PwlCurve c = curve_scale(make_step(jumps, 100.0, 5), 0.05);
  const PwlCurve avail = PwlCurve::identity(100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(service_transform(avail, c));
  }
  state.SetComplexityN(jumps);
}
BENCHMARK(BM_ServiceTransform)->Range(16, 1024)->Complexity();

void BM_LegacyServiceTransform(benchmark::State& state) {
  const int jumps = static_cast<int>(state.range(0));
  const legacyref::Curve c =
      curve_scale(make_step(jumps, 100.0, 5), 0.05).knots();
  const legacyref::Curve avail = PwlCurve::identity(100.0).knots();
  for (auto _ : state) {
    benchmark::DoNotOptimize(legacyref::service_transform(avail, c));
  }
  state.SetComplexityN(jumps);
}
BENCHMARK(BM_LegacyServiceTransform)->Range(16, 1024)->Complexity();

void BM_FloorDiv(benchmark::State& state) {
  const int jumps = static_cast<int>(state.range(0));
  const PwlCurve c = curve_scale(make_step(jumps, 100.0, 6), 0.05);
  const PwlCurve s = service_transform(PwlCurve::identity(100.0), c);
  for (auto _ : state) benchmark::DoNotOptimize(curve_floor_div(s, 0.05));
  state.SetComplexityN(jumps);
}
BENCHMARK(BM_FloorDiv)->Range(16, 1024)->Complexity();

void BM_PseudoInverse(benchmark::State& state) {
  const int jumps = static_cast<int>(state.range(0));
  const PwlCurve a = make_step(jumps, 100.0, 7);
  double level = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.pseudo_inverse(level));
    level = (level >= a.end_value()) ? 1.0 : level + 1.0;
  }
}
BENCHMARK(BM_PseudoInverse)->Range(16, 1024);

/// Every integer level of a staircase, as local_delay_bound asks for them.
void BM_PinvSweep(benchmark::State& state) {
  const PwlCurve a = make_step(static_cast<int>(state.range(0)), 100.0, 7);
  const int levels = static_cast<int>(a.end_value());
  for (auto _ : state) {
    PinvSweep sweep(a);
    for (int m = 1; m <= levels; ++m) {
      benchmark::DoNotOptimize(sweep.next(static_cast<double>(m)));
    }
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PinvSweep)->Range(16, 4096)->Complexity();

/// The same levels, one binary-searching pseudo_inverse each.
void BM_PinvPerLevel(benchmark::State& state) {
  const PwlCurve a = make_step(static_cast<int>(state.range(0)), 100.0, 7);
  const int levels = static_cast<int>(a.end_value());
  for (auto _ : state) {
    for (int m = 1; m <= levels; ++m) {
      benchmark::DoNotOptimize(a.pseudo_inverse(static_cast<double>(m)));
    }
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PinvPerLevel)->Range(16, 4096)->Complexity();

void BM_ArrivalGeneration(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ArrivalSequence::bursty_eq27(0.3, static_cast<double>(state.range(0))));
  }
}
BENCHMARK(BM_ArrivalGeneration)->Range(64, 4096);

}  // namespace
}  // namespace rta

// ---------------------------------------------------------------------------
// Self-timed flat-vs-legacy harness (`--out FILE`): the CI smoke run. Each
// kernel is timed as best-of-repeats ns/op for the production (flat SoA)
// implementation and the transplanted legacy knot-walking reference on
// identical inputs, and the pairs land in a JSON report.

namespace rta::curvebench {
namespace {

struct KernelResult {
  std::string name;
  int knots = 0;
  double flat_ns = 0.0;
  double legacy_ns = 0.0;
};

template <typename F>
double ns_per_op(F&& body, int iters, int repeats) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) body();
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(iters);
    best = std::min(best, ns);
  }
  return best;
}

std::vector<KernelResult> run_comparison() {
  std::vector<KernelResult> out;
  constexpr int kRepeats = 5;

  const auto probe_grid = [](Time horizon, int n) {
    Rng rng(42);
    std::vector<Time> ts;
    ts.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) ts.push_back(rng.uniform(0.0, horizon));
    std::sort(ts.begin(), ts.end());
    return ts;
  };

  for (const int n : {256, 1024}) {
    const PwlCurve a = make_step(n, 100.0, 1);
    const PwlCurve b = make_step(n, 100.0, 2);
    const legacyref::Curve ra = a.knots();
    const legacyref::Curve rb = b.knots();

    {
      KernelResult k{"eval_sweep", n, 0.0, 0.0};
      const std::vector<Time> ts = probe_grid(100.0, 512);
      k.flat_ns = ns_per_op(
          [&] {
            for (Time t : ts) benchmark::DoNotOptimize(a.eval(t));
          },
          200, kRepeats);
      k.legacy_ns = ns_per_op(
          [&] {
            for (Time t : ts) benchmark::DoNotOptimize(legacyref::eval(ra, t));
          },
          200, kRepeats);
      out.push_back(k);
    }
    {
      KernelResult k{"pseudo_inverse_sweep", n, 0.0, 0.0};
      std::vector<double> levels;
      for (int i = 0; i < 256; ++i) {
        levels.push_back(a.end_value() * static_cast<double>(i) / 256.0);
      }
      k.flat_ns = ns_per_op(
          [&] {
            for (double y : levels) benchmark::DoNotOptimize(a.pseudo_inverse(y));
          },
          200, kRepeats);
      k.legacy_ns = ns_per_op(
          [&] {
            for (double y : levels) {
              benchmark::DoNotOptimize(legacyref::pseudo_inverse(ra, y));
            }
          },
          200, kRepeats);
      out.push_back(k);
    }
    {
      KernelResult k{"pointwise_add", n, 0.0, 0.0};
      k.flat_ns = ns_per_op([&] { benchmark::DoNotOptimize(curve_add(a, b)); },
                            100, kRepeats);
      k.legacy_ns = ns_per_op(
          [&] { benchmark::DoNotOptimize(legacyref::add(ra, rb)); }, 100,
          kRepeats);
      out.push_back(k);
    }
    {
      KernelResult k{"min_with_crossings", n, 0.0, 0.0};
      const PwlCurve line = PwlCurve::line(100.0, a.end_value() / 100.0);
      const legacyref::Curve rline = line.knots();
      k.flat_ns = ns_per_op(
          [&] { benchmark::DoNotOptimize(curve_min(a, line)); }, 100, kRepeats);
      k.legacy_ns = ns_per_op(
          [&] { benchmark::DoNotOptimize(legacyref::min(ra, rline)); }, 100,
          kRepeats);
      out.push_back(k);
    }
    {
      KernelResult k{"running_max", n, 0.0, 0.0};
      const PwlCurve f = curve_sub(PwlCurve::identity(100.0), a);
      const legacyref::Curve rf = f.knots();
      k.flat_ns = ns_per_op(
          [&] { benchmark::DoNotOptimize(curve_running_max(f)); }, 100,
          kRepeats);
      k.legacy_ns = ns_per_op(
          [&] { benchmark::DoNotOptimize(legacyref::running_max(rf)); }, 100,
          kRepeats);
      out.push_back(k);
    }
    {
      KernelResult k{"min_scan_service_transform", n, 0.0, 0.0};
      const PwlCurve c = curve_scale(a, 0.05);
      const PwlCurve avail = PwlCurve::identity(100.0);
      const legacyref::Curve rc = c.knots();
      const legacyref::Curve ravail = avail.knots();
      k.flat_ns = ns_per_op(
          [&] { benchmark::DoNotOptimize(service_transform(avail, c)); }, 20,
          kRepeats);
      k.legacy_ns = ns_per_op(
          [&] {
            benchmark::DoNotOptimize(legacyref::service_transform(ravail, rc));
          },
          20, kRepeats);
      out.push_back(k);
    }
  }

  {
    // S̄-shaped operands: one fused min-of-sums pass vs the legacy chain of
    // 2 adds and 2 mins.
    KernelResult k{"min_of_sums_k3", 256, 0.0, 0.0};
    const MinOfSumsOperands ops(256);
    const std::vector<SumTerm> terms = ops.terms();
    const legacyref::Curve ri = ops.ident.knots();
    const legacyref::Curve rq = ops.q.knots();
    const legacyref::Curve rp1 = ops.p1.knots();
    const legacyref::Curve rp2 = ops.p2.knots();
    const legacyref::Curve rc = ops.c.knots();
    k.flat_ns = ns_per_op(
        [&] { benchmark::DoNotOptimize(curve_min_of_sums(terms)); }, 100,
        kRepeats);
    k.legacy_ns = ns_per_op(
        [&] {
          benchmark::DoNotOptimize(legacyref::min(
              legacyref::min(legacyref::add(ri, rp1), legacyref::add(rq, rp2)),
              rc));
        },
        100, kRepeats);
    out.push_back(k);
  }
  {
    // Every integer level of a 1024-jump staircase: one PinvSweep vs the
    // legacy per-level pseudo-inverse.
    KernelResult k{"pinv_level_sweep", 1024, 0.0, 0.0};
    const PwlCurve a = make_step(1024, 100.0, 7);
    const legacyref::Curve ra = a.knots();
    const int levels = static_cast<int>(a.end_value());
    k.flat_ns = ns_per_op(
        [&] {
          PinvSweep sweep(a);
          for (int m = 1; m <= levels; ++m) {
            benchmark::DoNotOptimize(sweep.next(static_cast<double>(m)));
          }
        },
        200, kRepeats);
    k.legacy_ns = ns_per_op(
        [&] {
          for (int m = 1; m <= levels; ++m) {
            benchmark::DoNotOptimize(
                legacyref::pseudo_inverse(ra, static_cast<double>(m)));
          }
        },
        200, kRepeats);
    out.push_back(k);
  }
  {
    // Eight 256-jump operands: one n-ary pass vs a left fold of the legacy
    // binary add.
    KernelResult k{"sum_k8", 256, 0.0, 0.0};
    const std::vector<PwlCurve> curves = make_steps(8, 256);
    std::vector<legacyref::Curve> rcurves;
    for (const PwlCurve& c : curves) rcurves.push_back(c.knots());
    const legacyref::Curve rzero = PwlCurve::zero(100.0).knots();
    k.flat_ns = ns_per_op(
        [&] { benchmark::DoNotOptimize(curve_sum(curves, 100.0)); }, 50,
        kRepeats);
    k.legacy_ns = ns_per_op(
        [&] {
          legacyref::Curve acc = rzero;
          for (const legacyref::Curve& c : rcurves) acc = legacyref::add(acc, c);
          benchmark::DoNotOptimize(acc);
        },
        50, kRepeats);
    out.push_back(k);
  }

  {
    // Q̄-shaped: the identity minus eight staircases in one pass vs a left
    // fold of the legacy binary sub.
    KernelResult k{"available_k8", 256, 0.0, 0.0};
    const PwlCurve ident = PwlCurve::identity(100.0);
    const std::vector<PwlCurve> hp = make_hp_services(8);
    std::vector<legacyref::Curve> rhp;
    for (const PwlCurve& c : hp) rhp.push_back(c.knots());
    const legacyref::Curve rident = ident.knots();
    k.flat_ns = ns_per_op(
        [&] { benchmark::DoNotOptimize(curve_available(ident, hp)); }, 50,
        kRepeats);
    k.legacy_ns = ns_per_op(
        [&] {
          legacyref::Curve acc = rident;
          for (const legacyref::Curve& c : rhp) acc = legacyref::sub(acc, c);
          benchmark::DoNotOptimize(acc);
        },
        50, kRepeats);
    out.push_back(k);
  }

  return out;
}

int run_and_write(const std::string& path) {
  const std::vector<KernelResult> results = run_comparison();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"micro_curve\",\n");
  std::fprintf(f, "  \"compare\": \"flat_soa_vs_legacy_knots\",\n");
  std::fprintf(f, "  \"kernels\": [\n");
  std::printf("%-28s %6s %14s %14s %9s\n", "kernel", "knots", "flat ns/op",
              "legacy ns/op", "speedup");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const KernelResult& k = results[i];
    const double speedup = k.legacy_ns / k.flat_ns;
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"knots\": %d, "
                 "\"flat_ns_per_op\": %.1f, \"legacy_ns_per_op\": %.1f, "
                 "\"speedup\": %.3f}%s\n",
                 k.name.c_str(), k.knots, k.flat_ns, k.legacy_ns, speedup,
                 i + 1 < results.size() ? "," : "");
    std::printf("%-28s %6d %14.1f %14.1f %8.2fx\n", k.name.c_str(), k.knots,
                k.flat_ns, k.legacy_ns, speedup);
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace rta::curvebench

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--out" && i + 1 < argc) {
      return rta::curvebench::run_and_write(argv[i + 1]);
    }
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
