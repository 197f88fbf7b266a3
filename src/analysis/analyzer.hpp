// Unified analysis facade: one entry point over every analyzer.
//
// Historically each analyzer (ExactSppAnalyzer, BoundsAnalyzer,
// IterativeBoundsAnalyzer, HolisticAnalyzer) was constructed ad hoc at its
// call site, and the paper-method dispatch (§5.1's table rows) lived in
// the evaluation harness. rta::Analyzer owns both dispatch axes and is the
// single public entry point for running an analysis:
//
//   * EngineKind -- *which machinery* runs (exact trace analysis, acyclic
//     wavefront bounds, the cyclic fixed point, or the holistic baseline),
//     with kAuto picking the strongest applicable engine the way
//     `rta_cli analyze` always has: exact on all-SPP acyclic systems,
//     bounds on acyclic systems, the iterative fixed point otherwise.
//
//   * Method -- the paper's §5.1 evaluation rows (SPP/Exact, SPP/S&L,
//     SPNP/App, FCFS/App plus the SPP/App ablation), i.e. an engine choice
//     *named by the scheduling policy it evaluates*.
//
// One Analyzer instance reuses its engines across analyze() calls, so the
// engines' ThreadPools amortize over repeated analyses (the admission
// session does not go through it: it analyzes serially and owns no pool).
// Engines are created lazily under a mutex;
// analyze() itself is safe to call concurrently (the underlying engines
// are).
//
// Results are bit-identical to constructing the underlying analyzer
// directly with the same AnalysisConfig.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "analysis/result.hpp"
#include "model/system.hpp"
#include "util/thread_annotations.hpp"

namespace rta {

class ExactSppAnalyzer;
class BoundsAnalyzer;
class IterativeBoundsAnalyzer;
class HolisticAnalyzer;

/// The analysis methods of §5.1 (plus SPP/App, our ablation of the bounds
/// machinery on preemptive processors).
enum class Method {
  kSppExact,  ///< §4.1 exact analysis, SPP scheduling
  kSppSL,     ///< Sun & Liu holistic baseline, SPP scheduling
  kSpnpApp,   ///< §4.2.2 bounds, SPNP scheduling
  kFcfsApp,   ///< §4.2.3 bounds, FCFS scheduling
  kSppApp,    ///< §4.2.2 bounds with b = 0, SPP scheduling (ablation)
};

[[nodiscard]] const char* method_name(Method m);
[[nodiscard]] SchedulerKind method_scheduler(Method m);

/// The analysis machineries the facade can run.
enum class EngineKind {
  kAuto,       ///< strongest applicable: exact > bounds > iterative
  kSppExact,   ///< ExactSppAnalyzer (§4.1)
  kBounds,     ///< BoundsAnalyzer (§4.2, acyclic wavefront)
  kIterative,  ///< IterativeBoundsAnalyzer (§6 fixed point)
  kHolistic,   ///< HolisticAnalyzer (Sun & Liu baseline)
};

/// CLI spelling ("auto", "spp-exact", "bounds", "iterative", "holistic").
[[nodiscard]] const char* engine_kind_name(EngineKind kind);

/// Inverse of engine_kind_name; nullopt for unknown spellings.
[[nodiscard]] std::optional<EngineKind> parse_engine_kind(
    const std::string& name);

/// The unified facade. Construct once with an AnalysisConfig, then analyze
/// as many systems as desired through it.
class Analyzer {
 public:
  explicit Analyzer(AnalysisConfig config = {});
  ~Analyzer();

  Analyzer(const Analyzer&) = delete;
  Analyzer& operator=(const Analyzer&) = delete;

  /// Analyze with an explicit engine (kAuto resolves per system). When
  /// `engine_used` is non-null it receives the display name of the engine
  /// that actually ran.
  [[nodiscard]] AnalysisResult analyze(const System& system,
                                       EngineKind kind = EngineKind::kAuto,
                                       std::string* engine_used = nullptr) const;

  /// Analyze with a paper method (§5.1). The system's schedulers must
  /// already match the method (callers typically install
  /// method_scheduler(m) on every processor first).
  [[nodiscard]] AnalysisResult analyze(const System& system, Method m) const;

  /// The engine kAuto would pick for `system`.
  [[nodiscard]] EngineKind select_engine(const System& system) const;

  [[nodiscard]] const AnalysisConfig& config() const { return config_; }

 private:
  /// Lazily created engines, shared across analyze() calls so their pools
  /// amortize over repeated analyses.
  [[nodiscard]] const ExactSppAnalyzer& exact() const;
  [[nodiscard]] const BoundsAnalyzer& bounds() const;
  [[nodiscard]] const IterativeBoundsAnalyzer& iterative() const;
  [[nodiscard]] const HolisticAnalyzer& holistic() const;

  AnalysisConfig config_;
  /// Guards lazy engine creation only: the pointers below are set once
  /// under mutex_; the engines themselves are internally thread-safe and
  /// used outside the lock.
  mutable Mutex mutex_;
  mutable std::unique_ptr<ExactSppAnalyzer> exact_ RTA_GUARDED_BY(mutex_);
  mutable std::unique_ptr<BoundsAnalyzer> bounds_ RTA_GUARDED_BY(mutex_);
  mutable std::unique_ptr<IterativeBoundsAnalyzer> iterative_
      RTA_GUARDED_BY(mutex_);
  mutable std::unique_ptr<HolisticAnalyzer> holistic_ RTA_GUARDED_BY(mutex_);
};

/// Analyze `system` (schedulers already set, priorities already assigned)
/// with `method`. For kSppSL on non-periodic arrivals the result has
/// ok == false (the baseline does not apply, §5.2). Equivalent to
/// Analyzer(config).analyze(system, method); prefer a long-lived Analyzer
/// when analyzing many systems.
[[nodiscard]] AnalysisResult analyze_with(Method method, const System& system,
                                          const AnalysisConfig& config);

}  // namespace rta
