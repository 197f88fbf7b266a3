#include "analysis/analyzer.hpp"

#include "analysis/bounds.hpp"
#include "analysis/holistic.hpp"
#include "analysis/iterative.hpp"
#include "analysis/order.hpp"
#include "analysis/spp_exact.hpp"

namespace rta {

const char* method_name(Method m) {
  switch (m) {
    case Method::kSppExact: return "SPP/Exact";
    case Method::kSppSL: return "SPP/S&L";
    case Method::kSpnpApp: return "SPNP/App";
    case Method::kFcfsApp: return "FCFS/App";
    case Method::kSppApp: return "SPP/App";
  }
  return "?";
}

SchedulerKind method_scheduler(Method m) {
  switch (m) {
    case Method::kSppExact:
    case Method::kSppSL:
    case Method::kSppApp:
      return SchedulerKind::kSpp;
    case Method::kSpnpApp:
      return SchedulerKind::kSpnp;
    case Method::kFcfsApp:
      return SchedulerKind::kFcfs;
  }
  return SchedulerKind::kSpp;
}

const char* engine_kind_name(EngineKind kind) {
  switch (kind) {
    case EngineKind::kAuto: return "auto";
    case EngineKind::kSppExact: return "spp-exact";
    case EngineKind::kBounds: return "bounds";
    case EngineKind::kIterative: return "iterative";
    case EngineKind::kHolistic: return "holistic";
  }
  return "?";
}

std::optional<EngineKind> parse_engine_kind(const std::string& name) {
  if (name == "auto") return EngineKind::kAuto;
  if (name == "spp-exact") return EngineKind::kSppExact;
  if (name == "bounds") return EngineKind::kBounds;
  if (name == "iterative") return EngineKind::kIterative;
  if (name == "holistic") return EngineKind::kHolistic;
  return std::nullopt;
}

Analyzer::Analyzer(AnalysisConfig config) : config_(config) {}

Analyzer::~Analyzer() = default;

const ExactSppAnalyzer& Analyzer::exact() const {
  MutexLock lock(mutex_);
  if (exact_ == nullptr) exact_ = std::make_unique<ExactSppAnalyzer>(config_);
  return *exact_;
}

const BoundsAnalyzer& Analyzer::bounds() const {
  MutexLock lock(mutex_);
  if (bounds_ == nullptr) bounds_ = std::make_unique<BoundsAnalyzer>(config_);
  return *bounds_;
}

const IterativeBoundsAnalyzer& Analyzer::iterative() const {
  MutexLock lock(mutex_);
  if (iterative_ == nullptr) {
    iterative_ = std::make_unique<IterativeBoundsAnalyzer>(config_);
  }
  return *iterative_;
}

const HolisticAnalyzer& Analyzer::holistic() const {
  MutexLock lock(mutex_);
  if (holistic_ == nullptr) {
    holistic_ = std::make_unique<HolisticAnalyzer>(config_);
  }
  return *holistic_;
}

EngineKind Analyzer::select_engine(const System& system) const {
  if (dependency_order(system)) {
    bool all_spp = true;
    for (int p = 0; p < system.processor_count(); ++p) {
      if (system.scheduler(p) != SchedulerKind::kSpp) all_spp = false;
    }
    if (all_spp) return EngineKind::kSppExact;
    return EngineKind::kBounds;
  }
  return EngineKind::kIterative;
}

AnalysisResult Analyzer::analyze(const System& system, EngineKind kind,
                                 std::string* engine_used) const {
  if (kind == EngineKind::kAuto) kind = select_engine(system);
  switch (kind) {
    case EngineKind::kSppExact:
      if (engine_used != nullptr) *engine_used = ExactSppAnalyzer::name();
      return exact().analyze(system);
    case EngineKind::kBounds:
      if (engine_used != nullptr) *engine_used = BoundsAnalyzer::name();
      return bounds().analyze(system);
    case EngineKind::kIterative:
      if (engine_used != nullptr) *engine_used = IterativeBoundsAnalyzer::name();
      return iterative().analyze(system);
    case EngineKind::kHolistic:
      if (engine_used != nullptr) *engine_used = HolisticAnalyzer::name();
      return holistic().analyze(system);
    case EngineKind::kAuto:
      break;  // unreachable: resolved above
  }
  AnalysisResult r;
  r.error = "unknown engine kind";
  return r;
}

AnalysisResult Analyzer::analyze(const System& system, Method m) const {
  switch (m) {
    case Method::kSppExact:
      return exact().analyze(system);
    case Method::kSppSL:
      return holistic().analyze(system);
    case Method::kSpnpApp:
    case Method::kFcfsApp:
    case Method::kSppApp:
      return bounds().analyze(system);
  }
  return {};
}

AnalysisResult analyze_with(Method method, const System& system,
                            const AnalysisConfig& config) {
  return Analyzer(config).analyze(system, method);
}

}  // namespace rta
