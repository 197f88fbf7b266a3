// Parametric schedulability regions (ROADMAP item 4).
//
// The paper's admission question is binary: does every job meet its
// deadline under the given arrival envelope? A capacity planner needs the
// *region* instead -- how far can execution times scale, how many extra
// burst releases can land, how much can the arrival rate grow, before some
// job misses. Following the parametric-analysis literature (PAPERS.md) and
// HeRTA's algebraic view of event-bound functions, each supported parameter
// only ever *increases* load: scaling execution times, injecting releases,
// or compressing inter-arrival gaps moves every arrival/demand curve
// pointwise up, and all bound operators in the analysis preserve that
// order. The feasible set is therefore downward-closed in each parameter
// and its boundary is found by monotone binary search -- no parametric
// closed form required.
//
// Probing strategy. A query whose axes are all scoped to one target job is
// answered incrementally: clone the committed AdmissionSession, remove the
// target once, then evaluate every probe as what_if(transformed target) --
// the dirty-closure path recomputes only the subjobs the target can
// influence, not the whole system. Queries with a per-processor or global
// axis transform the full system and re-analyze it per probe (nothing
// smaller is provably clean). 2-D queries sweep a grid of axis-0 values,
// each column binary-searching axis-1; columns are independent and
// deterministic, so fanning them over a ThreadPool against per-column
// session clones returns byte-identical results to sequential probing. The
// column pool is the only pool on that path: a column's full-system
// analyzer runs serially (Sun et al.'s parametric sweep, PAPERS.md, has
// the same grain).
//
// Determinism contract: a probe's verdict equals a fresh
// BoundsAnalyzer(config.analysis) analysis of apply_axes(base, query,
// values) -- the session guarantees bit-identical bounds, and the bounds
// depend only on the job multiset, never on job order. Tests certify
// reported boundaries through exactly that independent path.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "io/json.hpp"
#include "service/admission_session.hpp"
#include "util/time.hpp"

namespace rta {

/// A parameter the region sweeps. Each is monotone: larger value => more
/// load => weakly larger response-time bounds.
enum class RegionParam {
  kExecScale,  ///< multiply execution times by v (v > 0)
  kBurst,      ///< inject floor(v) extra releases at the target's first
               ///< release instant (v >= 0; searched over integers)
  kRateScale,  ///< compress inter-arrival gaps: t' = t1 + (t - t1)/v (v > 0)
};

/// What the parameter applies to.
enum class RegionScope {
  kJob,        ///< the query's target job (default)
  kProcessor,  ///< every subjob on one processor (kExecScale only)
  kGlobal,     ///< every job (kExecScale, kRateScale)
};

[[nodiscard]] const char* region_param_name(RegionParam param);
[[nodiscard]] const char* region_scope_name(RegionScope scope);
[[nodiscard]] std::optional<RegionParam> parse_region_param(
    const std::string& name);
[[nodiscard]] std::optional<RegionScope> parse_region_scope(
    const std::string& name);

/// Default search bracket per parameter (exec_scale / rate_scale: [1, 8];
/// burst: [0, 32]) -- shared by the CLI flag defaults and the service
/// verb's optional "lo"/"hi" fields.
void region_default_bracket(RegionParam param, double& lo, double& hi);

/// One search axis: a parameter, its scope, and the bracket [lo, hi].
struct RegionAxis {
  RegionParam param = RegionParam::kExecScale;
  RegionScope scope = RegionScope::kJob;
  int processor = -1;  ///< kProcessor scope: processor index
  double lo = 1.0;
  double hi = 8.0;
};

struct RegionQuery {
  /// Job name the kJob-scoped axes transform; required iff one exists.
  std::string target;
  std::vector<RegionAxis> axes;  ///< 1 or 2 axes
  /// Absolute bisection tolerance on the axis value (continuous params;
  /// kBurst terminates exactly on integers). <= 0 selects the default.
  double tolerance = 1e-3;
  /// 2-D only: grid points on axes[0] (each one binary-searches axes[1]).
  int columns = 9;
};

/// Boundary of the downward-closed feasible set along one axis. Unless the
/// region is empty (infeasible already at lo) or open (feasible at hi),
/// `feasible` and `infeasible` bracket the true boundary within tolerance,
/// and both carry a certified probe verdict.
struct RegionBoundary {
  bool empty = false;
  bool open = false;
  double feasible = 0.0;    ///< largest probed-feasible value (unless empty)
  double infeasible = 0.0;  ///< smallest probed-infeasible value (unless open)
  int probes = 0;
};

/// One 2-D column: axis-0 fixed at `value`, axis-1 boundary searched.
struct RegionColumn {
  double value = 0.0;
  RegionBoundary boundary;
};

struct RegionResult {
  bool ok = false;
  std::string error;
  RegionQuery query;                  ///< echo of the validated query
  Time horizon = 0.0;                 ///< analysis horizon of the probes
  RegionBoundary boundary;            ///< 1-D queries
  std::vector<RegionColumn> columns;  ///< 2-D queries
  int probes = 0;                     ///< total probe count
  int incremental_probes = 0;         ///< probes on the dirty-closure path
};

class RegionAnalyzer {
 public:
  /// Own the base system: analyzed in full once, then probed per query.
  /// A zero config.analysis.horizon is pinned to the base system's default
  /// horizon so every probe can take the incremental path.
  explicit RegionAnalyzer(System base, service::SessionConfig config = {});

  /// Bind to an existing committed session (the service verb path). The
  /// session is never mutated: probes run on clone_committed() snapshots.
  explicit RegionAnalyzer(const service::AdmissionSession& session);

  ~RegionAnalyzer();
  RegionAnalyzer(const RegionAnalyzer&) = delete;
  RegionAnalyzer& operator=(const RegionAnalyzer&) = delete;

  /// Find the feasibility boundary. Obs (when the session's config carries
  /// an observer): one "service.region" span per query, one "region.probe"
  /// span and a service.region_probes counter tick per probe.
  [[nodiscard]] RegionResult run(const RegionQuery& query);

  /// The transformed system a probe at `values` (one per axis) evaluates.
  /// Exposed so tests and tools can certify a reported boundary with an
  /// independent fresh analysis. False (with `error`) on invalid queries.
  static bool apply_axes(const System& base, const RegionQuery& query,
                         const std::vector<double>& values, System& out,
                         std::string& error);

 private:
  struct Prober;

  [[nodiscard]] bool validate(RegionQuery& query, std::string& error) const;
  RegionBoundary bisect(const RegionQuery& query, std::size_t axis_index,
                        const std::vector<double>& fixed,
                        Prober& prober) const;

  const service::AdmissionSession* session_ = nullptr;  ///< probe source
  std::unique_ptr<service::AdmissionSession> owned_;    ///< when constructed
                                                        ///< from a System
};

/// Serialize a RegionResult into the JSON object the `region` CLI command
/// and the `what_if_region` service verb share (field order fixed; all
/// values deterministic, so responses are byte-identical across drivers).
[[nodiscard]] json::Value region_result_value(const RegionResult& result);

}  // namespace rta
