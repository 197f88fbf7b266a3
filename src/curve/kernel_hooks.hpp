// Thread-local instrumentation hook interface for the curve kernels.
//
// The pointwise-algebra kernels are the innermost hot paths of the analysis;
// threading an observer through their free-function signatures would be
// invasive, and unconditional counters would tax the (default) unobserved
// runs. Instead the kernels consult one thread-local pointer:
//
//   if (curve::KernelHooks* h = curve::kernel_hooks()) h->on_pinv();
//
// The interface lives in the curve layer so the kernels depend on nothing
// above them; the metrics-backed implementation (obs::KernelSink) lives in
// the obs layer and is installed around each unit of work via
// KernelHooksScope, so pool workers and the calling thread are all covered.
// With no observer configured the pointer stays null and the kernels pay one
// thread-local load and branch -- no atomics, no virtual dispatch (the
// "zero-cost when disabled" contract; the <= 2% ceiling is checked against
// bench/micro_analysis).
#pragma once

#include <cstddef>

namespace rta::curve {

/// Events the kernels report. Implementations must be cheap and reentrant:
/// calls can arrive from any pool worker the scope was installed on.
class KernelHooks {
 public:
  virtual ~KernelHooks() = default;

  /// A pointwise merge (curve_min/max/add/sub) produced `result_knots` knots.
  virtual void on_pointwise(std::size_t result_knots) = 0;
  /// A PwlCurve::pseudo_inverse evaluation ran.
  virtual void on_pinv() = 0;
};

namespace detail {
// Defined inline and constinit so every translation unit sees a constant
// initializer: accesses compile to a plain TLS load, with no call through a
// (possibly null) dynamic-initialization wrapper.
inline constinit thread_local KernelHooks* tl_kernel_hooks = nullptr;
}  // namespace detail

/// The calling thread's hooks, or null when kernel instrumentation is off.
[[nodiscard]] inline KernelHooks* kernel_hooks() {
  return detail::tl_kernel_hooks;
}

/// Installs `hooks` (may be null) for the scope's lifetime, restoring the
/// previous hooks on exit; nests correctly with inline/recursive execution.
class KernelHooksScope {
 public:
  explicit KernelHooksScope(KernelHooks* hooks)
      : prev_(detail::tl_kernel_hooks) {
    detail::tl_kernel_hooks = hooks;
  }
  ~KernelHooksScope() { detail::tl_kernel_hooks = prev_; }

  KernelHooksScope(const KernelHooksScope&) = delete;
  KernelHooksScope& operator=(const KernelHooksScope&) = delete;

 private:
  KernelHooks* prev_;
};

}  // namespace rta::curve
