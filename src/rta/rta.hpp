// Umbrella header: the public API of the bursty-rta library.
//
// Reproduction of Li, Bettati, Zhao, "Response Time Analysis for Distributed
// Real-Time Systems with Bursty Job Arrivals" (ICPP 1998). See README.md for
// the architecture overview and DESIGN.md for the paper-to-module map.
#pragma once

// Curve substrate (Defs. 1-7 and the service transforms).
#include "curve/algebra.hpp"
#include "curve/arrival.hpp"
#include "curve/pwl_curve.hpp"
#include "curve/transforms.hpp"

// System model (§3) and priority assignment (Eq. 24).
#include "model/priority.hpp"
#include "model/system.hpp"

// Analyzers (§4) and the holistic baseline. analysis/analyzer.hpp is the
// unified facade (engine + paper-method dispatch) and the single public
// entry point for running an analysis; see docs/api.md.
#include "analysis/analyzer.hpp"
#include "analysis/bounds.hpp"
#include "analysis/holistic.hpp"
#include "analysis/iterative.hpp"
#include "analysis/order.hpp"
#include "analysis/phase_mod.hpp"
#include "analysis/result.hpp"
#include "analysis/spp_exact.hpp"

// Interval-domain arrival envelopes (Cruz-style) and the trace-independent
// analyzer built on them.
#include "envelope/envelope.hpp"
#include "envelope/envelope_analysis.hpp"

// Text and versioned JSON system formats, curve CSV export.
#include "io/curve_csv.hpp"
#include "io/system_json.hpp"
#include "io/system_text.hpp"

// Discrete-event simulator (ground truth for validation).
#include "sim/simulator.hpp"

// Incremental admission service (docs/api.md): long-lived sessions answering
// admit / remove / what-if by dirty-set propagation over retained curves,
// plus parametric schedulability regions over the same sessions.
#include "service/region.hpp"
#include "service/admission_session.hpp"
#include "service/request_runner.hpp"

// Workload generation (§5.1) and evaluation harness (§5.2).
#include "eval/experiment.hpp"
#include "eval/validation.hpp"
#include "workload/jobshop.hpp"
