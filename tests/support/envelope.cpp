#include "support/envelope.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "curve/algebra.hpp"

namespace rta {

ArrivalEnvelope::ArrivalEnvelope(PwlCurve curve, double tail_rate)
    : curve_(std::move(curve)), tail_rate_(tail_rate) {
  assert(curve_.is_nondecreasing());
  assert(tail_rate_ >= 0.0);
}

ArrivalEnvelope ArrivalEnvelope::leaky_bucket(double burst, double rate,
                                              Time span) {
  assert(burst >= 0.0);
  assert(rate >= 0.0);
  const double end = burst + rate * span;
  return ArrivalEnvelope(PwlCurve({{0.0, burst, burst}, {span, end, end}}),
                         rate);
}

ArrivalEnvelope ArrivalEnvelope::periodic(Time period, Time span,
                                          Time jitter) {
  assert(period > 0.0);
  assert(jitter >= 0.0);
  // alpha(delta) = ceil((delta + jitter)/period), with alpha(0) >= 1 (a
  // window containing one release). Jump k -> k+1 at delta = k*period -
  // jitter (for positive abscissae).
  std::vector<Time> jumps;
  const long long base = tolerant_ceil(jitter / period);  // alpha(0)
  for (long long k = base;; ++k) {
    const Time at = static_cast<double>(k) * period - jitter;
    if (time_gt(at, span)) break;
    if (at <= 0.0) continue;
    jumps.push_back(at);
  }
  PwlCurve steps = PwlCurve::step(span, jumps);
  // Lift by the window-of-zero-length count max(1, ceil(jitter/period)).
  const double floor_count =
      std::max<double>(1.0, static_cast<double>(base));
  return ArrivalEnvelope(curve_add_constant(steps, floor_count),
                         1.0 / period);
}

ArrivalEnvelope ArrivalEnvelope::from_trace(const ArrivalSequence& trace,
                                            Time span) {
  const auto& rel = trace.releases();
  if (rel.empty()) {
    return ArrivalEnvelope(PwlCurve::zero(std::max<Time>(span, 1.0)), 0.0);
  }
  // Candidate window lengths: a_j - a_i (window starting at an arrival).
  // alpha(delta) = max over i of #{j >= i : a_j <= a_i + delta}; as a
  // function of delta this is a staircase whose jumps lie at the pairwise
  // differences. Collect (difference, count) maxima.
  const std::size_t n = rel.size();
  // max_count[d] built as: for each pair (i, j), window length a_j - a_i
  // admits count j - i + 1. The envelope at delta is the max count over
  // pairs with difference <= delta. Equivalently: for each count c, the
  // minimal difference achieving it: gap(c) = min_i (a_{i+c-1} - a_i).
  std::vector<Time> jumps;  // jump to count c happens at gap(c)
  for (std::size_t c = 2; c <= n; ++c) {
    Time best = kTimeInfinity;
    for (std::size_t i = 0; i + c - 1 < n; ++i) {
      best = std::min(best, rel[i + c - 1] - rel[i]);
    }
    if (time_gt(best, span)) break;
    jumps.push_back(clamp_nonnegative(best));
  }
  // jumps is nondecreasing by construction (gap(c) grows with c).
  PwlCurve steps = PwlCurve::step(span, jumps);
  PwlCurve curve = curve_add_constant(steps, 1.0);  // alpha(0) = 1 (or more)
  // Tail: densest observed long-run rate, conservatively the max over
  // suffix counts of (c - 1) / gap(c); fall back to 1/min-gap for pairs.
  double rate = 0.0;
  for (std::size_t c = 2; c <= n; ++c) {
    Time best = kTimeInfinity;
    for (std::size_t i = 0; i + c - 1 < n; ++i) {
      best = std::min(best, rel[i + c - 1] - rel[i]);
    }
    if (best > 0.0 && std::isfinite(best)) {
      rate = std::max(rate, static_cast<double>(c - 1) / best);
    }
  }
  return ArrivalEnvelope(std::move(curve), rate);
}

double ArrivalEnvelope::eval(Time delta) const {
  if (delta <= 0.0) return curve_.eval(0.0);
  if (time_le(delta, span())) return curve_.eval(delta);
  return curve_.end_value() + tail_rate_ * (delta - span());
}

PwlCurve ArrivalEnvelope::workload(double exec_time) const {
  return curve_scale(curve_, exec_time);
}

bool ArrivalEnvelope::dominated_by(const ArrivalEnvelope& other) const {
  const Time common = std::min(span(), other.span());
  // Rebuild both on the common span and compare exactly via curve_max
  // (which inserts segment crossings): a <= b iff max(a, b) == b.
  auto restrict = [&](const ArrivalEnvelope& e) {
    const CurveView v = e.curve().view();
    std::vector<Knot> ks;
    for (std::size_t i = 0; i < v.n; ++i) {
      if (time_gt(v.t[i], common)) break;
      ks.push_back({v.t[i], v.l[i], v.r[i]});
    }
    if (ks.empty() || !time_eq(ks.back().t, common)) {
      ks.push_back({common, e.curve().eval_left(common), e.eval(common)});
    }
    return PwlCurve(std::move(ks));
  };
  const PwlCurve a = restrict(*this);
  const PwlCurve b = restrict(other);
  if (!curve_max(a, b).approx_equal(b)) return false;
  return tail_rate_ <= other.rate() + kValueEps;
}

bool ArrivalEnvelope::admits(const ArrivalSequence& trace) const {
  const auto& rel = trace.releases();
  for (std::size_t i = 0; i < rel.size(); ++i) {
    for (std::size_t j = i; j < rel.size(); ++j) {
      const Time delta = rel[j] - rel[i];
      const double count = static_cast<double>(j - i + 1);
      if (count > eval(delta) + kValueEps) return false;
    }
  }
  return true;
}

ArrivalEnvelope ArrivalEnvelope::with_jitter(Time extra_jitter) const {
  assert(extra_jitter >= 0.0);
  if (time_eq(extra_jitter, 0.0)) return *this;
  // alpha'(delta) = alpha(delta + J): shift the curve left and extend with
  // the tail.
  std::vector<Knot> knots;
  const Time s = span();
  knots.push_back({0.0, eval(extra_jitter), eval(extra_jitter)});
  const CurveView v = curve_.view();
  for (std::size_t i = 0; i < v.n; ++i) {
    const Time t = v.t[i] - extra_jitter;
    if (t <= 0.0) continue;
    if (time_gt(t, s)) break;
    knots.push_back({t, v.l[i], v.r[i]});
  }
  if (knots.back().t < s) {
    const double end = eval(s + extra_jitter);
    knots.push_back({s, end, end});
  }
  return ArrivalEnvelope(PwlCurve(std::move(knots)), tail_rate_);
}

}  // namespace rta
