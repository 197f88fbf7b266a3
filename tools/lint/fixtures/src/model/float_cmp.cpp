// Fixture: float-eq findings, a documented suppression, and a suppression
// with no reason (which is itself a finding and suppresses nothing).
namespace rta {

bool converged(double prev, double cur) {
  return prev == cur;  // finding: float-eq (declared double)
}

bool at_origin(double x) {
  return x == 0.0;  // finding: float-eq (float literal)
}

bool same_id(int ia, int ib) {
  return ia == ib;  // integers: no finding
}

bool tie_break(double ka, double kb) {
  // rta-lint: allow(float-eq) deliberate exact compare: an epsilon would
  // make the comparator's ordering intransitive
  return ka != kb;  // suppressed
}

bool sloppy(double v) {
  // rta-lint: allow(float-eq)
  return v == 1.0;  // still a finding: the reason-less allow is ignored
}

const double* first_term(const double* b, const double* fallback) {
  return b != nullptr ? b : fallback;  // pointer test: no finding
}

}  // namespace rta
