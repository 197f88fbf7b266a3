#include "curve/curve_arena.hpp"

#include <cmath>
#include <cstring>

namespace rta {

CurveData::CurveData(std::vector<double> buf, std::size_t n)
    : buf_(std::move(buf)), n_(n) {
  assert(n_ >= 1);
  assert(buf_.size() == 3 * n_);
}

bool CurveData::identical(const CurveData& a, const CurveData& b) {
  if (&a == &b) return true;
  if (a.n_ != b.n_) return false;
  return std::memcmp(a.buf_.data(), b.buf_.data(),
                     3 * a.n_ * sizeof(double)) == 0;
}

const std::shared_ptr<const CurveData>& CurveData::zero_knot() {
  static const std::shared_ptr<const CurveData> instance =
      std::make_shared<const CurveData>(std::vector<double>{0.0, 0.0, 0.0},
                                        1);
  return instance;
}

std::shared_ptr<const CurveData> CurveArena::finalize() {
  assert(!t_.empty());
  if (t_.empty()) push(0.0, 0.0, 0.0);

  // Anchor the curve at t = 0 (legacy constructor step 1).
  if (!time_eq(t_.front(), 0.0)) {
    assert(t_.front() > 0.0);
    const double fl = l_.front();
    t_.insert(t_.begin(), 0.0);
    l_.insert(l_.begin(), fl);
    r_.insert(r_.begin(), fl);
  } else {
    t_.front() = 0.0;
  }

  // Merge knots whose abscissae coincide within tolerance: keep the first
  // left limit and the last right value (jumps compose). In-place compaction
  // (the write index never passes the read index).
  std::size_t w = 0;
  const std::size_t n = t_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (w > 0 && time_eq_ordered(t_[w - 1], t_[i])) {
      r_[w - 1] = r_[i];
    } else {
      assert(w == 0 || t_[i] > t_[w - 1]);
      t_[w] = t_[i];
      l_[w] = l_[i];
      r_[w] = r_[i];
      ++w;
    }
  }

  // Drop interior knots that are collinear and continuous: knot i is
  // redundant if left == right and it lies on the segment between the last
  // kept knot and its successor. Second in-place compaction pass.
  if (w > 2) {
    std::size_t s = 1;
    for (std::size_t i = 1; i + 1 < w; ++i) {
      const double cur_l = l_[i];
      const double cur_r = r_[i];
      if (std::fabs(cur_l - cur_r) <= kValueEps) {
        const double prev_t = t_[s - 1];
        const double prev_r = r_[s - 1];
        const double span = t_[i + 1] - prev_t;
        const double expect =
            prev_r + (l_[i + 1] - prev_r) * ((t_[i] - prev_t) / span);
        if (std::fabs(cur_r - expect) <= kValueEps) continue;  // redundant
      }
      t_[s] = t_[i];
      l_[s] = cur_l;
      r_[s] = cur_r;
      ++s;
    }
    t_[s] = t_[w - 1];
    l_[s] = l_[w - 1];
    r_[s] = r_[w - 1];
    w = s + 1;
  }

  // First knot: the left limit is meaningless; pin it to the value.
  l_[0] = r_[0];

  std::vector<double> buf(3 * w);
  std::memcpy(buf.data(), t_.data(), w * sizeof(double));
  std::memcpy(buf.data() + w, l_.data(), w * sizeof(double));
  std::memcpy(buf.data() + 2 * w, r_.data(), w * sizeof(double));
  clear();
  return std::make_shared<const CurveData>(std::move(buf), w);
}

CurveArena& tls_curve_arena() {
  thread_local CurveArena arena;
  return arena;
}

std::vector<Time>& tls_grid_scratch() {
  thread_local std::vector<Time> grid;
  return grid;
}

}  // namespace rta
