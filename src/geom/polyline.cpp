#include "geom/polyline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/math.hpp"

namespace scaa::geom {

namespace {

/// Half-width (in segments) of the first widening window, tried when
/// neither the centre segment of a hinted projection nor the next one is
/// the nearest of centre - 1 ... centre + 2; stale hints widen from here.
constexpr std::size_t kHintWindow = 4;

}  // namespace

Polyline::Polyline(std::vector<Vec2> points) : pts_(std::move(points)) {
  if (pts_.size() < 2)
    throw std::invalid_argument("Polyline: needs at least 2 points");
  const std::size_t nseg = pts_.size() - 1;
  cum_.resize(pts_.size());
  headings_.resize(nseg);
  x0_.resize(nseg);
  y0_.resize(nseg);
  dx_.resize(nseg);
  dy_.resize(nseg);
  inv_len_sq_.resize(nseg);
  len_.resize(nseg);
  tx_.resize(nseg);
  ty_.resize(nseg);

  cum_[0] = 0.0;
  for (std::size_t i = 0; i < nseg; ++i) {
    const Vec2 a = pts_[i];
    const Vec2 d = pts_[i + 1] - a;
    const double len_sq = d.norm_sq();
    const double len = std::sqrt(len_sq);
    if (len <= 1e-12)
      throw std::invalid_argument("Polyline: duplicate consecutive points");
    x0_[i] = a.x;
    y0_[i] = a.y;
    dx_[i] = d.x;
    dy_[i] = d.y;
    inv_len_sq_[i] = 1.0 / len_sq;
    len_[i] = len;
    tx_[i] = d.x / len;  // == d.normalized(), rounding included
    ty_[i] = d.y / len;
    // heading_at() is one of the hottest queries of the simulation loop
    // (road tracking for every vehicle, every tick); atan2 per call
    // dominated its cost before it was precomputed here.
    headings_[i] = std::atan2(d.y, d.x);
    cum_[i + 1] = cum_[i] + len;
  }
  inv_mean_seg_ = static_cast<double>(nseg) / length();
}

std::size_t Polyline::segment_index(double s) const noexcept {
  // Find i such that cum_[i] <= s < cum_[i+1] (same contract as the old
  // upper_bound search). The builder tessellates at near-uniform spacing,
  // so a scaled guess plus a short monotone walk replaces the binary
  // search; the walk terminates at the identical index.
  const std::size_t last = pts_.size() - 2;
  std::size_t i = 0;
  const double guess = s * inv_mean_seg_;
  if (guess >= static_cast<double>(last))
    i = last;
  else if (guess > 0.0)
    i = static_cast<std::size_t>(guess);
  while (i < last && cum_[i + 1] <= s) ++i;
  while (i > 0 && cum_[i] > s) --i;
  return i;
}

std::size_t Polyline::segment_index_near(double s,
                                         std::size_t hint) const noexcept {
  // Identical monotone walk to segment_index(), started from the hint
  // instead of the scaled guess: the walk converges to the unique i with
  // cum_[i] <= s < cum_[i+1] from any starting segment, so the two
  // functions always agree. Callers pass a segment within a few of s,
  // making the walk O(1).
  if (hint == kNoSegmentHint) return segment_index(s);
  const std::size_t last = pts_.size() - 2;
  std::size_t i = hint > last ? last : hint;
  while (i < last && cum_[i + 1] <= s) ++i;
  while (i > 0 && cum_[i] > s) --i;
  return i;
}

Vec2 Polyline::position_at(double s) const noexcept {
  if (s <= 0.0) return pts_.front();
  if (s >= length()) return pts_.back();
  const std::size_t i = segment_index(s);
  const double seg_len = cum_[i + 1] - cum_[i];
  const double t = (s - cum_[i]) / seg_len;
  return pts_[i] + (pts_[i + 1] - pts_[i]) * t;
}

double Polyline::heading_at(double s) const noexcept {
  // Index clamp instead of arc-length clamp: s past the end must yield the
  // final segment's heading even when that segment is shorter than any
  // epsilon a `length() - eps` clamp would have used.
  if (s <= 0.0) return headings_.front();
  if (s >= length()) return headings_.back();
  return headings_[segment_index(s)];
}

Polyline::Sample Polyline::sample(double s, double ds,
                                  std::size_t segment_hint) const noexcept {
  // heading_at(s) is headings_[segment_index(s)] for every s: beyond the
  // ends the walk already stops on the first / last segment.
  const std::size_t i = segment_index_near(s, segment_hint);
  Sample out;
  out.heading = headings_[i];
  const double s0 = s - 0.5 * ds < 0.0 ? 0.0 : s - 0.5 * ds;
  const double s1 = s0 + ds > length() ? length() : s0 + ds;
  if (s1 - s0 < 1e-9) return out;
  // s0 and s1 lie about ds/2 of mean spacing either side of segment i, so
  // their walks start there and end on the same segments as a fresh search.
  const auto shift = static_cast<std::size_t>(0.5 * ds * inv_mean_seg_);
  const double h0 =
      headings_[segment_index_near(s0, i > shift ? i - shift : 0)];
  const double h1 = headings_[segment_index_near(s1, i + shift)];
  out.curvature = math::wrap_angle(h1 - h0) / (s1 - s0);
  return out;
}

std::size_t Polyline::best_segment(Vec2 p, std::size_t lo,
                                   std::size_t hi) const noexcept {
  const double px = p.x;
  const double py = p.y;
  const double* const x0 = x0_.data();
  const double* const y0 = y0_.data();
  const double* const dx = dx_.data();
  const double* const dy = dy_.data();
  const double* const ils = inv_len_sq_.data();

  // Hinted windows are small (2 * kHintWindow + 1 segments on the first
  // try); the multi-lane setup and merge below would cost as much as the
  // scan itself, so they take a single branchless accumulator pair.
  if (hi - lo <= 2 * kHintWindow + 1) {
    double best_d = std::numeric_limits<double>::infinity();
    std::size_t best = lo;
    for (std::size_t k = lo; k < hi; ++k) {
      const double rx = px - x0[k];
      const double ry = py - y0[k];
      double t = (rx * dx[k] + ry * dy[k]) * ils[k];
      t = t < 0.0 ? 0.0 : t;
      t = t > 1.0 ? 1.0 : t;
      const double ex = rx - t * dx[k];
      const double ey = ry - t * dy[k];
      const double d = ex * ex + ey * ey;
      const bool better = d < best_d;
      best_d = better ? d : best_d;
      best = better ? k : best;
    }
    return best;
  }

  // Four independent accumulator lanes so the distance scan has no
  // loop-carried dependency: the compiler can keep all lanes in registers
  // and vectorize the branchless select. Candidate cost is two FMA-shaped
  // products for the foot parameter plus two for the error vector — no
  // division, sqrt, or branch.
  double best_d[4];
  std::size_t best_i[4];
  for (int l = 0; l < 4; ++l) {
    best_d[l] = std::numeric_limits<double>::infinity();
    best_i[l] = lo;
  }

  std::size_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    for (int l = 0; l < 4; ++l) {
      const std::size_t k = i + static_cast<std::size_t>(l);
      const double rx = px - x0[k];
      const double ry = py - y0[k];
      double t = (rx * dx[k] + ry * dy[k]) * ils[k];
      t = t < 0.0 ? 0.0 : t;
      t = t > 1.0 ? 1.0 : t;
      const double ex = rx - t * dx[k];
      const double ey = ry - t * dy[k];
      const double d = ex * ex + ey * ey;
      const bool better = d < best_d[l];
      best_d[l] = better ? d : best_d[l];
      best_i[l] = better ? k : best_i[l];
    }
  }
  for (; i < hi; ++i) {
    const double rx = px - x0[i];
    const double ry = py - y0[i];
    double t = (rx * dx[i] + ry * dy[i]) * ils[i];
    t = t < 0.0 ? 0.0 : t;
    t = t > 1.0 ? 1.0 : t;
    const double ex = rx - t * dx[i];
    const double ey = ry - t * dy[i];
    const double d = ex * ex + ey * ey;
    const bool better = d < best_d[0];
    best_d[0] = better ? d : best_d[0];
    best_i[0] = better ? i : best_i[0];
  }

  // Merge lanes; exact ties resolve to the lowest segment index, matching
  // the historical first-wins scalar scan.
  std::size_t best = best_i[0];
  double best_dist = best_d[0];
  for (int l = 1; l < 4; ++l) {
    if (best_d[l] < best_dist ||
        (best_d[l] == best_dist && best_i[l] < best)) {
      best_dist = best_d[l];
      best = best_i[l];
    }
  }
  return best;
}

Polyline::Projection Polyline::finalize(Vec2 p, std::size_t i) const noexcept {
  // Same expressions, operand values, and evaluation order as the
  // historical per-candidate computation (dx_/dy_ hold pts_[i+1] - pts_[i]
  // exactly; len_[i] == sqrt(len_sq); {tx_,ty_} == (b - a).normalized()),
  // so the result is bit-identical to project_reference's winning
  // candidate while touching only the SoA arrays the scan just warmed.
  const double rx = p.x - x0_[i];
  const double ry = p.y - y0_[i];
  const double len_sq = dx_[i] * dx_[i] + dy_[i] * dy_[i];
  const double t =
      std::clamp((rx * dx_[i] + ry * dy_[i]) / len_sq, 0.0, 1.0);
  const double cx = x0_[i] + dx_[i] * t;
  const double cy = y0_[i] + dy_[i] * t;
  Projection out;
  out.closest = {cx, cy};
  out.s = cum_[i] + len_[i] * t;
  out.lateral = tx_[i] * (p.y - cy) - ty_[i] * (p.x - cx);
  out.segment = i;
  return out;
}

Polyline::Projection Polyline::project(
    Vec2 p, double hint_s, std::size_t hint_segment) const noexcept {
  const std::size_t nseg = pts_.size() - 1;
  if (hint_s >= 0.0 && nseg > 2 * kHintWindow) {
    // Clamps past the end; a segment hint only seeds the walk, which ends
    // on the same index from any start.
    const std::size_t center = segment_index_near(hint_s, hint_segment);
    // A vehicle advances less than a segment per tick, so a hinted query
    // usually lands on the centre segment or the next one: scan
    // centre - 1 ... centre + 2 first and accept either, both interior to
    // that window under the same rule as the windows below.
    if (center > 0 && center + 2 < nseg) {
      const std::size_t best = best_segment(p, center - 1, center + 3);
      if (best == center || best == center + 1) return finalize(p, best);
    }
    for (std::size_t w = kHintWindow;; w *= 4) {
      const std::size_t lo = center > w ? center - w : 0;
      const std::size_t hi = std::min(center + w + 1, nseg);
      const std::size_t best = best_segment(p, lo, hi);
      // Accept only when the best segment is interior to the searched
      // range: a best on the first or last searched segment — even one
      // that coincides with a polyline boundary — means a closer segment
      // may lie beyond the window (stale hint, teleported point, U-turn
      // geometry), so widen and retry. The full range always terminates.
      if ((lo == 0 && hi == nseg) || (best > lo && best + 1 < hi))
        return finalize(p, best);
    }
  }
  return finalize(p, best_segment(p, 0, nseg));
}

Polyline::Projection Polyline::project_reference(Vec2 p) const noexcept {
  Projection best{};
  double best_dist_sq = std::numeric_limits<double>::max();
  for (std::size_t i = 0; i + 1 < pts_.size(); ++i) {
    const Vec2 a = pts_[i];
    const Vec2 b = pts_[i + 1];
    const Vec2 ab = b - a;
    const double len_sq = ab.norm_sq();
    double t = len_sq > 0.0 ? (p - a).dot(ab) / len_sq : 0.0;
    t = std::clamp(t, 0.0, 1.0);
    const Vec2 c = a + ab * t;
    const double d_sq = (p - c).norm_sq();
    if (d_sq < best_dist_sq) {
      best_dist_sq = d_sq;
      best.closest = c;
      best.s = cum_[i] + std::sqrt(len_sq) * t;
      const Vec2 tangent = ab.normalized();
      best.lateral = tangent.cross(p - c);
      best.segment = i;
    }
  }
  return best;
}

}  // namespace scaa::geom
