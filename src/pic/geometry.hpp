// Simulation-domain geometry of the PIC PRK (paper §III-B): a periodic
// L×L square mesh of cells of size h×h. We keep h general but the
// canonical configuration is h = 1, dt = 1, particles at cell centers,
// which makes per-step displacements exact integers of cells.
#pragma once

#include <cmath>
#include <cstdint>

#include "util/annotations.hpp"
#include "util/assert.hpp"

namespace picprk::pic {

/// Full-range periodic wrap via fmod; the slow path of `wrap` and the
/// pre-optimization hot-path form (preserved verbatim as
/// pic::reference's wrap in mover.hpp).
inline double wrap_fmod(double v, double length) {
  double r = std::fmod(v, length);
  if (r < 0.0) r += length;
  // fmod of a value infinitesimally below length can round up to length.
  if (r >= length) r = 0.0;
  return r;
}

/// Wraps `v` into [0, L) (periodic boundary in one coordinate).
///
/// Fast path: a per-step displacement almost never exceeds one domain
/// length, so the common cases are "already in range" (no work) and "one
/// period out" (one add/sub — exact, and bit-identical to fmod: for
/// v ∈ [L, 2L) Sterbenz's lemma makes v−L exact, and for v ∈ [−L, 0)
/// fmod returns v itself before the +L correction, so both forms compute
/// the same sum). Anything further out falls back to fmod.
PICPRK_HOT inline double wrap(double v, double length) {
  if (v >= length) {
    v -= length;
    if (v >= length) return wrap_fmod(v, length);
  } else if (v < 0.0) {
    v += length;
    if (v < 0.0) return wrap_fmod(v, length);
  }
  // A tiny negative plus L can round up to exactly L; fold it to 0.
  if (v >= length) v = 0.0;
  return v;
}

/// The L×L periodic mesh. `cells` is the number of cells per dimension
/// (the paper's c = L/h); it must be even so that the alternating column
/// charges are consistent across the periodic seam (§III-C: "L must be
/// an even multiple of h").
struct GridSpec {
  std::int64_t cells = 0;
  double h = 1.0;
  /// Cached 1/h: turns the two per-particle cell_of divides into
  /// multiplies. Derived from h in the constructor; h is never mutated
  /// after construction. In the canonical h = 1 configuration inv_h is
  /// exactly 1.0, so cell_of is bit-identical to the divide form.
  double inv_h = 1.0;

  GridSpec() = default;
  GridSpec(std::int64_t cells_in, double h_in = 1.0)
      : cells(cells_in), h(h_in), inv_h(1.0 / h_in) {
    PICPRK_EXPECTS(cells >= 2);
    PICPRK_EXPECTS(cells % 2 == 0);
    PICPRK_EXPECTS(h > 0.0);
  }

  /// Physical domain extent L = cells * h.
  double length() const { return static_cast<double>(cells) * h; }

  /// Cell index containing physical coordinate `v` (already in [0, L)).
  PICPRK_HOT std::int64_t cell_of(double v) const {
    // Truncating cast instead of std::floor: identical after the clamps
    // (trunc == floor for v ≥ 0, and any negative v·inv_h truncates to
    // a value the `< 0` clamp sends to 0 exactly as the floor form
    // does), but stays a single inline conversion where floor is a libm
    // call on baseline ISAs.
    auto c = static_cast<std::int64_t>(v * inv_h);
    // Guard the v == L fringe that floating rounding can produce.
    if (c >= cells) c = cells - 1;
    if (c < 0) c = 0;
    return c;
  }

  /// Physical coordinate of the center of cell index `c`.
  double cell_center(std::int64_t c) const {
    return (static_cast<double>(c) + 0.5) * h;
  }

  bool operator==(const GridSpec&) const = default;
};

/// Rectangular region of whole cells [x0, x1) × [y0, y1); used for the
/// patch distribution and for injection/removal events (§III-E4/5).
struct CellRegion {
  std::int64_t x0 = 0, x1 = 0, y0 = 0, y1 = 0;

  std::int64_t width() const { return x1 - x0; }
  std::int64_t height() const { return y1 - y0; }
  std::int64_t area() const { return width() * height(); }
  bool contains_cell(std::int64_t cx, std::int64_t cy) const {
    return cx >= x0 && cx < x1 && cy >= y0 && cy < y1;
  }
  bool valid_within(const GridSpec& grid) const {
    return x0 >= 0 && y0 >= 0 && x1 <= grid.cells && y1 <= grid.cells &&
           x1 > x0 && y1 > y0;
  }
};

}  // namespace picprk::pic
