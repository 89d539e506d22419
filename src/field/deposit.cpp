#include "field/deposit.hpp"

#include <cmath>

namespace picprk::field {

CicWeights cic_weights(double x, double y, const pic::GridSpec& grid) {
  CicWeights w;
  const double gx = x / grid.h;
  const double gy = y / grid.h;
  w.i = static_cast<std::int64_t>(std::floor(gx));
  w.j = static_cast<std::int64_t>(std::floor(gy));
  const double fx = gx - static_cast<double>(w.i);
  const double fy = gy - static_cast<double>(w.j);
  w.w_bl = (1.0 - fx) * (1.0 - fy);
  w.w_br = fx * (1.0 - fy);
  w.w_tl = (1.0 - fx) * fy;
  w.w_tr = fx * fy;
  return w;
}

void deposit_cic(std::span<const pic::Particle> particles, const pic::GridSpec& grid,
                 ScalarField& rho) {
  const double inv_cell_area = 1.0 / (grid.h * grid.h);
  for (const pic::Particle& p : particles) {
    const CicWeights w = cic_weights(p.x, p.y, grid);
    const double q = p.q * inv_cell_area;
    rho.at(w.i, w.j) += q * w.w_bl;
    rho.at(w.i + 1, w.j) += q * w.w_br;
    rho.at(w.i, w.j + 1) += q * w.w_tl;
    rho.at(w.i + 1, w.j + 1) += q * w.w_tr;
  }
}

}  // namespace picprk::field
