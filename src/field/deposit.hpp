// Step (2) of the PIC cycle (paper §III-A): "Update the charge density
// at each mesh point by summing the contributions of the charged
// particles that belong to the cells of the mesh surrounding the point.
// This update is done via an extrapolation scheme." — the classic
// cloud-in-cell (CIC) bilinear deposition.
#pragma once

#include <cstdint>
#include <span>

#include "field/grid_field.hpp"
#include "pic/particle.hpp"

namespace picprk::field {

/// Bilinear weights of a position inside its cell, for the four
/// surrounding mesh points (bl, br, tl, tr).
struct CicWeights {
  std::int64_t i = 0, j = 0;  ///< bottom-left mesh point
  double w_bl = 0, w_br = 0, w_tl = 0, w_tr = 0;
};

CicWeights cic_weights(double x, double y, const pic::GridSpec& grid);

/// Deposits the particles' charges onto `rho` (accumulating; call
/// rho.fill(0) first for a fresh density). Each particle spreads q/h²
/// bilinearly over its cell's four corner points, so the field integral
/// ∑ρ·h² equals the total charge exactly.
void deposit_cic(std::span<const pic::Particle> particles, const pic::GridSpec& grid,
                 ScalarField& rho);

}  // namespace picprk::field
