// Verification of the PIC PRK (paper §III-D): after s time steps a
// particle must be at
//     x_s = (x_0 + dir · (2k+1) · s · h) mod L          (Eq. 5)
//     y_s = (y_0 + m · s · h) mod L                     (Eq. 6)
// and the checksum of particle ids must equal n(n+1)/2 when the
// population is static. The position test is O(1) per particle yet
// catches a single force miscalculation in a single time step; the
// checksum catches any particle lost or duplicated in communication.
#pragma once

#include <cstdint>
#include <span>

#include "pic/geometry.hpp"
#include "pic/particle.hpp"

namespace picprk::pic {

/// Default absolute position tolerance; absorbs the non-associativity of
/// floating-point force summation (the official PRK uses the same idea).
inline constexpr double kVerifyEpsilon = 1.0e-5;

struct VerifyResult {
  bool positions_ok = true;
  std::uint64_t checked = 0;
  std::uint64_t position_failures = 0;
  double max_position_error = 0.0;
  /// Sum of ids of the checked particles.
  std::uint64_t id_checksum = 0;

  bool ok(std::uint64_t expected_checksum) const {
    return positions_ok && id_checksum == expected_checksum;
  }
};

/// Expected position of particle `p` after completing `final_step` steps
/// (a particle born at step b has moved final_step − b times).
struct ExpectedPosition {
  double x = 0.0;
  double y = 0.0;
};
ExpectedPosition expected_position(const Particle& p, const GridSpec& grid,
                                   std::uint32_t final_step);

/// Distance between two wrapped coordinates on a ring of circumference L.
double periodic_distance(double a, double b, double length);

/// Verifies a span of particles; results from disjoint spans can be
/// merged (trivially parallel, as the paper requires).
VerifyResult verify_particles(std::span<const Particle> particles, const GridSpec& grid,
                              std::uint32_t final_step, double epsilon = kVerifyEpsilon);

/// Verifies an SoA store row by row, with no AoS copy of the store.
VerifyResult verify_particles(const ParticleSoA& particles, const GridSpec& grid,
                              std::uint32_t final_step, double epsilon = kVerifyEpsilon);

/// Merges partial results from disjoint particle sets.
VerifyResult merge(const VerifyResult& a, const VerifyResult& b);

/// n(n+1)/2 — the expected id checksum of a static population of n.
inline std::uint64_t expected_checksum(std::uint64_t n) { return n * (n + 1) / 2; }

}  // namespace picprk::pic
