#include "pic/verify.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace picprk::pic {

ExpectedPosition expected_position(const Particle& p, const GridSpec& grid,
                                   std::uint32_t final_step) {
  PICPRK_EXPECTS(final_step >= p.birth);
  const double s = static_cast<double>(final_step - p.birth);
  const double length = grid.length();
  ExpectedPosition e;
  e.x = wrap(p.x0 + static_cast<double>(p.dir) *
                        static_cast<double>(2 * p.k + 1) * s * grid.h,
             length);
  e.y = wrap(p.y0 + static_cast<double>(p.m) * s * grid.h, length);
  return e;
}

double periodic_distance(double a, double b, double length) {
  const double d = std::fabs(a - b);
  return std::min(d, length - d);
}

namespace {

void verify_one(const Particle& p, const GridSpec& grid, std::uint32_t final_step,
                double epsilon, VerifyResult& r) {
  const double length = grid.length();
  const ExpectedPosition e = expected_position(p, grid, final_step);
  const double err = std::max(periodic_distance(p.x, e.x, length),
                              periodic_distance(p.y, e.y, length));
  r.max_position_error = std::max(r.max_position_error, err);
  if (err > epsilon) {
    r.positions_ok = false;
    ++r.position_failures;
  }
  ++r.checked;
  r.id_checksum += p.id;
}

}  // namespace

VerifyResult verify_particles(std::span<const Particle> particles, const GridSpec& grid,
                              std::uint32_t final_step, double epsilon) {
  VerifyResult r;
  for (const Particle& p : particles) verify_one(p, grid, final_step, epsilon, r);
  return r;
}

VerifyResult verify_particles(const ParticleSoA& particles, const GridSpec& grid,
                              std::uint32_t final_step, double epsilon) {
  VerifyResult r;
  for (std::size_t i = 0; i < particles.size(); ++i) {
    verify_one(particles.get(i), grid, final_step, epsilon, r);
  }
  return r;
}

VerifyResult merge(const VerifyResult& a, const VerifyResult& b) {
  VerifyResult r;
  r.positions_ok = a.positions_ok && b.positions_ok;
  r.checked = a.checked + b.checked;
  r.position_failures = a.position_failures + b.position_failures;
  r.max_position_error = std::max(a.max_position_error, b.max_position_error);
  r.id_checksum = a.id_checksum + b.id_checksum;
  return r;
}

}  // namespace picprk::pic
