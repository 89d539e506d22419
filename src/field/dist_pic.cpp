#include "field/dist_pic.hpp"

#include "pic/geometry.hpp"

namespace picprk::field {

DistributedMiniPic::DistributedMiniPic(comm::Comm& comm, MiniPicConfig config,
                                       const std::vector<pic::Particle>& particles)
    : comm_(comm), config_(config), cart_(comm.size()),
      decomp_(config_.grid, cart_), particles_(pic::to_soa(particles)),
      rho_(config_.grid, decomp_, comm.rank()), phi_(config_.grid, decomp_, comm.rank()),
      ex_(config_.grid, decomp_, comm.rank()), ey_(config_.grid, decomp_, comm.rank()) {
  // Route the initial particles to their owners.
  const auto stats =
      par::exchange_particles(comm_, decomp_, particles_, nullptr, exchange_buffers_);
  particles_exchanged_ += stats.sent;
  recompute_fields();
}

void DistributedMiniPic::recompute_fields() {
  rho_.fill(0.0);
  deposit_cic_distributed(comm_, particles_, config_.grid, rho_);
  last_solve_ = solve_poisson_distributed(comm_, rho_, phi_, config_.grid, config_.cg_rtol);
  gradient_distributed(comm_, phi_, ex_, ey_, config_.grid.h);
  // Fresh E halos for the next gather (particles read points up to one
  // beyond the owned block).
  ex_.halo_exchange(comm_);
  ey_.halo_exchange(comm_);
}

MiniPicDiagnostics DistributedMiniPic::step() {
  const double dt = config_.dt;
  const double inv_m = 1.0 / config_.mass;
  const double length = config_.grid.length();

  pic::ParticleSoA& p = particles_;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const FieldSample s = interpolate_distributed(ex_, ey_, p.x[i], p.y[i], config_.grid);
    p.vx[i] += p.q[i] * s.ex * inv_m * dt;
    p.vy[i] += p.q[i] * s.ey * inv_m * dt;
    p.x[i] = pic::wrap(p.x[i] + p.vx[i] * dt, length);
    p.y[i] = pic::wrap(p.y[i] + p.vy[i] * dt, length);
  }
  const auto stats =
      par::exchange_particles(comm_, decomp_, particles_, nullptr, exchange_buffers_);
  particles_exchanged_ += stats.sent;

  recompute_fields();
  return diagnostics();
}

MiniPicDiagnostics DistributedMiniPic::run(std::uint32_t steps) {
  MiniPicDiagnostics d = diagnostics();
  for (std::uint32_t s = 0; s < steps; ++s) d = step();
  return d;
}

MiniPicDiagnostics DistributedMiniPic::diagnostics() {
  struct Packed {
    double charge, px, py, kinetic, field;
  };
  Packed mine{0, 0, 0, 0, 0};
  const pic::ParticleSoA& p = particles_;
  for (std::size_t i = 0; i < p.size(); ++i) {
    mine.charge += p.q[i];
    mine.px += config_.mass * p.vx[i];
    mine.py += config_.mass * p.vy[i];
    mine.kinetic += 0.5 * config_.mass * (p.vx[i] * p.vx[i] + p.vy[i] * p.vy[i]);
  }
  const double cell_area = config_.grid.h * config_.grid.h;
  for (std::int64_t lj = 0; lj < ex_.height(); ++lj) {
    for (std::int64_t li = 0; li < ex_.width(); ++li) {
      const std::int64_t gi = ex_.x0() + li;
      const std::int64_t gj = ex_.y0() + lj;
      const double x = ex_.at(gi, gj);
      const double y = ey_.at(gi, gj);
      mine.field += 0.5 * (x * x + y * y) * cell_area;
    }
  }
  const Packed total = comm_.allreduce_value<Packed>(mine, [](Packed a, Packed b) {
    return Packed{a.charge + b.charge, a.px + b.px, a.py + b.py, a.kinetic + b.kinetic,
                  a.field + b.field};
  });
  MiniPicDiagnostics d;
  d.total_charge = total.charge;
  d.momentum_x = total.px;
  d.momentum_y = total.py;
  d.kinetic_energy = total.kinetic;
  d.field_energy = total.field;
  d.cg_iterations = last_solve_.iterations;
  d.cg_residual = last_solve_.residual_norm;
  return d;
}

}  // namespace picprk::field
