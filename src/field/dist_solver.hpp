// The distributed PIC cycle components: halo-based SpMV, distributed CG
// Poisson solve, gradient, CIC deposition with halo folding, and E-field
// interpolation — the "scalable parallel solver" and "atomic charge
// updates" challenges of paper §III-A realised over threadcomm.
#pragma once

#include <cstdint>
#include <span>

#include "comm/comm.hpp"
#include "field/dist_field.hpp"
#include "field/mini_pic.hpp"  // FieldSample
#include "field/poisson.hpp"
#include "pic/particle.hpp"

namespace picprk::field {

/// out = −∇² in (5-point, periodic); refreshes in's halos (collective).
void apply_neg_laplacian_distributed(comm::Comm& comm, DistributedField& in,
                                     DistributedField& out, double h);

/// Global sum over a distributed field (collective).
double global_sum(comm::Comm& comm, const DistributedField& f);

/// Global dot product (collective).
double global_dot(comm::Comm& comm, const DistributedField& a, const DistributedField& b);

/// Projects out the global mean (collective).
void remove_global_mean(comm::Comm& comm, DistributedField& f, std::int64_t cells);

/// Distributed CG for −∇²φ = ρ; same semantics as the serial
/// solve_poisson (RHS neutralised, φ zero-mean). Collective.
CgResult solve_poisson_distributed(comm::Comm& comm, const DistributedField& rho,
                                   DistributedField& phi, const pic::GridSpec& grid,
                                   double rtol = 1e-8, int max_iterations = 10000);

/// E = −∇φ (central differences); refreshes φ's halos. Collective.
void gradient_distributed(comm::Comm& comm, DistributedField& phi, DistributedField& ex,
                          DistributedField& ey, double h);

/// CIC deposition of this rank's particles followed by halo folding
/// (collective). rho must be zero-filled first.
void deposit_cic_distributed(comm::Comm& comm, const pic::ParticleSoA& particles,
                             const pic::GridSpec& grid, DistributedField& rho);

/// Bilinear E at a position owned by this rank (halos must be fresh).
FieldSample interpolate_distributed(const DistributedField& ex, const DistributedField& ey,
                                    double x, double y, const pic::GridSpec& grid);

}  // namespace picprk::field
