#include "field/dist_solver.hpp"

#include <cmath>

#include "field/deposit.hpp"
#include "util/assert.hpp"

namespace picprk::field {

void apply_neg_laplacian_distributed(comm::Comm& comm, DistributedField& in,
                                     DistributedField& out, double h) {
  in.halo_exchange(comm);
  const double inv_h2 = 1.0 / (h * h);
  for (std::int64_t lj = 0; lj < in.height(); ++lj) {
    for (std::int64_t li = 0; li < in.width(); ++li) {
      const std::int64_t gi = in.x0() + li;
      const std::int64_t gj = in.y0() + lj;
      out.at(gi, gj) = (4.0 * in.at(gi, gj) - in.at(gi - 1, gj) - in.at(gi + 1, gj) -
                        in.at(gi, gj - 1) - in.at(gi, gj + 1)) *
                       inv_h2;
    }
  }
}

double global_sum(comm::Comm& comm, const DistributedField& f) {
  return comm.allreduce_value<double>(f.local_sum(),
                                      [](double a, double b) { return a + b; });
}

double global_dot(comm::Comm& comm, const DistributedField& a,
                  const DistributedField& b) {
  return comm.allreduce_value<double>(DistributedField::local_dot(a, b),
                                      [](double x, double y) { return x + y; });
}

void remove_global_mean(comm::Comm& comm, DistributedField& f, std::int64_t cells) {
  const double mean =
      global_sum(comm, f) / static_cast<double>(cells) / static_cast<double>(cells);
  f.shift(-mean);
}

CgResult solve_poisson_distributed(comm::Comm& comm, const DistributedField& rho,
                                   DistributedField& phi, const pic::GridSpec& grid,
                                   double rtol, int max_iterations) {
  CgResult result;

  DistributedField b = rho;
  remove_global_mean(comm, b, grid.cells);

  phi.fill(0.0);
  DistributedField r = b;
  DistributedField p = r;
  DistributedField ap = phi;  // same shape, zeroed below by the apply

  const double b_norm = std::sqrt(global_dot(comm, b, b));
  if (b_norm == 0.0) {
    result.converged = true;
    return result;
  }
  double rr = global_dot(comm, r, r);

  for (int it = 0; it < max_iterations; ++it) {
    apply_neg_laplacian_distributed(comm, p, ap, grid.h);
    const double p_ap = global_dot(comm, p, ap);
    PICPRK_ASSERT_MSG(p_ap > 0.0, "distributed CG broke down");
    const double alpha = rr / p_ap;
    phi.axpy(alpha, p);
    r.axpy(-alpha, ap);
    const double rr_new = global_dot(comm, r, r);
    result.iterations = it + 1;
    result.residual_norm = std::sqrt(rr_new);
    if (result.residual_norm <= rtol * b_norm) {
      result.converged = true;
      break;
    }
    p.xpby(r, rr_new / rr);
    rr = rr_new;
    if ((it & 63) == 63) {
      remove_global_mean(comm, phi, grid.cells);
      remove_global_mean(comm, r, grid.cells);
      remove_global_mean(comm, p, grid.cells);
    }
  }
  remove_global_mean(comm, phi, grid.cells);
  return result;
}

void gradient_distributed(comm::Comm& comm, DistributedField& phi, DistributedField& ex,
                          DistributedField& ey, double h) {
  phi.halo_exchange(comm);
  const double inv_2h = 1.0 / (2.0 * h);
  for (std::int64_t lj = 0; lj < phi.height(); ++lj) {
    for (std::int64_t li = 0; li < phi.width(); ++li) {
      const std::int64_t gi = phi.x0() + li;
      const std::int64_t gj = phi.y0() + lj;
      ex.at(gi, gj) = -(phi.at(gi + 1, gj) - phi.at(gi - 1, gj)) * inv_2h;
      ey.at(gi, gj) = -(phi.at(gi, gj + 1) - phi.at(gi, gj - 1)) * inv_2h;
    }
  }
}

void deposit_cic_distributed(comm::Comm& comm, const pic::ParticleSoA& particles,
                             const pic::GridSpec& grid, DistributedField& rho) {
  const double inv_cell_area = 1.0 / (grid.h * grid.h);
  for (std::size_t i = 0; i < particles.size(); ++i) {
    const CicWeights w = cic_weights(particles.x[i], particles.y[i], grid);
    const double q = particles.q[i] * inv_cell_area;
    rho.at(w.i, w.j) += q * w.w_bl;
    rho.at(w.i + 1, w.j) += q * w.w_br;
    rho.at(w.i, w.j + 1) += q * w.w_tl;
    rho.at(w.i + 1, w.j + 1) += q * w.w_tr;
  }
  rho.halo_fold(comm);
}

FieldSample interpolate_distributed(const DistributedField& ex, const DistributedField& ey,
                                    double x, double y, const pic::GridSpec& grid) {
  const CicWeights w = cic_weights(x, y, grid);
  FieldSample s;
  s.ex = ex.at(w.i, w.j) * w.w_bl + ex.at(w.i + 1, w.j) * w.w_br +
         ex.at(w.i, w.j + 1) * w.w_tl + ex.at(w.i + 1, w.j + 1) * w.w_tr;
  s.ey = ey.at(w.i, w.j) * w.w_bl + ey.at(w.i + 1, w.j) * w.w_br +
         ey.at(w.i, w.j + 1) * w.w_tl + ey.at(w.i + 1, w.j + 1) * w.w_tr;
  return s;
}

}  // namespace picprk::field
