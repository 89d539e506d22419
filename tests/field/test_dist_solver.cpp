// The distributed field pipeline must reproduce the serial one exactly
// (deposition, SpMV) or to solver tolerance (CG), for every rank count.
#include <gtest/gtest.h>

#include "comm/world.hpp"
#include "field/dist_pic.hpp"
#include "field/dist_solver.hpp"
#include "pic/init.hpp"

namespace {

using picprk::comm::Cart2D;
using picprk::comm::Comm;
using picprk::comm::World;
using picprk::field::DistributedField;
using picprk::field::DistributedMiniPic;
using picprk::field::MiniPic;
using picprk::field::MiniPicConfig;
using picprk::field::ScalarField;
using picprk::par::Decomposition2D;
using picprk::pic::GridSpec;
using picprk::pic::Particle;

std::vector<Particle> test_particles(std::int64_t cells, std::uint64_t n) {
  picprk::pic::InitParams params;
  params.grid = GridSpec(cells, 1.0);
  params.total_particles = n;
  params.distribution = picprk::pic::Geometric{0.9};
  auto particles = picprk::pic::Initializer(params).create_all();
  // Give them off-center positions and alternating signs so the density
  // is non-trivial and roughly neutral.
  for (std::size_t i = 0; i < particles.size(); ++i) {
    particles[i].x = picprk::pic::wrap(particles[i].x + 0.171 * static_cast<double>(i % 7),
                                       static_cast<double>(cells));
    particles[i].y = picprk::pic::wrap(particles[i].y + 0.233 * static_cast<double>(i % 5),
                                       static_cast<double>(cells));
    particles[i].q = (i % 2 == 0) ? 1.0 : -1.0;
    particles[i].vx = 0.1 * static_cast<double>(i % 3);
  }
  return particles;
}

class DistSolverRanks : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(RankCounts, DistSolverRanks, ::testing::Values(1, 2, 4, 6),
                         [](const auto& info) { return "p" + std::to_string(info.param); });

TEST_P(DistSolverRanks, DepositionMatchesSerialExactly) {
  const GridSpec grid(16, 1.0);
  const auto all = test_particles(16, 600);

  // Serial reference density.
  ScalarField serial_rho(grid);
  picprk::field::deposit_cic(std::span<const Particle>(all), grid, serial_rho);

  World world(GetParam());
  world.run([&](Comm& comm) {
    Cart2D cart(comm.size());
    Decomposition2D decomp(grid, cart);
    DistributedField rho(grid, decomp, comm.rank());
    // Each rank deposits only its own particles.
    std::vector<Particle> mine;
    for (const auto& p : all) {
      if (decomp.owner_of_position(p.x, p.y) == comm.rank()) mine.push_back(p);
    }
    picprk::field::deposit_cic_distributed(comm, picprk::pic::to_soa(mine), grid, rho);
    for (std::int64_t gj = 0; gj < 16; ++gj) {
      for (std::int64_t gi = 0; gi < 16; ++gi) {
        if (!rho.owns(gi, gj)) continue;
        EXPECT_NEAR(rho.at(gi, gj), serial_rho.at(gi, gj), 1e-12)
            << "point (" << gi << "," << gj << ")";
      }
    }
  });
}

TEST_P(DistSolverRanks, LaplacianMatchesSerial) {
  const GridSpec grid(16, 1.0);
  ScalarField in(grid), serial_out(grid);
  for (std::int64_t j = 0; j < 16; ++j) {
    for (std::int64_t i = 0; i < 16; ++i) {
      in.at(i, j) = std::sin(0.3 * static_cast<double>(i)) +
                    0.5 * std::cos(0.7 * static_cast<double>(j));
    }
  }
  picprk::field::apply_neg_laplacian(in, serial_out);

  World world(GetParam());
  world.run([&](Comm& comm) {
    Cart2D cart(comm.size());
    Decomposition2D decomp(grid, cart);
    DistributedField din(grid, decomp, comm.rank());
    DistributedField dout(grid, decomp, comm.rank());
    for (std::int64_t lj = 0; lj < din.height(); ++lj) {
      for (std::int64_t li = 0; li < din.width(); ++li) {
        din.at(din.x0() + li, din.y0() + lj) = in.at(din.x0() + li, din.y0() + lj);
      }
    }
    picprk::field::apply_neg_laplacian_distributed(comm, din, dout, 1.0);
    for (std::int64_t lj = 0; lj < dout.height(); ++lj) {
      for (std::int64_t li = 0; li < dout.width(); ++li) {
        EXPECT_NEAR(dout.at(dout.x0() + li, dout.y0() + lj),
                    serial_out.at(dout.x0() + li, dout.y0() + lj), 1e-12);
      }
    }
  });
}

TEST_P(DistSolverRanks, PoissonSolutionMatchesSerial) {
  const GridSpec grid(16, 1.0);
  ScalarField rho(grid);
  rho.at(3, 4) = 8.0;
  rho.at(12, 11) = -5.0;
  ScalarField serial_phi;
  const auto serial = picprk::field::solve_poisson(rho, serial_phi, 1e-10);
  ASSERT_TRUE(serial.converged);

  World world(GetParam());
  world.run([&](Comm& comm) {
    Cart2D cart(comm.size());
    Decomposition2D decomp(grid, cart);
    DistributedField drho(grid, decomp, comm.rank());
    for (std::int64_t lj = 0; lj < drho.height(); ++lj) {
      for (std::int64_t li = 0; li < drho.width(); ++li) {
        drho.at(drho.x0() + li, drho.y0() + lj) = rho.at(drho.x0() + li, drho.y0() + lj);
      }
    }
    DistributedField dphi(grid, decomp, comm.rank());
    const auto result =
        picprk::field::solve_poisson_distributed(comm, drho, dphi, grid, 1e-10);
    EXPECT_TRUE(result.converged);
    for (std::int64_t lj = 0; lj < dphi.height(); ++lj) {
      for (std::int64_t li = 0; li < dphi.width(); ++li) {
        EXPECT_NEAR(dphi.at(dphi.x0() + li, dphi.y0() + lj),
                    serial_phi.at(dphi.x0() + li, dphi.y0() + lj), 1e-6);
      }
    }
  });
}

TEST_P(DistSolverRanks, FullCycleTracksSerialMiniPic) {
  const GridSpec grid(16, 1.0);
  const auto all = test_particles(16, 200);
  MiniPicConfig cfg;
  cfg.grid = grid;
  cfg.dt = 0.05;
  cfg.cg_rtol = 1e-10;

  MiniPic serial(cfg, all);
  const auto serial_d = serial.run(8);

  World world(GetParam());
  world.run([&](Comm& comm) {
    // Feed the full set on rank 0 only; the constructor routes them.
    DistributedMiniPic dist(comm, cfg,
                            comm.rank() == 0 ? all : std::vector<Particle>{});
    const auto d = dist.run(8);
    EXPECT_NEAR(d.total_charge, serial_d.total_charge, 1e-12);
    EXPECT_NEAR(d.kinetic_energy, serial_d.kinetic_energy,
                1e-6 * (serial_d.kinetic_energy + 1.0));
    EXPECT_NEAR(d.field_energy, serial_d.field_energy,
                1e-5 * (serial_d.field_energy + 1.0));
    EXPECT_NEAR(d.momentum_x, serial_d.momentum_x, 1e-6);

    // Global particle count conserved.
    const std::uint64_t count = comm.allreduce_value<std::uint64_t>(
        dist.particles().size(),
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
    EXPECT_EQ(count, all.size());
  });
}

TEST(DistSolver, GlobalReductionHelpers) {
  World world(4);
  world.run([](Comm& comm) {
    GridSpec grid(8, 1.0);
    Cart2D cart(comm.size());
    Decomposition2D decomp(grid, cart);
    DistributedField f(grid, decomp, comm.rank());
    f.fill(1.0);
    // fill() also writes the halo ring, but global_sum only counts owned.
    EXPECT_DOUBLE_EQ(picprk::field::global_sum(comm, f), 64.0);
    picprk::field::remove_global_mean(comm, f, 8);
    EXPECT_NEAR(picprk::field::global_sum(comm, f), 0.0, 1e-12);
  });
}

}  // namespace
