#include <gtest/gtest.h>

#include <cmath>

#include "pic/charge.hpp"
#include "pic/init.hpp"
#include "pic/mover.hpp"

namespace {

using picprk::pic::AlternatingColumnCharges;
using picprk::pic::charge_base;
using picprk::pic::coulomb;
using picprk::pic::Force;
using picprk::pic::GridSpec;
using picprk::pic::Particle;
using picprk::pic::total_force;

Particle canonical_particle(const GridSpec& grid, std::int64_t cx, std::int64_t cy,
                            int k = 0, int m = 0, double drift = 1.0) {
  Particle p;
  p.x = p.x0 = grid.cell_center(cx);
  p.y = p.y0 = grid.cell_center(cy);
  p.vx = 0.0;
  p.vy = static_cast<double>(m) * grid.h;
  const double col_sign = (cx % 2 == 0) ? 1.0 : -1.0;
  p.q = drift * col_sign * static_cast<double>(2 * k + 1) * charge_base();
  p.k = k;
  p.m = m;
  p.dir = drift > 0 ? 1 : -1;
  return p;
}

TEST(Coulomb, InverseSquareMagnitude) {
  const Force f = coulomb(2.0, 0.0, 1.0, 1.0);
  EXPECT_NEAR(f.fx, 1.0 / 4.0, 1e-15);
  EXPECT_NEAR(f.fy, 0.0, 1e-15);
}

TEST(Coulomb, AttractionForOppositeSigns) {
  // dx > 0 means q2 is to the LEFT of q1 (dx = x1 - x2); like charges
  // push q1 further right (+fx), unlike pull it left (−fx).
  const Force like = coulomb(1.0, 0.0, 1.0, 1.0);
  const Force unlike = coulomb(1.0, 0.0, 1.0, -1.0);
  EXPECT_GT(like.fx, 0.0);
  EXPECT_LT(unlike.fx, 0.0);
}

TEST(Coulomb, DirectionAlongJoiningLine) {
  const Force f = coulomb(3.0, 4.0, 2.0, 5.0);
  // |F| = q1 q2 / r^2 = 10/25; components split 3:4.
  EXPECT_NEAR(f.fx, (10.0 / 25.0) * (3.0 / 5.0), 1e-15);
  EXPECT_NEAR(f.fy, (10.0 / 25.0) * (4.0 / 5.0), 1e-15);
}

TEST(TotalForce, VerticalComponentCancels) {
  // On the horizontal axis of symmetry the net vertical force is ~0
  // (paper Figure 2 argument).
  GridSpec grid(10, 1.0);
  AlternatingColumnCharges charges;
  const Particle p = canonical_particle(grid, 2, 3);
  const Force f = total_force(p, grid, charges);
  EXPECT_NEAR(f.fy, 0.0, 1e-15);
  EXPECT_NE(f.fx, 0.0);
}

TEST(TotalForce, YieldsExactlyOneCellHop) {
  GridSpec grid(10, 1.0);
  AlternatingColumnCharges charges;
  const Particle p = canonical_particle(grid, 2, 3);
  const Force f = total_force(p, grid, charges);
  // Displacement in one step = f/2 (dt=1, v0=0) must equal h.
  EXPECT_NEAR(0.5 * f.fx, 1.0, 1e-12);
}

TEST(TotalForce, OddColumnReversesForce) {
  GridSpec grid(10, 1.0);
  AlternatingColumnCharges charges;
  // DriftRight particles in odd columns carry negative charge and still
  // feel a +x force.
  const Particle p = canonical_particle(grid, 3, 3);
  EXPECT_LT(p.q, 0.0);
  const Force f = total_force(p, grid, charges);
  EXPECT_NEAR(0.5 * f.fx, 1.0, 1e-12);
}

TEST(TotalForce, DriftLeftReversesDirection) {
  GridSpec grid(10, 1.0);
  AlternatingColumnCharges charges;
  const Particle p = canonical_particle(grid, 2, 3, 0, 0, -1.0);
  const Force f = total_force(p, grid, charges);
  EXPECT_NEAR(0.5 * f.fx, -1.0, 1e-12);
}

TEST(TotalForce, HigherKScalesForce) {
  GridSpec grid(10, 1.0);
  AlternatingColumnCharges charges;
  const Particle p1 = canonical_particle(grid, 2, 3, 1);  // (2k+1) = 3
  const Force f = total_force(p1, grid, charges);
  EXPECT_NEAR(0.5 * f.fx, 3.0, 1e-12);
}

TEST(MoveParticle, AlternatingHopPattern) {
  // The defining kinematics (paper Figure 2): accelerate one cell right,
  // decelerate one cell right, velocity returns to zero every 2 steps.
  GridSpec grid(10, 1.0);
  AlternatingColumnCharges charges;
  Particle p = canonical_particle(grid, 2, 3);
  picprk::pic::move_particle(p, grid, charges, 1.0);
  EXPECT_NEAR(p.x, 3.5, 1e-12);
  EXPECT_GT(p.vx, 0.0);
  picprk::pic::move_particle(p, grid, charges, 1.0);
  EXPECT_NEAR(p.x, 4.5, 1e-12);
  EXPECT_NEAR(p.vx, 0.0, 1e-12);
  EXPECT_NEAR(p.y, 3.5, 1e-12);  // no vertical motion for m = 0
}

TEST(MoveParticle, VerticalConstantVelocity) {
  GridSpec grid(10, 1.0);
  AlternatingColumnCharges charges;
  Particle p = canonical_particle(grid, 2, 3, 0, 2);
  picprk::pic::move_particle(p, grid, charges, 1.0);
  EXPECT_NEAR(p.y, 5.5, 1e-12);
  picprk::pic::move_particle(p, grid, charges, 1.0);
  EXPECT_NEAR(p.y, 7.5, 1e-12);
  EXPECT_NEAR(p.vy, 2.0, 1e-15);
}

TEST(MoveParticle, PeriodicWrapInX) {
  GridSpec grid(4, 1.0);
  AlternatingColumnCharges charges;
  Particle p = canonical_particle(grid, 3, 0);
  picprk::pic::move_particle(p, grid, charges, 1.0);
  EXPECT_NEAR(p.x, 0.5, 1e-12);  // wrapped from 3.5 + 1
}

TEST(MoveParticle, PeriodicWrapInY) {
  GridSpec grid(4, 1.0);
  AlternatingColumnCharges charges;
  Particle p = canonical_particle(grid, 0, 3, 0, 1);
  picprk::pic::move_particle(p, grid, charges, 1.0);
  EXPECT_NEAR(p.y, 0.5, 1e-12);
}

TEST(MoveParticle, NegativeMMovesDown) {
  GridSpec grid(8, 1.0);
  AlternatingColumnCharges charges;
  Particle p = canonical_particle(grid, 0, 0, 0, -1);
  picprk::pic::move_particle(p, grid, charges, 1.0);
  EXPECT_NEAR(p.y, 7.5, 1e-12);  // wrapped from -0.5
}

TEST(MoveAll, MatchesPerParticleMoves) {
  GridSpec grid(10, 1.0);
  AlternatingColumnCharges charges;
  std::vector<Particle> batch;
  for (std::int64_t cx = 0; cx < 5; ++cx) batch.push_back(canonical_particle(grid, cx, 2));
  std::vector<Particle> singles = batch;
  picprk::pic::move_all(std::span<Particle>(batch), grid, charges, 1.0);
  for (auto& p : singles) picprk::pic::move_particle(p, grid, charges, 1.0);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i].x, singles[i].x);
    EXPECT_DOUBLE_EQ(batch[i].vx, singles[i].vx);
  }
}

TEST(MoveParticle, SlabChargesMatchAnalytic) {
  GridSpec grid(10, 1.0);
  AlternatingColumnCharges pattern;
  auto slab = picprk::pic::ChargeSlab::sample(pattern, 0, 0, 11, 11);
  Particle pa = canonical_particle(grid, 4, 4);
  Particle pb = pa;
  picprk::pic::move_particle(pa, grid, pattern, 1.0);
  picprk::pic::move_particle(pb, grid, slab, 1.0);
  EXPECT_DOUBLE_EQ(pa.x, pb.x);
  EXPECT_DOUBLE_EQ(pa.vx, pb.vx);
}

TEST(Drift, CloudDriftsAtSpecifiedSpeed) {
  // The §III-E1 claim: with k = 1 every particle of a cloud hops exactly
  // (2k+1) = 3 cells right per step and stays in its row.
  picprk::pic::InitParams params;
  params.grid = GridSpec(32, 1.0);
  params.total_particles = 3000;
  params.distribution = picprk::pic::Patch{{4, 12, 0, 32}};
  params.k = 1;
  const picprk::pic::Initializer init(params);
  auto particles = init.create_all();
  const AlternatingColumnCharges charges;
  for (int step = 0; step < 4; ++step) {
    const auto before = particles;
    picprk::pic::move_all(std::span<Particle>(particles), params.grid, charges, 1.0);
    for (std::size_t i = 0; i < particles.size(); ++i) {
      EXPECT_EQ(params.grid.cell_of(particles[i].x),
                (params.grid.cell_of(before[i].x) + 3) % 32);
      EXPECT_EQ(params.grid.cell_of(particles[i].y), params.grid.cell_of(before[i].y));
    }
  }
}

}  // namespace
