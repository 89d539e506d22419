#include <gtest/gtest.h>

#include "pic/init.hpp"
#include "pic/mover.hpp"
#include "pic/verify.hpp"

namespace {

using picprk::pic::AlternatingColumnCharges;
using picprk::pic::expected_checksum;
using picprk::pic::expected_position;
using picprk::pic::GridSpec;
using picprk::pic::InitParams;
using picprk::pic::Initializer;
using picprk::pic::Particle;
using picprk::pic::periodic_distance;
using picprk::pic::Uniform;
using picprk::pic::verify_particles;

TEST(PeriodicDistance, ShortWayAround) {
  EXPECT_DOUBLE_EQ(periodic_distance(1.0, 9.0, 10.0), 2.0);
  EXPECT_DOUBLE_EQ(periodic_distance(3.0, 5.0, 10.0), 2.0);
  EXPECT_DOUBLE_EQ(periodic_distance(0.0, 0.0, 10.0), 0.0);
}

TEST(ExpectedPosition, Eq5And6) {
  GridSpec grid(10, 1.0);
  Particle p;
  p.x0 = 2.5;
  p.y0 = 3.5;
  p.k = 1;   // 3 cells per step
  p.m = 2;   // 2 cells per step
  p.dir = 1;
  const auto e = expected_position(p, grid, 4);
  EXPECT_DOUBLE_EQ(e.x, picprk::pic::wrap(2.5 + 3.0 * 4.0, 10.0));
  EXPECT_DOUBLE_EQ(e.y, picprk::pic::wrap(3.5 + 2.0 * 4.0, 10.0));
}

TEST(ExpectedPosition, NegativeDirection) {
  GridSpec grid(10, 1.0);
  Particle p;
  p.x0 = 2.5;
  p.dir = -1;
  const auto e = expected_position(p, grid, 3);
  EXPECT_DOUBLE_EQ(e.x, picprk::pic::wrap(2.5 - 3.0, 10.0));
}

TEST(ExpectedPosition, BirthOffsetsStepCount) {
  GridSpec grid(10, 1.0);
  Particle p;
  p.x0 = 0.5;
  p.dir = 1;
  p.birth = 5;
  const auto e = expected_position(p, grid, 8);  // only 3 steps participated
  EXPECT_DOUBLE_EQ(e.x, 3.5);
}

TEST(VerifyParticles, AcceptsSimulatedMotion) {
  GridSpec grid(20, 1.0);
  InitParams params;
  params.grid = grid;
  params.total_particles = 300;
  params.distribution = Uniform{};
  params.k = 1;
  params.m = -1;
  const Initializer init(params);
  auto particles = init.create_all();
  AlternatingColumnCharges charges;
  const std::uint32_t steps = 25;
  for (std::uint32_t s = 0; s < steps; ++s) {
    picprk::pic::move_all(std::span<Particle>(particles), grid, charges, 1.0);
  }
  const auto result =
      verify_particles(std::span<const Particle>(particles), grid, steps);
  EXPECT_TRUE(result.positions_ok) << "failures=" << result.position_failures
                                   << " max_err=" << result.max_position_error;
  EXPECT_EQ(result.checked, particles.size());
  EXPECT_TRUE(result.ok(expected_checksum(particles.size())));
}

TEST(VerifyParticles, DetectsSingleForceMiscalculation) {
  // The paper's claim: even one miscalculated step on one particle shows.
  GridSpec grid(20, 1.0);
  InitParams params;
  params.grid = grid;
  params.total_particles = 200;
  const Initializer init(params);
  auto particles = init.create_all();
  AlternatingColumnCharges charges;
  for (std::uint32_t s = 0; s < 10; ++s) {
    picprk::pic::move_all(std::span<Particle>(particles), grid, charges, 1.0);
    if (s == 4) particles[7].x = picprk::pic::wrap(particles[7].x + 0.25, 20.0);
  }
  const auto result =
      verify_particles(std::span<const Particle>(particles), grid, 10);
  EXPECT_FALSE(result.positions_ok);
  EXPECT_GE(result.position_failures, 1u);

  // The SoA store is verified row by row to the same result.
  const auto from_store = verify_particles(picprk::pic::to_soa(particles), grid, 10);
  EXPECT_EQ(from_store.checked, result.checked);
  EXPECT_EQ(from_store.position_failures, result.position_failures);
  EXPECT_EQ(from_store.max_position_error, result.max_position_error);
  EXPECT_EQ(from_store.id_checksum, result.id_checksum);
}

TEST(VerifyParticles, ChecksumDetectsLostParticle) {
  GridSpec grid(20, 1.0);
  InitParams params;
  params.grid = grid;
  params.total_particles = 100;
  const Initializer init(params);
  auto particles = init.create_all();
  const std::uint64_t n = particles.size();
  particles.pop_back();  // "lose" one particle in communication
  const auto result = verify_particles(std::span<const Particle>(particles), grid, 0);
  EXPECT_TRUE(result.positions_ok);  // positions are fine...
  EXPECT_FALSE(result.ok(expected_checksum(n)));  // ...but the checksum is not
}

TEST(VerifyParticles, ChecksumDetectsDuplicatedParticle) {
  GridSpec grid(20, 1.0);
  InitParams params;
  params.grid = grid;
  params.total_particles = 100;
  const Initializer init(params);
  auto particles = init.create_all();
  const std::uint64_t n = particles.size();
  particles.push_back(particles.front());  // deliver a particle twice
  const auto result = verify_particles(std::span<const Particle>(particles), grid, 0);
  EXPECT_FALSE(result.ok(expected_checksum(n)));
}

TEST(VerifyParticles, MergeCombinesPartials) {
  GridSpec grid(20, 1.0);
  InitParams params;
  params.grid = grid;
  params.total_particles = 500;
  const Initializer init(params);
  const auto particles = init.create_all();
  const std::size_t half = particles.size() / 2;
  const auto a = verify_particles(
      std::span<const Particle>(particles.data(), half), grid, 0);
  const auto b = verify_particles(
      std::span<const Particle>(particles.data() + half, particles.size() - half), grid, 0);
  const auto whole = verify_particles(std::span<const Particle>(particles), grid, 0);
  const auto merged = picprk::pic::merge(a, b);
  EXPECT_EQ(merged.checked, whole.checked);
  EXPECT_EQ(merged.id_checksum, whole.id_checksum);
  EXPECT_EQ(merged.positions_ok, whole.positions_ok);
}

TEST(VerifyParticles, WrappedTrajectoriesVerify) {
  // Long run so trajectories wrap the domain many times.
  GridSpec grid(8, 1.0);
  InitParams params;
  params.grid = grid;
  params.total_particles = 64;
  params.k = 2;  // 5 cells per step on an 8-cell ring
  params.m = 3;
  const Initializer init(params);
  auto particles = init.create_all();
  AlternatingColumnCharges charges;
  const std::uint32_t steps = 200;
  for (std::uint32_t s = 0; s < steps; ++s) {
    picprk::pic::move_all(std::span<Particle>(particles), grid, charges, 1.0);
  }
  const auto result =
      verify_particles(std::span<const Particle>(particles), grid, steps);
  EXPECT_TRUE(result.positions_ok) << "max_err=" << result.max_position_error;
}

}  // namespace
