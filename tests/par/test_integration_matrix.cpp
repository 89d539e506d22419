// The full integration matrix: every parallel implementation (baseline /
// diffusion / two-phase diffusion / rcb / adaptive / ampi) × every §III-E
// distribution × population events (none, one removal, two same-step
// removals over overlapping regions) must verify against the closed form
// AND agree with the serial reference on the global particle count and id
// checksum. This is the repository's strongest end-to-end statement:
// independently-implemented runtimes producing the same verified physics.
#include <gtest/gtest.h>

#include "comm/world.hpp"
#include "matrix_cases.hpp"
#include "par/ampi.hpp"
#include "par/diffusion.hpp"

namespace {

using matrix::serial_reference;
using picprk::comm::Comm;
using picprk::comm::World;
using picprk::par::DriverResult;
using picprk::par::RunConfig;

RunConfig matrix_config(int kind, matrix::Events events) {
  RunConfig cfg;
  cfg.init.grid = picprk::pic::GridSpec(matrix::kCells, 1.0);
  cfg.init.total_particles = matrix::kParticles;
  cfg.init.distribution = matrix::distribution(kind);
  cfg.init.k = 1;
  cfg.init.m = -1;
  cfg.steps = matrix::kSteps;
  cfg.events = matrix::schedule(events);
  return cfg;
}

class Matrix : public ::testing::TestWithParam<matrix::Param> {};

INSTANTIATE_TEST_SUITE_P(DistributionsAndEvents, Matrix, matrix::cases(),
                         matrix::case_name);

TEST_P(Matrix, BaselineMatchesSerial) {
  const auto [kind, events] = GetParam();
  const auto cfg = matrix_config(kind, events);
  const auto ref = serial_reference(cfg);
  World world(4);
  world.run([&](Comm& comm) {
    const DriverResult r = picprk::par::run_baseline(comm, cfg);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.final_particles, ref.particles);
    EXPECT_EQ(r.verification.id_checksum, ref.checksum);
  });
}

TEST_P(Matrix, DiffusionMatchesSerial) {
  const auto [kind, events] = GetParam();
  const auto cfg = matrix_config(kind, events);
  const auto ref = serial_reference(cfg);
  World world(4);
  world.run([&](Comm& comm) {
    RunConfig dcfg = cfg;
    dcfg.lb.strategy = "diffusion:threshold=0.05,border=2";
    dcfg.lb.every = 4;
    const DriverResult r = picprk::par::run_diffusion(comm, dcfg);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.final_particles, ref.particles);
    EXPECT_EQ(r.verification.id_checksum, ref.checksum);
  });
}

TEST_P(Matrix, TwoPhaseDiffusionMatchesSerial) {
  const auto [kind, events] = GetParam();
  const auto cfg = matrix_config(kind, events);
  const auto ref = serial_reference(cfg);
  World world(4);
  world.run([&](Comm& comm) {
    RunConfig dcfg = cfg;
    dcfg.lb.strategy = "diffusion:threshold=0.05,border=1,two_phase=1";
    dcfg.lb.every = 6;
    const DriverResult r = picprk::par::run_diffusion(comm, dcfg);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.final_particles, ref.particles);
    EXPECT_EQ(r.verification.id_checksum, ref.checksum);
  });
}

TEST_P(Matrix, RcbMatchesSerial) {
  const auto [kind, events] = GetParam();
  const auto cfg = matrix_config(kind, events);
  const auto ref = serial_reference(cfg);
  World world(4);
  world.run([&](Comm& comm) {
    RunConfig dcfg = cfg;
    dcfg.lb.strategy = "rcb:two_phase=1";
    dcfg.lb.every = 6;
    const DriverResult r = picprk::par::run_diffusion(comm, dcfg);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.final_particles, ref.particles);
    EXPECT_EQ(r.verification.id_checksum, ref.checksum);
  });
}

TEST_P(Matrix, AdaptiveMatchesSerial) {
  const auto [kind, events] = GetParam();
  const auto cfg = matrix_config(kind, events);
  const auto ref = serial_reference(cfg);
  World world(4);
  world.run([&](Comm& comm) {
    RunConfig dcfg = cfg;
    dcfg.lb.strategy = "adaptive";
    dcfg.lb.every = 6;
    const DriverResult r = picprk::par::run_diffusion(comm, dcfg);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.final_particles, ref.particles);
    EXPECT_EQ(r.verification.id_checksum, ref.checksum);
  });
}

TEST_P(Matrix, AmpiMatchesSerial) {
  const auto [kind, events] = GetParam();
  const auto cfg = matrix_config(kind, events);
  const auto ref = serial_reference(cfg);
  RunConfig acfg = cfg;
  acfg.workers = 2;
  acfg.overdecomposition = 4;
  acfg.lb.every = 5;
  const DriverResult r = picprk::par::run_ampi(acfg);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.final_particles, ref.particles);
  EXPECT_EQ(r.verification.id_checksum, ref.checksum);
}

}  // namespace
