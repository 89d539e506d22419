// Parameterized property sweeps over the specification's whole knob
// space: every distribution × horizontal speed k × vertical speed m ×
// charge-sign mode must verify, conserve particles, and respect the
// kinematic invariants of §III-D (velocity returns to zero every two
// steps; particles stay on cell centers).
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "pic/charge.hpp"
#include "pic/mover.hpp"
#include "pic/simulation.hpp"

namespace {

using picprk::pic::AlternatingColumnCharges;
using picprk::pic::ChargeSign;
using picprk::pic::Distribution;
using picprk::pic::Geometric;
using picprk::pic::GridSpec;
using picprk::pic::InitParams;
using picprk::pic::Initializer;
using picprk::pic::Linear;
using picprk::pic::Particle;
using picprk::pic::Patch;
using picprk::pic::Sinusoidal;
using picprk::pic::Uniform;

Distribution make_distribution(int kind) {
  switch (kind) {
    case 0: return Uniform{};
    case 1: return Geometric{0.9};
    case 2: return Sinusoidal{};
    case 3: return Linear{1.0, 1.5};
    default: return Patch{{4, 16, 4, 16}};
  }
}

const char* distribution_tag(int kind) {
  switch (kind) {
    case 0: return "uniform";
    case 1: return "geometric";
    case 2: return "sinusoidal";
    case 3: return "linear";
    default: return "patch";
  }
}

// (distribution kind, k, m, sign mode)
using SweepParam = std::tuple<int, int, int, int>;

class SpecSweep : public ::testing::TestWithParam<SweepParam> {};

INSTANTIATE_TEST_SUITE_P(
    AllKnobs, SpecSweep,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),   // distribution
                       ::testing::Values(0, 1, 2),          // k
                       ::testing::Values(-2, 0, 3),         // m
                       ::testing::Values(0, 1, 2)),         // sign mode
    [](const auto& info) {
      // NOTE: no structured bindings here — the commas inside `auto [..]`
      // would split the INSTANTIATE macro's arguments.
      const int kind = std::get<0>(info.param);
      const int k = std::get<1>(info.param);
      const int m = std::get<2>(info.param);
      const int sign = std::get<3>(info.param);
      std::string name = distribution_tag(kind);
      name += "_k" + std::to_string(k);
      name += m < 0 ? "_mneg" + std::to_string(-m) : "_m" + std::to_string(m);
      name += "_s" + std::to_string(sign);
      return name;
    });

TEST_P(SpecSweep, SerialRunVerifies) {
  const auto [kind, k, m, sign] = GetParam();
  picprk::pic::SimulationConfig cfg;
  cfg.init.grid = GridSpec(24, 1.0);
  cfg.init.total_particles = 600;
  cfg.init.distribution = make_distribution(kind);
  cfg.init.k = k;
  cfg.init.m = m;
  cfg.init.sign = static_cast<ChargeSign>(sign);
  cfg.steps = 37;  // odd step count: ends mid hop-pair with v != 0
  const auto result = picprk::pic::run_serial(cfg);
  EXPECT_TRUE(result.ok()) << "failures=" << result.verification.position_failures
                           << " max_err=" << result.verification.max_position_error;
  EXPECT_EQ(result.final_particles, result.verification.checked);
}

TEST_P(SpecSweep, KinematicInvariants) {
  const auto [kind, k, m, sign] = GetParam();
  InitParams params;
  params.grid = GridSpec(24, 1.0);
  params.total_particles = 300;
  params.distribution = make_distribution(kind);
  params.k = k;
  params.m = m;
  params.sign = static_cast<ChargeSign>(sign);
  const Initializer init(params);
  auto particles = init.create_all();
  const AlternatingColumnCharges charges;

  const std::size_t n = particles.size();
  for (int step = 1; step <= 6; ++step) {
    picprk::pic::move_all(std::span<Particle>(particles), params.grid, charges, 1.0);
    ASSERT_EQ(particles.size(), n);  // motion never loses particles
    for (const Particle& p : particles) {
      // Cell-center invariant: relative position stays (0.5, 0.5).
      EXPECT_NEAR(p.x - std::floor(p.x), 0.5, 1e-9);
      EXPECT_NEAR(p.y - std::floor(p.y), 0.5, 1e-9);
      // Vertical velocity is constant (Eq. 4).
      EXPECT_NEAR(p.vy, static_cast<double>(m), 1e-9);
      if (step % 2 == 0) {
        // After every complete hop pair the horizontal velocity is zero.
        EXPECT_NEAR(p.vx, 0.0, 1e-9);
      } else {
        // Mid-pair it is exactly ±2(2k+1)h/dt.
        EXPECT_NEAR(std::fabs(p.vx), 2.0 * (2.0 * k + 1.0), 1e-9);
      }
    }
  }
}

TEST_P(SpecSweep, ParallelBlockInitMatchesSerial) {
  const auto [kind, k, m, sign] = GetParam();
  InitParams params;
  params.grid = GridSpec(24, 1.0);
  params.total_particles = 500;
  params.distribution = make_distribution(kind);
  params.k = k;
  params.m = m;
  params.sign = static_cast<ChargeSign>(sign);
  const Initializer init(params);

  const auto serial = init.create_all();
  std::uint64_t pieces_total = 0;
  std::uint64_t pieces_checksum = 0;
  for (std::int64_t bx = 0; bx < 2; ++bx) {
    for (std::int64_t by = 0; by < 3; ++by) {
      const auto block = init.create_block(bx * 12, (bx + 1) * 12, by * 8, (by + 1) * 8);
      pieces_total += block.size();
      for (const auto& p : block) pieces_checksum += p.id;
    }
  }
  std::uint64_t serial_checksum = 0;
  for (const auto& p : serial) serial_checksum += p.id;
  EXPECT_EQ(pieces_total, serial.size());
  EXPECT_EQ(pieces_checksum, serial_checksum);
}

}  // namespace
