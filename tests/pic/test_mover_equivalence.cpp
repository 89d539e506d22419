// Equivalence of the optimised movers with the pre-optimization kernel
// (pic::reference) over long trajectories. The strength-reduced force
// kernel computes the same mathematical quantity with a different
// rounding pattern (one fused reciprocal instead of twelve divides), so
// per-step forces agree to a few ULPs; over many steps those rounding
// differences accumulate linearly in the velocities, hence the loose
// absolute tolerance on O(1) quantities. The geometry (cell lookup,
// periodic wrap) is bit-identical by construction, so any divergence
// seen here is the force kernel's.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pic/charge.hpp"
#include "pic/events.hpp"
#include "pic/init.hpp"
#include "pic/mover.hpp"
#include "pic/particle.hpp"
#include "pic/tiling.hpp"
#include "pic/verify.hpp"

namespace {

using namespace picprk;
using pic::AlternatingColumnCharges;
using pic::GridSpec;
using pic::InitParams;
using pic::Initializer;
using pic::Particle;

/// Tolerance for trajectory comparison: a few ULPs of force error per
/// step, accumulated over kSteps steps, on coordinates of size O(grid).
constexpr double kTolerance = 1e-10;
constexpr std::uint32_t kSteps = 100;

InitParams base_params(const pic::Distribution& dist) {
  InitParams params;
  params.grid = GridSpec(32, 1.0);
  params.total_particles = 3000;
  params.distribution = dist;
  params.k = 1;
  params.m = 1;
  return params;
}

std::vector<pic::Distribution> all_distributions() {
  return {
      pic::Geometric{0.99},
      pic::Sinusoidal{},
      pic::Linear{1.0, 2.0},
      pic::Patch{pic::CellRegion{4, 12, 4, 12}},
      pic::Uniform{},
  };
}

/// The tiled mover re-sorts the store, so its trajectories are
/// compared with the other movers' by id.
std::vector<Particle> sorted_by_id(std::vector<Particle> particles) {
  std::sort(particles.begin(), particles.end(),
            [](const Particle& a, const Particle& b) { return a.id < b.id; });
  return particles;
}

void expect_trajectories_match(const std::vector<Particle>& expected,
                               const std::vector<Particle>& got, double length,
                               const std::string& label) {
  ASSERT_EQ(expected.size(), got.size()) << label;
  double max_pos = 0.0, max_vel = 0.0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    max_pos = std::max(max_pos,
                       pic::periodic_distance(expected[i].x, got[i].x, length));
    max_pos = std::max(max_pos,
                       pic::periodic_distance(expected[i].y, got[i].y, length));
    max_vel = std::max(max_vel, std::abs(expected[i].vx - got[i].vx));
    max_vel = std::max(max_vel, std::abs(expected[i].vy - got[i].vy));
    EXPECT_EQ(expected[i].id, got[i].id) << label << " particle " << i;
  }
  EXPECT_LE(max_pos, kTolerance) << label << ": positions diverged";
  EXPECT_LE(max_vel, kTolerance) << label << ": velocities diverged";
}

TEST(MoverEquivalence, OptimizedKernelsMatchReferenceOnAllDistributions) {
  const AlternatingColumnCharges charges;
  for (const auto& dist : all_distributions()) {
    const InitParams params = base_params(dist);
    const Initializer init(params);
    const std::string label = pic::distribution_name(dist);

    auto p_ref = init.create_all();
    auto p_new = init.create_all();
    auto soa = pic::to_soa(init.create_all());
    pic::TileIndex tiles(pic::CellRegion{0, params.grid.cells, 0, params.grid.cells});
    ASSERT_FALSE(p_ref.empty()) << label;

    for (std::uint32_t s = 0; s < kSteps; ++s) {
      pic::reference::move_all(std::span<Particle>(p_ref), params.grid, charges,
                               params.dt);
      pic::move_all(std::span<Particle>(p_new), params.grid, charges, params.dt);
      pic::move_all_tiled(soa, tiles, params.grid, charges, params.dt);
    }

    expect_trajectories_match(p_ref, p_new, params.grid.length(), label + "/AoS");
    expect_trajectories_match(sorted_by_id(p_ref), sorted_by_id(pic::to_aos(soa)),
                              params.grid.length(), label + "/tiled");

    // Both old and new trajectories must satisfy the closed-form
    // positions (Eqs. 5–6) and the id checksum — equivalence alone could
    // hide a bug shared by every kernel.
    for (const auto* cloud : {&p_ref, &p_new}) {
      const auto result = pic::verify_particles(std::span<const Particle>(*cloud),
                                                params.grid, kSteps);
      EXPECT_TRUE(result.ok(pic::expected_checksum(init.total())))
          << label << ": closed-form verification failed, max error "
          << result.max_position_error;
    }
  }
}

/// Equality is EXPECT_EQ on doubles: the tiled kernel must be
/// bit-identical to move_all, not merely close (same force expressions,
/// same advance expression, wrap as a separate pass — see mover.hpp).
void expect_bit_identical_by_id(std::vector<Particle> expected,
                                std::vector<Particle> got, const std::string& label) {
  ASSERT_EQ(expected.size(), got.size()) << label;
  expected = sorted_by_id(std::move(expected));
  got = sorted_by_id(std::move(got));
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i].id, got[i].id) << label << " particle " << i;
    EXPECT_EQ(expected[i].x, got[i].x) << label << " id " << expected[i].id;
    EXPECT_EQ(expected[i].y, got[i].y) << label << " id " << expected[i].id;
    EXPECT_EQ(expected[i].vx, got[i].vx) << label << " id " << expected[i].id;
    EXPECT_EQ(expected[i].vy, got[i].vy) << label << " id " << expected[i].id;
  }
}

TEST(MoverEquivalence, TiledMoverIsBitIdenticalToScalarOnAllDistributions) {
  const AlternatingColumnCharges charges;
  for (const auto& dist : all_distributions()) {
    const InitParams params = base_params(dist);
    const Initializer init(params);
    const std::string label = pic::distribution_name(dist);

    auto p_scalar = init.create_all();
    auto soa = pic::to_soa(init.create_all());
    pic::TileIndex tiles(pic::CellRegion{0, params.grid.cells, 0, params.grid.cells});
    ASSERT_FALSE(p_scalar.empty()) << label;

    for (std::uint32_t s = 0; s < kSteps; ++s) {
      pic::move_all(std::span<Particle>(p_scalar), params.grid, charges, params.dt);
      pic::move_all_tiled(soa, tiles, params.grid, charges, params.dt);
      ASSERT_TRUE(!tiles.fresh() || tiles.check(soa, params.grid))
          << label << " step " << s << ": tile index invariant broken";
    }

    expect_bit_identical_by_id(p_scalar, pic::to_aos(soa), label + "/tiled");
    const auto result = pic::verify_particles(
        std::span<const Particle>(pic::to_aos(soa)), params.grid, kSteps);
    EXPECT_TRUE(result.ok(pic::expected_checksum(init.total())))
        << label << ": closed-form verification failed after tiled stepping";
  }
}

TEST(MoverEquivalence, TiledMoverSurvivesInjectionAndRemovalEvents) {
  // Mid-run population changes go through the same AoS staging the
  // drivers use: the tile index is invalidated, the next tiled move
  // rebuilds it, and trajectories stay bit-identical to the scalar
  // mover throughout.
  const AlternatingColumnCharges charges;
  const InitParams params = base_params(pic::Geometric{0.99});
  const Initializer init(params);
  const pic::EventSchedule events(
      {pic::InjectionEvent{10, pic::CellRegion{8, 16, 8, 16}, 500},
       pic::InjectionEvent{40, pic::CellRegion{0, 8, 0, 8}, 250}},
      {pic::RemovalEvent{25, pic::CellRegion{4, 20, 4, 20}, 0.5},
       pic::RemovalEvent{60, pic::CellRegion{0, 32, 0, 32}, 0.25}});

  auto p_scalar = init.create_all();
  auto soa = pic::to_soa(init.create_all());
  const pic::CellRegion whole{0, params.grid.cells, 0, params.grid.cells};
  pic::TileIndex tiles(whole);

  for (std::uint32_t s = 0; s < kSteps; ++s) {
    events.apply_step(init, s, whole, p_scalar);
    events.apply_step(init, s, whole, soa, &tiles);
    pic::move_all(std::span<Particle>(p_scalar), params.grid, charges, params.dt);
    pic::move_all_tiled(soa, tiles, params.grid, charges, params.dt);
    ASSERT_TRUE(!tiles.fresh() || tiles.check(soa, params.grid))
        << "step " << s << ": tile index invariant broken";
  }

  ASSERT_GT(soa.size(), 0u);
  expect_bit_identical_by_id(p_scalar, pic::to_aos(soa), "events/tiled");
}

TEST(MoverEquivalence, SlabChargesMatchPatternChargesBitwise) {
  // The ChargeSlab fast path serves cached copies of the analytic
  // pattern values, so slab-driven trajectories are bit-identical (not
  // merely ULP-close) to pattern-driven ones.
  const AlternatingColumnCharges charges;
  const InitParams params = base_params(pic::Geometric{0.99});
  const Initializer init(params);
  const auto slab =
      pic::ChargeSlab::sample(charges, 0, 0, params.grid.cells + 1, params.grid.cells + 1);

  auto p_pattern = init.create_all();
  auto p_slab = init.create_all();
  for (std::uint32_t s = 0; s < kSteps; ++s) {
    pic::move_all(std::span<Particle>(p_pattern), params.grid, charges, params.dt);
    pic::move_all(std::span<Particle>(p_slab), params.grid, slab, params.dt);
  }
  ASSERT_EQ(p_pattern.size(), p_slab.size());
  for (std::size_t i = 0; i < p_pattern.size(); ++i) {
    EXPECT_EQ(p_pattern[i].x, p_slab[i].x);
    EXPECT_EQ(p_pattern[i].y, p_slab[i].y);
    EXPECT_EQ(p_pattern[i].vx, p_slab[i].vx);
    EXPECT_EQ(p_pattern[i].vy, p_slab[i].vy);
  }
}

}  // namespace
