#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "pic/init.hpp"

namespace {

using picprk::pic::ChargeSign;
using picprk::pic::Distribution;
using picprk::pic::Geometric;
using picprk::pic::GridSpec;
using picprk::pic::InitParams;
using picprk::pic::Initializer;
using picprk::pic::Linear;
using picprk::pic::Patch;
using picprk::pic::Particle;
using picprk::pic::Sinusoidal;
using picprk::pic::Uniform;

InitParams base_params(std::int64_t cells, std::uint64_t n, Distribution dist) {
  InitParams p;
  p.grid = GridSpec(cells, 1.0);
  p.total_particles = n;
  p.distribution = dist;
  return p;
}

TEST(InitializerTest, TotalNearRequest) {
  const Initializer init(base_params(100, 50000, Uniform{}));
  // Stochastic rounding keeps the realised total within a few hundred of
  // the request for 10k cells.
  EXPECT_NEAR(static_cast<double>(init.total()), 50000.0, 500.0);
}

TEST(InitializerTest, SerialCreateMatchesTotals) {
  const Initializer init(base_params(50, 5000, Geometric{0.95}));
  const auto particles = init.create_all();
  EXPECT_EQ(particles.size(), init.total());
}

TEST(InitializerTest, IdsAreUniqueAndContiguous) {
  const Initializer init(base_params(40, 2000, Uniform{}));
  const auto particles = init.create_all();
  std::set<std::uint64_t> ids;
  for (const auto& p : particles) ids.insert(p.id);
  EXPECT_EQ(ids.size(), particles.size());
  EXPECT_EQ(*ids.begin(), 1u);
  EXPECT_EQ(*ids.rbegin(), particles.size());
}

TEST(InitializerTest, BlockDecompositionIsExactPartition) {
  // The determinism contract: any tiling of the grid reproduces exactly
  // the serial particle set, ids included.
  const Initializer init(base_params(24, 3000, Geometric{0.9}));
  const auto serial = init.create_all();

  std::map<std::uint64_t, Particle> by_id;
  for (const auto& p : serial) by_id[p.id] = p;

  std::size_t total = 0;
  for (std::int64_t bx = 0; bx < 3; ++bx) {
    for (std::int64_t by = 0; by < 2; ++by) {
      const auto block = init.create_block(bx * 8, (bx + 1) * 8, by * 12, (by + 1) * 12);
      total += block.size();
      for (const auto& p : block) {
        auto it = by_id.find(p.id);
        ASSERT_NE(it, by_id.end()) << "block produced unknown id " << p.id;
        EXPECT_DOUBLE_EQ(p.x, it->second.x);
        EXPECT_DOUBLE_EQ(p.y, it->second.y);
        EXPECT_DOUBLE_EQ(p.q, it->second.q);
        EXPECT_EQ(p.dir, it->second.dir);
      }
    }
  }
  EXPECT_EQ(total, serial.size());
}

TEST(InitializerTest, GeometricSkewsLeft) {
  // With r < 1 the left half holds more particles than the right half.
  const Initializer init(base_params(100, 20000, Geometric{0.9}));
  std::uint64_t left = 0, right = 0;
  for (std::int64_t cx = 0; cx < 50; ++cx) left += init.column_total(cx);
  for (std::int64_t cx = 50; cx < 100; ++cx) right += init.column_total(cx);
  EXPECT_GT(left, right * 10);
}

TEST(InitializerTest, GeometricColumnRatioMatchesEq8) {
  // Eq. 8: particles per block column form a geometric series with ratio
  // r^(c/P). Use expectation values to avoid rounding noise.
  InitParams params = base_params(64, 100000, Geometric{0.95});
  const Initializer init(params);
  double block0 = 0, block1 = 0;
  for (std::int64_t cx = 0; cx < 16; ++cx)
    block0 += init.expected_in_cell(cx, 0) * 64.0;
  for (std::int64_t cx = 16; cx < 32; ++cx)
    block1 += init.expected_in_cell(cx, 0) * 64.0;
  EXPECT_NEAR(block1 / block0, std::pow(0.95, 16.0), 1e-9);
}

TEST(InitializerTest, UniformIsFlat) {
  const Initializer init(base_params(60, 36000, Uniform{}));
  for (std::int64_t cx = 0; cx < 60; ++cx) {
    EXPECT_NEAR(init.expected_in_cell(cx, 0), 10.0, 1e-12);
  }
}

TEST(InitializerTest, GeometricREqualOneDegeneratesToUniform) {
  const Initializer uni(base_params(60, 36000, Uniform{}));
  const Initializer geo(base_params(60, 36000, Geometric{1.0}));
  for (std::int64_t cx = 0; cx < 60; ++cx) {
    EXPECT_DOUBLE_EQ(uni.expected_in_cell(cx, 0), geo.expected_in_cell(cx, 0));
  }
}

TEST(InitializerTest, SinusoidalPeaksAtEdges) {
  const Initializer init(base_params(100, 100000, Sinusoidal{}));
  // cos(0) = 1 at i = 0 and cos(2π) = 1 at i = c−1; trough at the middle.
  EXPECT_GT(init.expected_in_cell(0, 0), init.expected_in_cell(50, 0) * 10);
  EXPECT_NEAR(init.expected_in_cell(0, 0), init.expected_in_cell(99, 0), 1e-9);
}

TEST(InitializerTest, LinearDecreases) {
  const Initializer init(base_params(100, 100000, Linear{1.0, 1.0}));
  EXPECT_GT(init.expected_in_cell(0, 0), init.expected_in_cell(80, 0));
  // With alpha = beta the density hits ~0 at the right edge.
  EXPECT_NEAR(init.expected_in_cell(99, 0), 0.0, 1e-9);
}

TEST(InitializerTest, PatchConfinesParticles) {
  InitParams params = base_params(40, 5000, Patch{{10, 20, 5, 15}});
  const Initializer init(params);
  const auto particles = init.create_all();
  EXPECT_EQ(particles.size(), init.total());
  for (const auto& p : particles) {
    EXPECT_GE(p.x, 10.0);
    EXPECT_LT(p.x, 20.0);
    EXPECT_GE(p.y, 5.0);
    EXPECT_LT(p.y, 15.0);
  }
}

TEST(InitializerTest, ParticlesSitOnCellCenters) {
  const Initializer init(base_params(20, 500, Uniform{}));
  for (const auto& p : init.create_all()) {
    EXPECT_DOUBLE_EQ(p.x - std::floor(p.x), 0.5);
    EXPECT_DOUBLE_EQ(p.y - std::floor(p.y), 0.5);
    EXPECT_DOUBLE_EQ(p.x, p.x0);
    EXPECT_DOUBLE_EQ(p.y, p.y0);
  }
}

TEST(InitializerTest, ChargeSignFollowsColumnParity) {
  InitParams params = base_params(20, 2000, Uniform{});
  params.sign = ChargeSign::DriftRight;
  const Initializer init(params);
  for (const auto& p : init.create_all()) {
    const auto cx = static_cast<std::int64_t>(std::floor(p.x));
    if (cx % 2 == 0) {
      EXPECT_GT(p.q, 0.0);
    } else {
      EXPECT_LT(p.q, 0.0);
    }
    EXPECT_EQ(p.dir, 1);
  }
}

TEST(InitializerTest, DriftLeftFlipsSignsAndDir) {
  InitParams params = base_params(20, 1000, Uniform{});
  params.sign = ChargeSign::DriftLeft;
  const Initializer init(params);
  for (const auto& p : init.create_all()) {
    const auto cx = static_cast<std::int64_t>(std::floor(p.x));
    if (cx % 2 == 0) {
      EXPECT_LT(p.q, 0.0);
    } else {
      EXPECT_GT(p.q, 0.0);
    }
    EXPECT_EQ(p.dir, -1);
  }
}

TEST(InitializerTest, RandomSignMixesDirections) {
  InitParams params = base_params(20, 4000, Uniform{});
  params.sign = ChargeSign::Random;
  const Initializer init(params);
  int left = 0, right = 0;
  for (const auto& p : init.create_all()) (p.dir > 0 ? right : left)++;
  EXPECT_GT(left, 0);
  EXPECT_GT(right, 0);
}

TEST(InitializerTest, VelocityFollowsEq4) {
  InitParams params = base_params(20, 500, Uniform{});
  params.m = 3;
  const Initializer init(params);
  for (const auto& p : init.create_all()) {
    EXPECT_DOUBLE_EQ(p.vy, 3.0);
    EXPECT_DOUBLE_EQ(p.vx, 0.0);
  }
}

TEST(InitializerTest, ChargeMagnitudeFollowsEq3WithK) {
  InitParams params = base_params(20, 500, Uniform{});
  params.k = 2;
  const Initializer init(params);
  const double expect = 5.0 * picprk::pic::charge_base();
  for (const auto& p : init.create_all()) {
    EXPECT_NEAR(std::fabs(p.q), expect, 1e-15);
  }
}

TEST(InitializerTest, SeedChangesPlacementCounts) {
  InitParams a = base_params(30, 1000, Geometric{0.9});
  InitParams b = a;
  b.seed = a.seed + 1;
  const Initializer ia(a), ib(b);
  // Same expectations, different realised per-cell draws.
  bool any_diff = false;
  for (std::int64_t cx = 0; cx < 30 && !any_diff; ++cx) {
    for (std::int64_t cy = 0; cy < 30 && !any_diff; ++cy) {
      any_diff = ia.count_in_cell(cx, cy) != ib.count_in_cell(cx, cy);
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(InitializerTest, ColumnPrefixConsistentWithTotals) {
  const Initializer init(base_params(30, 3000, Sinusoidal{}));
  std::uint64_t running = 1;
  for (std::int64_t cx = 0; cx < 30; ++cx) {
    EXPECT_EQ(init.column_first_id(cx), running);
    running += init.column_total(cx);
  }
  EXPECT_EQ(running - 1, init.total());
}

TEST(Histograms, CountsMatchInitializer) {
  // The materialised population matches the initializer's analytic
  // per-column totals, and no particle is lost across rows.
  const auto params = base_params(20, 2000, Geometric{0.9});
  const Initializer init(params);
  const auto particles = init.create_all();
  std::vector<std::uint64_t> cols(20, 0), rows(20, 0);
  for (const Particle& p : particles) {
    ++cols[static_cast<std::size_t>(params.grid.cell_of(p.x))];
    ++rows[static_cast<std::size_t>(params.grid.cell_of(p.y))];
  }
  for (std::int64_t cx = 0; cx < 20; ++cx) {
    EXPECT_EQ(cols[static_cast<std::size_t>(cx)], init.column_total(cx));
  }
  std::uint64_t total = 0;
  for (auto v : rows) total += v;
  EXPECT_EQ(total, particles.size());
}

}  // namespace
