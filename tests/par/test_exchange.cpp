#include <gtest/gtest.h>

#include "comm/world.hpp"
#include "par/exchange.hpp"
#include "pic/init.hpp"
#include "pic/mover.hpp"
#include "pic/tiling.hpp"
#include "pic/verify.hpp"

namespace {

using picprk::comm::Cart2D;
using picprk::comm::Comm;
using picprk::comm::World;
using picprk::par::Decomposition2D;
using picprk::par::exchange_particles;
using picprk::pic::GridSpec;
using picprk::pic::InitParams;
using picprk::pic::Initializer;
using picprk::pic::Particle;
using picprk::pic::ParticleSoA;

/// One exchange through a fresh workspace, with no tile index.
picprk::par::ExchangeStats exchange_once(Comm& comm, const Decomposition2D& decomp,
                                         ParticleSoA& mine) {
  picprk::par::ExchangeBuffers buffers;
  return exchange_particles(comm, decomp, mine, nullptr, buffers);
}

TEST(Exchange, RoutesDisplacedParticlesToOwners) {
  const int p = 4;
  World world(p);
  world.run([](Comm& comm) {
    GridSpec grid(16, 1.0);
    Cart2D cart(comm.size());
    Decomposition2D decomp(grid, cart);
    const auto block = decomp.block_of(comm.rank());

    InitParams params;
    params.grid = grid;
    params.total_particles = 800;
    const Initializer init(params);
    ParticleSoA mine =
        picprk::pic::to_soa(init.create_block(block.x0, block.x1, block.y0, block.y1));
    const std::uint64_t local_before = mine.size();

    // Shift every particle 5 cells right (wrapped): most leave the block.
    for (double& x : mine.x) x = picprk::pic::wrap(x + 5.0, 16.0);

    const auto stats = exchange_once(comm, decomp, mine);

    // Global particle count is conserved.
    const std::uint64_t total_after = comm.allreduce_value<std::uint64_t>(
        mine.size(), [](std::uint64_t a, std::uint64_t b) { return a + b; });
    const std::uint64_t total_before = comm.allreduce_value<std::uint64_t>(
        local_before, [](std::uint64_t a, std::uint64_t b) { return a + b; });
    EXPECT_EQ(total_after, total_before);

    // Everything this rank holds is in its block (also asserted inside).
    for (std::size_t i = 0; i < mine.size(); ++i) {
      EXPECT_TRUE(block.contains_cell(grid.cell_of(mine.x[i]), grid.cell_of(mine.y[i])));
    }

    // Id checksum is conserved.
    std::uint64_t local_sum = 0;
    for (const std::uint64_t id : mine.id) local_sum += id;
    const std::uint64_t sum = comm.allreduce_value<std::uint64_t>(
        local_sum, [](std::uint64_t a, std::uint64_t b) { return a + b; });
    EXPECT_EQ(sum, picprk::pic::expected_checksum(init.total()));
    (void)stats;
  });
}

TEST(Exchange, NoMovementMeansNoTraffic) {
  World world(4);
  world.run([](Comm& comm) {
    GridSpec grid(8, 1.0);
    Cart2D cart(comm.size());
    Decomposition2D decomp(grid, cart);
    const auto block = decomp.block_of(comm.rank());

    InitParams params;
    params.grid = grid;
    params.total_particles = 200;
    const Initializer init(params);
    ParticleSoA mine =
        picprk::pic::to_soa(init.create_block(block.x0, block.x1, block.y0, block.y1));

    const auto stats = exchange_once(comm, decomp, mine);
    EXPECT_EQ(stats.sent, 0u);
    EXPECT_EQ(stats.received, 0u);
  });
}

TEST(Exchange, LongJumpsRouteAcrossMultipleRanks) {
  // A 1-wide process grid in x: moving +9 cells crosses two owners.
  World world(3);
  world.run([](Comm& comm) {
    GridSpec grid(12, 1.0);
    Cart2D cart(3, 1);
    Decomposition2D decomp(grid, cart);
    const auto block = decomp.block_of(comm.rank());

    ParticleSoA mine;
    if (comm.rank() == 0) {
      Particle p;
      p.x = picprk::pic::wrap(0.5 + 9.0, 12.0);  // lands in rank 2
      p.y = 6.5;
      p.id = 7;
      mine.push_back(p);
    }
    const auto stats = exchange_once(comm, decomp, mine);
    if (comm.rank() == 2) {
      ASSERT_EQ(mine.size(), 1u);
      EXPECT_EQ(mine.id.front(), 7u);
    } else {
      EXPECT_TRUE(mine.empty());
    }
    (void)stats;
    (void)block;
  });
}

TEST(Exchange, WorkspaceReusePerformsNoSteadyStateAllocations) {
  // The zero-allocation contract of the hot path: drive steady,
  // stationary traffic (uniform particles hopping exact cell distances
  // every step) through the drivers' configuration — tiled mover, tile
  // index kept across the exchange, one reused ExchangeBuffers
  // workspace — and assert the growth counter stops moving once the
  // buffers reach their high-water marks.
  World world(4);
  world.run([](Comm& comm) {
    GridSpec grid(32, 1.0);
    Cart2D cart(comm.size());
    Decomposition2D decomp(grid, cart);
    const auto block = decomp.block_of(comm.rank());

    InitParams params;
    params.grid = grid;
    params.total_particles = 8000;
    params.distribution = picprk::pic::Uniform{};
    params.k = 1;
    params.m = 1;
    const Initializer init(params);
    ParticleSoA mine =
        picprk::pic::to_soa(init.create_block(block.x0, block.x1, block.y0, block.y1));
    picprk::pic::TileIndex tiles(block);

    const picprk::pic::AlternatingColumnCharges charges;
    picprk::par::ExchangeBuffers buffers;
    // The SoA store grows to fit exactly (no geometric slack), so the
    // warm-up spans one full period of the hop pattern: after 32 steps of
    // (3, 1) cells on a 32-cell periodic grid every particle is back in
    // its starting cell, so every per-rank count and payload size has
    // reached its high-water mark.
    const std::uint32_t warmup = 32, steady = 30;
    for (std::uint32_t s = 0; s < warmup; ++s) {
      picprk::pic::move_all_tiled(mine, tiles, grid, charges, params.dt);
      exchange_particles(comm, decomp, mine, &tiles, buffers);
    }
    const std::uint64_t after_warmup = buffers.allocations();
    std::uint64_t traffic = 0;
    for (std::uint32_t s = 0; s < steady; ++s) {
      picprk::pic::move_all_tiled(mine, tiles, grid, charges, params.dt);
      traffic += exchange_particles(comm, decomp, mine, &tiles, buffers).sent;
    }
    EXPECT_GT(traffic, 0u) << "test must actually exercise the send path";
    EXPECT_EQ(buffers.allocations(), after_warmup)
        << "steady-state exchange must reuse the workspace";
  });
}

TEST(Exchange, WorkspaceAndThrowawayOverloadsAgree) {
  // Same traffic through a warmed-up, reused workspace and through a
  // throwaway one: identical particle sets, identical order (keepers
  // first in original order, then immigrants by source rank).
  World world(4);
  world.run([](Comm& comm) {
    GridSpec grid(16, 1.0);
    Cart2D cart(comm.size());
    Decomposition2D decomp(grid, cart);
    const auto block = decomp.block_of(comm.rank());

    InitParams params;
    params.grid = grid;
    params.total_particles = 1200;
    params.distribution = picprk::pic::Geometric{0.95};
    const Initializer init(params);
    ParticleSoA with_workspace =
        picprk::pic::to_soa(init.create_block(block.x0, block.x1, block.y0, block.y1));
    for (double& x : with_workspace.x) x = picprk::pic::wrap(x + 3.0, grid.length());
    ParticleSoA throwaway = with_workspace;

    picprk::par::ExchangeBuffers buffers;
    ParticleSoA warmup = with_workspace;
    exchange_particles(comm, decomp, warmup, nullptr, buffers);
    const auto a = exchange_particles(comm, decomp, with_workspace, nullptr, buffers);
    const auto b = exchange_once(comm, decomp, throwaway);

    EXPECT_EQ(a.sent, b.sent);
    EXPECT_EQ(a.received, b.received);
    ASSERT_EQ(with_workspace.size(), throwaway.size());
    EXPECT_EQ(with_workspace.id, throwaway.id);
    EXPECT_EQ(with_workspace.x, throwaway.x);
    EXPECT_EQ(with_workspace.y, throwaway.y);
  });
}

TEST(Exchange, TileIndexSurvivesCompaction) {
  // The drivers' configuration: a fresh tile index over the block is
  // shrunk in step with the keeper compaction, immigrants land in its
  // tail, and the store order matches the untiled exchange.
  World world(4);
  world.run([](Comm& comm) {
    GridSpec grid(16, 1.0);
    Cart2D cart(comm.size());
    Decomposition2D decomp(grid, cart);
    const auto block = decomp.block_of(comm.rank());

    InitParams params;
    params.grid = grid;
    params.total_particles = 1500;
    const Initializer init(params);
    ParticleSoA tiled =
        picprk::pic::to_soa(init.create_block(block.x0, block.x1, block.y0, block.y1));
    picprk::pic::TileIndex tiles(block);
    tiles.rebuild(tiled, grid);
    // Shift every other cell column of particles by two cells: some tiles
    // leave the block whole, the rest stay.
    for (std::size_t i = 0; i < tiled.size(); ++i) {
      if (grid.cell_of(tiled.x[i]) % 2 == 0) {
        tiled.x[i] = picprk::pic::wrap(tiled.x[i] + 2.0, grid.length());
      }
    }
    ASSERT_TRUE(tiles.revalidate_after_move(tiled, grid));
    ParticleSoA untiled = tiled;

    picprk::par::ExchangeBuffers buffers;
    const auto stats = exchange_particles(comm, decomp, tiled, &tiles, buffers);
    exchange_once(comm, decomp, untiled);

    EXPECT_GT(comm.allreduce_value<std::uint64_t>(
                  stats.sent, [](std::uint64_t a, std::uint64_t b) { return a + b; }),
              0u);
    EXPECT_EQ(tiled.id, untiled.id);
    EXPECT_TRUE(tiles.check(tiled, grid));
    EXPECT_EQ(tiles.tail_begin(), tiled.size() - stats.received);
  });
}

TEST(Exchange, ByteAccountingMatchesTraffic) {
  World world(2);
  world.run([](Comm& comm) {
    GridSpec grid(8, 1.0);
    Cart2D cart(2, 1);
    Decomposition2D decomp(grid, cart);

    ParticleSoA mine;
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        Particle p;
        p.x = 6.5;  // belongs to rank 1
        p.y = 0.5;
        p.id = static_cast<std::uint64_t>(i + 1);
        mine.push_back(p);
      }
    }
    const auto stats = exchange_once(comm, decomp, mine);
    if (comm.rank() == 0) {
      EXPECT_EQ(stats.sent, 10u);
      EXPECT_EQ(stats.bytes, 10u * sizeof(Particle));
    } else {
      EXPECT_EQ(stats.received, 10u);
    }
  });
}

}  // namespace
