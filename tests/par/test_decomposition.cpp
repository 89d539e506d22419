#include <gtest/gtest.h>

#include "comm/cart.hpp"
#include "par/decomposition.hpp"
#include "par/pic_vp.hpp"

namespace {

using picprk::comm::Cart2D;
using picprk::par::Decomposition2D;
using picprk::pic::GridSpec;

TEST(Decomposition, BalancedInitialBlocks) {
  GridSpec grid(12, 1.0);
  Cart2D cart(3, 2);
  Decomposition2D d(grid, cart);
  EXPECT_EQ(d.x_bounds(), (std::vector<std::int64_t>{0, 4, 8, 12}));
  EXPECT_EQ(d.y_bounds(), (std::vector<std::int64_t>{0, 6, 12}));
}

TEST(Decomposition, BlocksTileTheGrid) {
  GridSpec grid(10, 1.0);
  Cart2D cart(3, 3);
  Decomposition2D d(grid, cart);
  std::int64_t total = 0;
  for (int r = 0; r < cart.size(); ++r) total += d.block_of(r).area();
  EXPECT_EQ(total, 100);
}

// PicVpShared routes particles through per-cell tables; they must name
// the same VP as the block_owner arithmetic they replace, including grids
// whose cell count the VP grid does not divide (30 cells over a 4 × 2 or
// 3 × 3 VP grid), and for points on a cell's lower edge as well as inside.
TEST(Decomposition, VpRoutingTablesMatchBlockOwner) {
  const std::pair<std::int64_t, int> shapes[] = {{30, 8}, {30, 9}, {30, 6}, {64, 8},
                                                 {14, 14}, {16, 1}};
  for (const auto& [cells, vps] : shapes) {
    picprk::par::DriverConfig config;
    config.init.grid = GridSpec(cells, 1.0);
    config.init.total_particles = 1000;
    const picprk::par::PicVpShared shared(config, vps);
    const Cart2D& vcart = shared.vcart;
    for (std::int64_t cx = 0; cx < cells; ++cx) {
      for (std::int64_t cy = 0; cy < cells; ++cy) {
        const int expected =
            vcart.rank_of(picprk::comm::block_owner(cells, vcart.px(), cx),
                          picprk::comm::block_owner(cells, vcart.py(), cy));
        const double x = static_cast<double>(cx), y = static_cast<double>(cy);
        EXPECT_EQ(shared.owner_vp(x, y), expected)
            << cells << " cells, " << vps << " VPs, edge of (" << cx << "," << cy << ")";
        EXPECT_EQ(shared.owner_vp(x + 0.5, y + 0.5), expected)
            << cells << " cells, " << vps << " VPs, inside (" << cx << "," << cy << ")";
      }
    }
  }
}

TEST(Decomposition, OwnerLookupMatchesBlocks) {
  GridSpec grid(14, 1.0);
  Cart2D cart(4, 2);
  Decomposition2D d(grid, cart);
  for (std::int64_t cx = 0; cx < 14; ++cx) {
    for (std::int64_t cy = 0; cy < 14; ++cy) {
      const int owner = d.owner_of_cell(cx, cy);
      EXPECT_TRUE(d.block_of(owner).contains_cell(cx, cy))
          << "cell (" << cx << "," << cy << ")";
    }
  }
}

TEST(Decomposition, OwnerOfPosition) {
  GridSpec grid(8, 1.0);
  Cart2D cart(2, 2);
  Decomposition2D d(grid, cart);
  EXPECT_EQ(d.owner_of_position(0.5, 0.5), d.owner_of_cell(0, 0));
  EXPECT_EQ(d.owner_of_position(7.5, 7.5), d.owner_of_cell(7, 7));
  EXPECT_EQ(d.owner_of_position(4.0, 0.0), d.owner_of_cell(4, 0));
}

TEST(Decomposition, MovedBoundsChangeOwnership) {
  GridSpec grid(12, 1.0);
  Cart2D cart(3, 1);
  Decomposition2D d(grid, cart);
  EXPECT_EQ(d.owner_of_cell(4, 0), 1);
  d.set_x_bounds({0, 6, 8, 12});
  EXPECT_EQ(d.owner_of_cell(4, 0), 0);
  EXPECT_EQ(d.owner_of_cell(7, 0), 1);
  EXPECT_EQ(d.owner_of_cell(8, 0), 2);
  EXPECT_EQ(d.block_of(0).width(), 6);
}

TEST(Decomposition, InvalidBoundsRejected) {
  GridSpec grid(12, 1.0);
  Cart2D cart(3, 1);
  Decomposition2D d(grid, cart);
  EXPECT_THROW(d.set_x_bounds({0, 6, 6, 12}), picprk::ContractViolation);   // not increasing
  EXPECT_THROW(d.set_x_bounds({0, 4, 8, 11}), picprk::ContractViolation);   // wrong end
  EXPECT_THROW(d.set_x_bounds({1, 4, 8, 12}), picprk::ContractViolation);   // wrong start
  EXPECT_THROW(d.set_x_bounds({0, 4, 12}), picprk::ContractViolation);      // wrong size
}

TEST(Decomposition, GridSmallerThanProcessGridRejected) {
  GridSpec grid(2, 1.0);
  Cart2D cart(4, 1);
  EXPECT_THROW(Decomposition2D(grid, cart), picprk::ContractViolation);
}

}  // namespace
