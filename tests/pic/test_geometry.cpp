#include <gtest/gtest.h>

#include "pic/geometry.hpp"
#include "util/assert.hpp"

namespace {

using picprk::pic::CellRegion;
using picprk::pic::GridSpec;
using picprk::pic::wrap;

TEST(Wrap, IdentityInsideDomain) {
  EXPECT_DOUBLE_EQ(wrap(3.5, 10.0), 3.5);
  EXPECT_DOUBLE_EQ(wrap(0.0, 10.0), 0.0);
}

TEST(Wrap, WrapsAboveAndBelow) {
  EXPECT_DOUBLE_EQ(wrap(12.5, 10.0), 2.5);
  EXPECT_DOUBLE_EQ(wrap(-1.5, 10.0), 8.5);
  EXPECT_DOUBLE_EQ(wrap(10.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(wrap(-10.0, 10.0), 0.0);
}

TEST(Wrap, ManyPeriodsAway) {
  EXPECT_NEAR(wrap(1e6 + 3.25, 10.0), 3.25, 1e-9);
  EXPECT_NEAR(wrap(-1e6 + 3.25, 10.0), 3.25, 1e-9);
}

TEST(Wrap, ResultAlwaysInRange) {
  for (double v : {-1e9, -17.3, -0.0001, 0.0, 5.0, 9.999999999, 1e9}) {
    const double r = wrap(v, 10.0);
    EXPECT_GE(r, 0.0) << v;
    EXPECT_LT(r, 10.0) << v;
  }
}

TEST(GridSpecTest, BasicProperties) {
  GridSpec grid(100, 1.0);
  EXPECT_EQ(grid.cells, 100);
  EXPECT_DOUBLE_EQ(grid.length(), 100.0);
  EXPECT_EQ(grid.cell_of(0.5), 0);
  EXPECT_EQ(grid.cell_of(99.9), 99);
  EXPECT_DOUBLE_EQ(grid.cell_center(3), 3.5);
}

TEST(GridSpecTest, NonUnitCellSize) {
  GridSpec grid(10, 2.0);
  EXPECT_DOUBLE_EQ(grid.length(), 20.0);
  EXPECT_EQ(grid.cell_of(5.0), 2);
  EXPECT_DOUBLE_EQ(grid.cell_center(2), 5.0);
}

TEST(GridSpecTest, OddCellCountRejected) {
  // The spec requires L to be an even multiple of h (periodic charge
  // parity consistency).
  EXPECT_THROW(GridSpec(99, 1.0), picprk::ContractViolation);
}

TEST(GridSpecTest, TooSmallRejected) {
  EXPECT_THROW(GridSpec(0), picprk::ContractViolation);
}

TEST(GridSpecTest, CellOfClampsBoundary) {
  GridSpec grid(4, 1.0);
  // Exactly L should never be passed (positions are wrapped) but the
  // fringe guard must still return a valid cell.
  EXPECT_EQ(grid.cell_of(4.0), 3);
}

TEST(CellRegionTest, ContainsAndArea) {
  CellRegion r{2, 5, 1, 3};
  EXPECT_EQ(r.width(), 3);
  EXPECT_EQ(r.height(), 2);
  EXPECT_EQ(r.area(), 6);
  EXPECT_TRUE(r.contains_cell(2, 1));
  EXPECT_TRUE(r.contains_cell(4, 2));
  EXPECT_FALSE(r.contains_cell(5, 1));
  EXPECT_FALSE(r.contains_cell(2, 3));
}

TEST(CellRegionTest, ValidityWithinGrid) {
  GridSpec grid(10, 1.0);
  EXPECT_TRUE((CellRegion{0, 10, 0, 10}.valid_within(grid)));
  EXPECT_FALSE((CellRegion{0, 11, 0, 10}.valid_within(grid)));
  EXPECT_FALSE((CellRegion{3, 3, 0, 10}.valid_within(grid)));
  EXPECT_FALSE((CellRegion{-1, 5, 0, 5}.valid_within(grid)));
}

}  // namespace
