#include "par/exchange.hpp"

#include "util/assert.hpp"

namespace picprk::par {

ExchangeStats exchange_particles(comm::Comm& comm, const Decomposition2D& decomp,
                                 pic::ParticleSoA& mine, pic::TileIndex* tiles,
                                 ExchangeBuffers& buffers) {
  ExchangeStats stats = exchange_particles_by(
      comm, [&decomp](double x, double y) { return decomp.owner_of_position(x, y); },
      mine, tiles, buffers);

#if defined(PICPRK_EXPENSIVE_CHECKS)
  // Post-conditions: everything we now hold is ours, and a maintained
  // tile index still partitions the store correctly after the
  // compaction. O(n) per step, so PICPRK_EXPENSIVE_CHECKS only.
  const pic::CellRegion block = decomp.block_of(comm.rank());
  for (std::size_t i = 0; i < mine.size(); ++i) {
    const auto cx = decomp.grid().cell_of(mine.x[i]);
    const auto cy = decomp.grid().cell_of(mine.y[i]);
    PICPRK_ASSERT_MSG(block.contains_cell(cx, cy),
                      "exchange delivered a particle to the wrong rank");
  }
  if (tiles != nullptr && tiles->fresh()) {
    PICPRK_ASSERT_MSG(tiles->check(mine, decomp.grid()),
                      "exchange compaction broke the tile index");
  }
#endif
  return stats;
}

}  // namespace picprk::par
