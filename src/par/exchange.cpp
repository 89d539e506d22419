#include "par/exchange.hpp"

#include "util/assert.hpp"

namespace picprk::par {

ExchangeStats exchange_particles(comm::Comm& comm, const Decomposition2D& decomp,
                                 pic::ParticleSoA& mine, pic::TileIndex* tiles,
                                 ExchangeBuffers& buffers) {
  ExchangeStats stats;
  stats.sent = route_particles(
      [&decomp](double x, double y) { return decomp.owner_of_position(x, y); }, comm.rank(),
      comm.size(), mine, tiles, buffers);
  stats.bytes = stats.sent * sizeof(pic::Particle);

  buffers.fit(buffers.recv_counts, static_cast<std::size_t>(comm.size()));
  const std::size_t recv_capacity = buffers.received.capacity();
  comm.alltoallv(std::span<const pic::Particle>(buffers.packed),
                 std::span<const std::uint64_t>(buffers.send_counts), buffers.received,
                 buffers.recv_counts, &buffers.pool);
  if (buffers.received.capacity() > recv_capacity) buffers.note_growth();

  const std::size_t mine_capacity = mine.capacity();
  mine.append(std::span<const pic::Particle>(buffers.received));
  if (mine.capacity() > mine_capacity) buffers.note_growth();

  stats.received = buffers.received.size();
  buffers.note_traffic(stats);

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
