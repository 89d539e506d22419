#include "pic/simulation.hpp"

#include "pic/charge.hpp"
#include "pic/mover.hpp"
#include "pic/tiling.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace picprk::pic {

SimulationResult run_serial(const SimulationConfig& config) {
  const Initializer init(config.init);
  const GridSpec& grid = config.init.grid;
  const AlternatingColumnCharges charges(config.init.mesh_q);
  const double dt = config.init.dt;

  // The store is the only whole-population copy: it is filled one cell
  // column of AoS records at a time, and the AoS form reappears only as
  // event staging.
  ParticleSoA soa;
  soa.reserve(init.total());
  for (std::int64_t cx = 0; cx < grid.cells; ++cx) {
    soa.append(init.create_block(cx, cx + 1, 0, grid.cells));
  }
  const CellRegion whole{0, grid.cells, 0, grid.cells};
  TileIndex tiles(whole);
  std::uint64_t removed_id_sum = 0;
  PICPRK_ASSERT_MSG(soa.size() == init.total(), "initializer count mismatch");

  SimulationResult result;
  util::Timer timer;
  for (std::uint32_t step = 0; step < config.steps; ++step) {
    removed_id_sum += config.events.apply_step(init, step, whole, soa, &tiles);
    move_all_tiled(soa, tiles, grid, charges, dt);
  }
  result.seconds = timer.elapsed();

  result.final_particles = soa.size();
  result.expected_id_checksum = config.events.expected_checksum(init, removed_id_sum);
  result.verification =
      verify_particles(soa, grid, config.steps, config.verify_epsilon);
  PICPRK_DEBUG("serial run: n=" << soa.size() << " steps=" << config.steps
                                << " max_err=" << result.verification.max_position_error
                                << " ok=" << result.ok());
  return result;
}

}  // namespace picprk::pic
