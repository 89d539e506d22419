#include "pic/simulation.hpp"

#include <vector>

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
  TileIndex tiles(CellRegion{0, grid.cells, 0, grid.cells});
  std::uint64_t expected_sum = expected_checksum(init.total());
  PICPRK_ASSERT_MSG(soa.size() == init.total(), "initializer count mismatch");

  SimulationResult result;
  util::Timer timer;
  for (std::uint32_t step = 0; step < config.steps; ++step) {
    if (config.events.scheduled_at(step)) {
      std::vector<Particle> staging = to_aos(soa);
      // Track the expected checksum through population changes: removals
      // subtract the ids they take out, injections add a known id range.
      for (std::size_t e = 0; e < config.events.removals().size(); ++e) {
        if (config.events.removals()[e].step != step) continue;
        const CellRegion& region = config.events.removals()[e].region;
        for (const Particle& p : staging) {
          const std::int64_t cx = grid.cell_of(p.x);
          const std::int64_t cy = grid.cell_of(p.y);
          if (region.contains_cell(cx, cy) && config.events.removes(init, e, p.id)) {
            expected_sum -= p.id;
          }
        }
      }
      for (std::size_t e = 0; e < config.events.injections().size(); ++e) {
        if (config.events.injections()[e].step != step) continue;
        const std::uint64_t first = config.events.injection_first_id(init, e);
        const std::uint64_t count = config.events.injection_total(init, e);
        // Sum of the contiguous id range [first, first+count).
        expected_sum += count * first + count * (count - 1) / 2;
      }
      config.events.apply_step(init, step, 0, grid.cells, 0, grid.cells, staging);
      soa.assign(staging);
      tiles.mark_dirty();
    }
    move_all_tiled(soa, tiles, grid, charges, dt);
  }
  result.seconds = timer.elapsed();

  result.final_particles = soa.size();
  result.expected_id_checksum = expected_sum;
  result.verification =
      verify_particles(soa, grid, config.steps, config.verify_epsilon);
  PICPRK_DEBUG("serial run: n=" << soa.size() << " steps=" << config.steps
                                << " max_err=" << result.verification.max_position_error
                                << " ok=" << result.ok());
  return result;
}

}  // namespace picprk::pic
