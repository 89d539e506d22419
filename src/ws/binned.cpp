#include "ws/binned.hpp"

#include <algorithm>

#include "pic/charge.hpp"
#include "pic/mover.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace picprk::ws {

// Particles are binned by mesh ROW. Under the specification a particle's
// row changes only through its constant vertical speed m (its horizontal
// hops never change the row), so with m = 0 the bins are invariant and
// the whole step parallelises without any re-binning; with m ≠ 0 the
// movers are staged per task and re-binned after the parallel phase.
// Row-skewed workloads (rotate90 distributions, patches) give the rows —
// and hence the tasks — unequal costs, which is what the stealing is
// measured against.
WsResult run_worksteal(const pic::SimulationConfig& config, const WsParams& params) {
  PICPRK_EXPECTS(params.workers >= 1);
  PICPRK_EXPECTS(params.rows_per_task >= 1);

  const pic::Initializer init(config.init);
  const pic::GridSpec& grid = config.init.grid;
  const pic::AlternatingColumnCharges charges(config.init.mesh_q);
  const double dt = config.init.dt;
  const std::int64_t rows = grid.cells;
  const auto tasks = static_cast<std::size_t>(
      (rows + params.rows_per_task - 1) / params.rows_per_task);

  std::vector<std::vector<pic::Particle>> bins(static_cast<std::size_t>(rows));
  {
    auto all = init.create_all();
    for (auto& p : all) {
      bins[static_cast<std::size_t>(grid.cell_of(p.y))].push_back(p);
    }
  }
  std::uint64_t removed_id_sum = 0;

  WorkStealingPool pool(params.workers);
  // Per-task staging for particles whose row changed (m != 0 only).
  std::vector<std::vector<pic::Particle>> staged(tasks);

  WsResult result;
  util::Timer wall;
  std::vector<std::uint64_t> executed_totals(static_cast<std::size_t>(params.workers), 0);

  for (std::uint32_t step = 0; step < config.steps; ++step) {
    // Events (serial; rare and cheap relative to a step), applied row by
    // row so injected particles land directly in the right bin.
    if (config.events.scheduled_at(step)) {
      for (std::int64_t r = 0; r < rows; ++r) {
        removed_id_sum +=
            config.events.apply_step(init, step, pic::CellRegion{0, grid.cells, r, r + 1},
                                     bins[static_cast<std::size_t>(r)]);
      }
    }

    // Parallel move phase over row strips.
    const PoolStats stats = pool.run(
        tasks,
        [&](std::size_t task, int /*worker*/) {
          const std::int64_t r0 = static_cast<std::int64_t>(task) * params.rows_per_task;
          const std::int64_t r1 = std::min(rows, r0 + params.rows_per_task);
          auto& out = staged[task];
          for (std::int64_t r = r0; r < r1; ++r) {
            auto& bin = bins[static_cast<std::size_t>(r)];
            std::size_t keep = 0;
            for (std::size_t i = 0; i < bin.size(); ++i) {
              pic::Particle p = bin[i];
              pic::move_particle(p, grid, charges, dt);
              if (grid.cell_of(p.y) == r) {
                bin[keep++] = p;
              } else {
                out.push_back(p);
              }
            }
            bin.resize(keep);
          }
        },
        params.stealing);
    result.steals += stats.steals;
    for (int w = 0; w < params.workers; ++w) {
      executed_totals[static_cast<std::size_t>(w)] +=
          stats.executed_per_worker[static_cast<std::size_t>(w)];
    }

    // Serial re-bin of the row-changers (empty when m = 0).
    for (auto& out : staged) {
      for (const auto& p : out) {
        bins[static_cast<std::size_t>(grid.cell_of(p.y))].push_back(p);
      }
      out.clear();
    }
  }
  result.seconds = wall.elapsed();

  pic::VerifyResult verify;
  std::uint64_t total = 0;
  for (const auto& bin : bins) {
    verify = pic::merge(verify, pic::verify_particles(std::span<const pic::Particle>(bin),
                                                      grid, config.steps,
                                                      config.verify_epsilon));
    total += bin.size();
  }
  result.verification = verify;
  result.expected_id_checksum = config.events.expected_checksum(init, removed_id_sum);
  result.ok = verify.ok(result.expected_id_checksum);
  result.final_particles = total;
  result.task_imbalance =
      util::imbalance_u64(std::span<const std::uint64_t>(executed_totals)).ratio;
  return result;
}

}  // namespace picprk::ws
