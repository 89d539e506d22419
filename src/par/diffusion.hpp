// The rank-owned step loop: the paper's "mpi-2d" (§IV-A, `baseline`)
// and "mpi-2d-LB" (§IV-B, `diffusion`) are one loop over a 2-D block
// decomposition — each rank moves the particles in its block and routes
// emigrants to their owners after every step — that differs only in
// whether the load-balancing phase ever runs. With it on, the
// decomposition's movable column/row bounds are repartitioned by any
// bounds-capable lb::Strategy from the registry (RunConfig::lb.strategy).
// The default, "diffusion", is the paper's scheme à la Cybenko: every
// `lb.every` steps, per-processor-column loads are aggregated and
// adjacent columns whose loads differ by more than a threshold exchange
// border cell-columns (grid data and the particles residing there).
// "rcb" instead jumps straight to the globally bisected partition;
// "adaptive" wraps either behind a cost model. Mesh subgrids really
// travel (and are integrity-checked) for every boundary move, adjacent
// or not.
#pragma once

#include "par/run_config.hpp"

namespace picprk::par {

/// Runs the boundary-balancing driver; collective over `comm`. The
/// strategy spec defaults to "diffusion" when RunConfig::lb.strategy is
/// empty; specs that cannot move bounds are rejected.
DriverResult run_diffusion(comm::Comm& comm, const RunConfig& config);

/// Runs the same loop with load balancing off (lb.every = 0): the static
/// block decomposition the LB drivers are measured against. Collective
/// over `comm`; the result is identical on every rank.
DriverResult run_baseline(comm::Comm& comm, const DriverConfig& config);

}  // namespace picprk::par
