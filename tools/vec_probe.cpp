// Vectorization probe: a translation unit that instantiates the
// production tiled SoA mover exactly as the drivers do, built by
// tools/check_vectorization.sh (and the CI vectorization-report job)
// with -fopt-info-vec so the reports can be asserted on. Nothing links
// against this file; it only has to compile the hot loops.
#include "pic/mover.hpp"

namespace picprk::pic {

template void move_all_tiled<AlternatingColumnCharges>(ParticleSoA&, TileIndex&,
                                                       const GridSpec&,
                                                       const AlternatingColumnCharges&,
                                                       double);
template void move_all_tiled<ChargeSlab>(ParticleSoA&, TileIndex&, const GridSpec&,
                                         const ChargeSlab&, double);

}  // namespace picprk::pic
