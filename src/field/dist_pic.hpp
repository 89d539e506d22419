// Distributed mini-PIC: the full §III-A cycle over threadcomm ranks —
// block-decomposed particles AND fields, per-step particle exchange,
// halo-folded deposition, distributed CG, halo-exchanged field gather.
// The distributed counterpart of field::MiniPic, bit-comparable to it up
// to floating-point summation order.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/comm.hpp"
#include "field/dist_solver.hpp"
#include "field/mini_pic.hpp"
#include "par/decomposition.hpp"
#include "par/exchange.hpp"

namespace picprk::field {

class DistributedMiniPic {
 public:
  /// Collective. `particles` may contain any subset of the global
  /// population on each rank (commonly: the full set on rank 0, empty
  /// elsewhere, or pre-partitioned); they are routed to their owners.
  DistributedMiniPic(comm::Comm& comm, MiniPicConfig config,
                     const std::vector<pic::Particle>& particles);

  /// One cycle: gather+push, particle exchange, deposit, solve, E.
  /// Collective; returns global diagnostics.
  MiniPicDiagnostics step();

  MiniPicDiagnostics run(std::uint32_t steps);

  /// This rank's particles (all inside its block).
  const pic::ParticleSoA& particles() const { return particles_; }

  /// Global diagnostics (collective).
  MiniPicDiagnostics diagnostics();

  /// Charge density at a *global* point this rank owns.
  double rho_at(std::int64_t gi, std::int64_t gj) const { return rho_.at(gi, gj); }
  bool owns_point(std::int64_t gi, std::int64_t gj) const { return rho_.owns(gi, gj); }

  std::uint64_t particles_exchanged() const { return particles_exchanged_; }

 private:
  void recompute_fields();

  comm::Comm& comm_;
  MiniPicConfig config_;
  comm::Cart2D cart_;
  par::Decomposition2D decomp_;
  pic::ParticleSoA particles_;
  par::ExchangeBuffers exchange_buffers_;
  DistributedField rho_;
  DistributedField phi_;
  DistributedField ex_;
  DistributedField ey_;
  CgResult last_solve_;
  std::uint64_t particles_exchanged_ = 0;
};

}  // namespace picprk::field
