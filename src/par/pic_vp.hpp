// The over-decomposed PIC subdomain as a vpr::VirtualProcessor — the
// unit of work the ampi driver (§IV-C) runs under the vpr runtime.
// Extracted from ampi.cpp so the svc job server (docs/SERVICE.md) can
// host many independent kernel instances: each svc::Job builds its own
// PicVpShared + VP set and steps them through a private runtime, while
// run_ampi keeps using exactly the same classes for its single-job run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "comm/cart.hpp"
#include "comm/comm.hpp"
#include "ft/options.hpp"
#include "par/driver_common.hpp"
#include "par/exchange.hpp"
#include "pic/charge.hpp"
#include "pic/tiling.hpp"
#include "vpr/vp.hpp"

namespace picprk::par {

/// Problem state shared (read-only) by all VPs of one kernel instance.
struct PicVpShared {
  pic::InitParams init_params;
  pic::Initializer init;
  pic::EventSchedule events;
  comm::Cart2D vcart;  ///< VP grid (Vx × Vy)
  ft::FtOptions ft;    ///< fault/checkpoint hooks; rank space = VP ids
  /// Per-cell routing tables: the VP column owning cell column cx, and
  /// the VP-grid row offset (vy · Vx) owning cell row cy. owner_vp is two
  /// loads and an add instead of two block_owner divisions per particle.
  std::vector<std::int32_t> vp_col_of_cell;
  std::vector<std::int32_t> vp_row_of_cell;

  PicVpShared(const DriverConfig& config, int vps)
      : init_params(config.init),
        init(config.init),
        events(config.events),
        vcart(vps),
        ft(config.ft) {
    const std::int64_t cells = init_params.grid.cells;
    vp_col_of_cell.resize(static_cast<std::size_t>(cells));
    vp_row_of_cell.resize(static_cast<std::size_t>(cells));
    for (std::int64_t c = 0; c < cells; ++c) {
      vp_col_of_cell[static_cast<std::size_t>(c)] =
          comm::block_owner(cells, vcart.px(), c);
      vp_row_of_cell[static_cast<std::size_t>(c)] =
          vcart.rank_of(0, comm::block_owner(cells, vcart.py(), c));
    }
  }

  pic::CellRegion vp_block(int vp) const {
    const auto [vx, vy] = vcart.coords_of(vp);
    const auto xr = comm::block_range(init_params.grid.cells, vcart.px(), vx);
    const auto yr = comm::block_range(init_params.grid.cells, vcart.py(), vy);
    return pic::CellRegion{xr.lo, xr.hi, yr.lo, yr.hi};
  }

  /// The VP owning position (x, y): equal to vcart.rank_of(block_owner(
  /// cells, Vx, cx), block_owner(cells, Vy, cy)) for the cell (cx, cy).
  int owner_vp(double x, double y) const {
    const auto cx = init_params.grid.cell_of(x);
    const auto cy = init_params.grid.cell_of(y);
    return vp_col_of_cell[static_cast<std::size_t>(cx)] +
           vp_row_of_cell[static_cast<std::size_t>(cy)];
  }
};

/// One subdomain of the over-decomposed PIC problem.
class PicVp final : public vpr::VirtualProcessor {
 public:
  PicVp(int id, std::shared_ptr<const PicVpShared> shared);

  /// Loads the initial particle population (called once, not on
  /// migration — migrated state arrives via pup()).
  void populate();

  void step(vpr::VpContext& ctx) override;
  void deliver(int src_vp, std::vector<std::byte> payload) override;
  void deliver_at(int src_vp, std::vector<std::byte> buffer, std::size_t offset) override;
  double load() const override { return static_cast<double>(particles_.size()); }
  std::vector<int> neighbor_vps() const override;
  void pup(vpr::Pup& p) override;

  const pic::ParticleSoA& particles() const { return particles_; }
  std::uint64_t removed_id_sum() const { return removed_id_sum_; }
  std::uint64_t sent_particles() const { return sent_particles_; }

 private:
  // Members below are either serialized in pup() or tagged pup:transient;
  // picprk-lint's pup rule rejects an untagged member missing from pup().
  std::shared_ptr<const PicVpShared> shared_;  // pup:transient — re-injected by the factory
  pic::CellRegion block_;
  pic::ChargeSlab slab_;
  pic::ParticleSoA particles_;
  pic::TileIndex tiles_;  // pup:transient — rebuilt from the store after unpack
  std::uint64_t removed_id_sum_ = 0;
  std::uint64_t sent_particles_ = 0;
  // Routing scratch (route_particles over VP ids, plus the byte-buffer
  // pool that delivered messages return to): a migrated VP simply
  // re-warms it.
  ExchangeBuffers route_;  // pup:transient
};

/// End-of-run verification tallies over a set of vpr-hosted PicVps.
struct VpVerifyTally {
  pic::VerifyResult verify;
  std::uint64_t removed_id_sum = 0;
  std::uint64_t sent_particles = 0;
};

/// Folds one VP's final population into the closed-form check: position
/// verification against the analytic trajectory, the removed-id tally
/// that EventSchedule::expected_checksum takes, and the sent-particle
/// tally. Shared by run_ampi, run_async and svc::Job so every host of the
/// VP classes finalizes against the identical invariant.
void accumulate_vp_verification(const PicVp& vp, const DriverConfig& config,
                                VpVerifyTally& tally);

}  // namespace picprk::par
