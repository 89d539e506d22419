#include "par/pic_vp.hpp"

#include <cstring>

#include "ft/fault.hpp"
#include "pic/mover.hpp"
#include "util/assert.hpp"
#include "vpr/pup.hpp"

namespace picprk::par {

PicVp::PicVp(int id, std::shared_ptr<const PicVpShared> shared)
    : VirtualProcessor(id), shared_(std::move(shared)) {
  block_ = shared_->vp_block(id);
  tiles_.reset_region(block_);
  const pic::AlternatingColumnCharges pattern(shared_->init_params.mesh_q);
  slab_ = pic::ChargeSlab::sample(pattern, block_.x0, block_.y0, block_.width() + 1,
                                  block_.height() + 1);
}

void PicVp::populate() {
  particles_ = pic::to_soa(
      shared_->init.create_block(block_.x0, block_.x1, block_.y0, block_.y1));
  tiles_.mark_dirty();
}

void PicVp::step(vpr::VpContext& ctx) {
  const pic::GridSpec& grid = shared_->init_params.grid;
  const std::uint32_t step = ctx.step();

  // Scripted step faults address VPs here (there are no world ranks).
  // No abort flag exists under vpr, so finite stalls sleep in full;
  // infinite stalls (ms=inf) are a threadcomm-only scenario.
  if (shared_->ft.injector != nullptr) {
    shared_->ft.injector->begin_step(id(), step);
  }

  removed_id_sum_ +=
      shared_->events.apply_step(shared_->init, step, block_, particles_, &tiles_);

  pic::move_all_tiled(particles_, tiles_, grid, slab_, shared_->init_params.dt);

  // Route emigrants to their owner VPs (static VP decomposition) with the
  // rank exchange's router, then ship each destination's group as one
  // message. Routing scratch is VP-owned and reused every step; outgoing
  // byte payloads come from the pool that recycles delivered messages,
  // so steady-state routing allocates nothing.
  sent_particles_ += route_particles(
      [this](double x, double y) { return shared_->owner_vp(x, y); }, id(),
      shared_->vcart.size(), particles_, &tiles_, route_);
  // Each payload leaves the context's header bytes free in front of the
  // records, so a cross-rank transport ships the buffer as it is.
  const std::size_t header = ctx.header_bytes();
  const pic::Particle* group = route_.packed.data();
  for (std::size_t dst = 0; dst < route_.send_counts.size(); ++dst) {
    const std::uint64_t count = route_.send_counts[dst];
    if (count == 0) continue;
    const std::size_t body = count * sizeof(pic::Particle);
    std::vector<std::byte> bytes = route_.pool.acquire(header + body);
    std::memcpy(bytes.data() + header, group, body);
    ctx.send(static_cast<int>(dst), std::move(bytes));
    group += count;
  }
}

void PicVp::deliver(int src_vp, std::vector<std::byte> payload) {
  deliver_at(src_vp, std::move(payload), 0);
}

void PicVp::deliver_at(int /*src_vp*/, std::vector<std::byte> buffer,
                       std::size_t offset) {
  PICPRK_ASSERT(buffer.size() >= offset &&
                (buffer.size() - offset) % sizeof(pic::Particle) == 0);
  // Wire records land in the untiled tail; the tile index stays valid
  // and the next move's flat pass covers them.
  particles_.append_records(buffer.data() + offset,
                            (buffer.size() - offset) / sizeof(pic::Particle));
  route_.pool.release(std::move(buffer));  // becomes next step's send staging
}

std::vector<int> PicVp::neighbor_vps() const {
  // 4-neighborhood on the periodic VP grid.
  const auto& cart = shared_->vcart;
  return {cart.neighbor(id(), 1, 0), cart.neighbor(id(), -1, 0),
          cart.neighbor(id(), 0, 1), cart.neighbor(id(), 0, -1)};
}

void PicVp::pup(vpr::Pup& p) {
  // Complete VP state: subdomain coordinates, the subgrid charges (the
  // data a distributed runtime would ship), and the particles.
  p(block_.x0);
  p(block_.x1);
  p(block_.y0);
  p(block_.y1);
  std::int64_t sx0 = slab_.x0(), sy0 = slab_.y0(), sw = slab_.width(), sh = slab_.height();
  p(sx0);
  p(sy0);
  p(sw);
  p(sh);
  if (p.unpacking()) {
    std::vector<double> values;
    p(values);
    slab_ = pic::ChargeSlab::from_values(sx0, sy0, sw, sh, std::move(values));
  } else {
    // Pack the live slab values in row-major order (matching
    // from_values above).
    std::vector<double> values;
    values.reserve(static_cast<std::size_t>(sw * sh));
    for (std::int64_t j = 0; j < sh; ++j)
      for (std::int64_t i = 0; i < sw; ++i) values.push_back(slab_.at(sx0 + i, sy0 + j));
    p(values);
  }
  particles_.pup(p);  // rows straight to/from the AoS wire records
  p(removed_id_sum_);
  p(sent_particles_);
  if (p.unpacking()) tiles_.mark_dirty();
}

void accumulate_vp_verification(const PicVp& vp, const DriverConfig& config,
                                VpVerifyTally& tally) {
  tally.verify = pic::merge(
      tally.verify, pic::verify_particles(vp.particles(), config.init.grid,
                                          config.steps, config.verify_epsilon));
  tally.removed_id_sum += vp.removed_id_sum();
  tally.sent_particles += vp.sent_particles();
}

}  // namespace picprk::par
