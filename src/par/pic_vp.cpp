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

  // Events are rare: stage through the AoS wire form only on steps
  // where something is scheduled (free otherwise).
  if (!shared_->events.empty() && shared_->events.scheduled_at(step)) {
    std::vector<pic::Particle> staging = pic::to_aos(particles_);
    for (std::size_t e = 0; e < shared_->events.removals().size(); ++e) {
      if (shared_->events.removals()[e].step != step) continue;
      const pic::CellRegion& region = shared_->events.removals()[e].region;
      for (const pic::Particle& p : staging) {
        const auto cx = grid.cell_of(p.x);
        const auto cy = grid.cell_of(p.y);
        if (region.contains_cell(cx, cy) && shared_->events.removes(shared_->init, e, p.id)) {
          removed_id_sum_ += p.id;
        }
      }
    }
    shared_->events.apply_step(shared_->init, step, block_.x0, block_.x1, block_.y0,
                               block_.y1, staging);
    particles_.assign(staging);
    tiles_.mark_dirty();
  }

  pic::move_all_tiled(particles_, tiles_, grid, slab_, shared_->init_params.dt);

  // Route emigrants to their owner VPs (static VP decomposition). All
  // routing scratch is VP-owned and reused every step; outgoing byte
  // payloads come from the pool that recycles delivered messages, so
  // steady-state routing allocates nothing. Keepers compact stably in
  // place (tile ranges shrink without a re-sort); emigrants leave as
  // AoS wire records.
  route_dst_.clear();
  const std::size_t n = particles_.size();
  route_owner_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    route_owner_[i] = shared_->owner_vp(particles_.x[i], particles_.y[i]);
  }
  std::size_t w = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const int owner = route_owner_[i];
    if (owner == id()) {
      if (w != i) particles_.move_row(w, i);
      ++w;
      continue;
    }
    std::size_t b = 0;
    while (b < route_dst_.size() && route_dst_[b] != owner) ++b;
    if (b == route_dst_.size()) {
      route_dst_.push_back(owner);
      if (route_buckets_.size() < route_dst_.size()) route_buckets_.emplace_back();
      route_buckets_[b].clear();
    }
    route_buckets_[b].push_back(particles_.get(i));
  }
  particles_.truncate(w);
  tiles_.compact_ranges(std::span<const int>(route_owner_.data(), n), id());
  for (std::size_t b = 0; b < route_dst_.size(); ++b) {
    const std::vector<pic::Particle>& bucket = route_buckets_[b];
    sent_particles_ += bucket.size();
    std::vector<std::byte> bytes = byte_pool_.acquire(bucket.size() * sizeof(pic::Particle));
    std::memcpy(bytes.data(), bucket.data(), bytes.size());
    ctx.send(route_dst_[b], std::move(bytes));
  }
}

void PicVp::deliver(int /*src_vp*/, std::vector<std::byte> payload) {
  PICPRK_ASSERT(payload.size() % sizeof(pic::Particle) == 0);
  const std::size_t count = payload.size() / sizeof(pic::Particle);
  if (count > 0) {
    // Wire records land in the untiled tail; the tile index stays
    // valid and the next move's flat pass covers them.
    recv_scratch_.resize(count);
    std::memcpy(recv_scratch_.data(), payload.data(), payload.size());
    particles_.append(std::span<const pic::Particle>(recv_scratch_));
  }
  byte_pool_.release(std::move(payload));  // becomes next step's send staging
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
  particles_.pup(p);  // stages through the AoS wire form
  p(removed_id_sum_);
  p(sent_particles_);
  if (p.unpacking()) tiles_.mark_dirty();
}

std::uint64_t vpr_expected_checksum(const pic::Initializer& init,
                                    const pic::EventSchedule& events,
                                    std::uint64_t removed_id_sum) {
  std::uint64_t expected = pic::expected_checksum(init.total());
  for (std::size_t e = 0; e < events.injections().size(); ++e) {
    const std::uint64_t first = events.injection_first_id(init, e);
    const std::uint64_t count = events.injection_total(init, e);
    if (count > 0) expected += count * first + count * (count - 1) / 2;
  }
  return expected - removed_id_sum;
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
