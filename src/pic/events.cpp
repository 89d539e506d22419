#include "pic/events.hpp"

#include <algorithm>

#include "pic/verify.hpp"
#include "util/assert.hpp"

namespace picprk::pic {

namespace {
constexpr std::uint64_t kInjectStream = 0x17EC7ull;
constexpr std::uint64_t kRemoveStream = 0xDE1E7Eull;
}  // namespace

EventSchedule::EventSchedule(std::vector<InjectionEvent> injections,
                             std::vector<RemovalEvent> removals)
    : injections_(std::move(injections)), removals_(std::move(removals)) {}

std::uint64_t EventSchedule::injected_in_cell(const Initializer& init,
                                              std::size_t event_index, std::int64_t cx,
                                              std::int64_t cy) const {
  PICPRK_EXPECTS(event_index < injections_.size());
  const InjectionEvent& ev = injections_[event_index];
  if (!ev.region.contains_cell(cx, cy)) return 0;
  const double mu =
      static_cast<double>(ev.count) / static_cast<double>(ev.region.area());
  const util::CounterRng rng(init.params().seed ^ kInjectStream ^
                                 (event_index * 0x9E3779B97F4A7C15ull),
                             static_cast<std::uint64_t>(cx), static_cast<std::uint64_t>(cy));
  return util::stochastic_round(mu, rng.double_at(0));
}

std::uint64_t EventSchedule::injection_total(const Initializer& init,
                                             std::size_t event_index) const {
  PICPRK_EXPECTS(event_index < injections_.size());
  const CellRegion& r = injections_[event_index].region;
  std::uint64_t total = 0;
  for (std::int64_t cx = r.x0; cx < r.x1; ++cx) {
    for (std::int64_t cy = r.y0; cy < r.y1; ++cy) {
      total += injected_in_cell(init, event_index, cx, cy);
    }
  }
  return total;
}

std::uint64_t EventSchedule::injection_first_id(const Initializer& init,
                                                std::size_t event_index) const {
  std::uint64_t id = init.total() + 1;
  for (std::size_t e = 0; e < event_index; ++e) id += injection_total(init, e);
  return id;
}

void EventSchedule::emplace_injection_block(const Initializer& init, std::size_t event_index,
                                            std::int64_t cx0, std::int64_t cx1,
                                            std::int64_t cy0, std::int64_t cy1,
                                            std::vector<Particle>& out) const {
  const InjectionEvent& ev = injections_[event_index];
  std::uint64_t id = injection_first_id(init, event_index);
  // Walk the whole region in canonical (column-major) order to keep ids
  // globally consistent; only materialise particles inside the block.
  for (std::int64_t cx = ev.region.x0; cx < ev.region.x1; ++cx) {
    for (std::int64_t cy = ev.region.y0; cy < ev.region.y1; ++cy) {
      const std::uint64_t count = injected_in_cell(init, event_index, cx, cy);
      if (cx >= cx0 && cx < cx1 && cy >= cy0 && cy < cy1) {
        for (std::uint64_t i = 0; i < count; ++i) {
          out.push_back(init.make_particle(cx, cy, id + i, ev.step));
        }
      }
      id += count;
    }
  }
}

bool EventSchedule::removes(const Initializer& init, std::size_t event_index,
                            std::uint64_t id) const {
  PICPRK_EXPECTS(event_index < removals_.size());
  const RemovalEvent& ev = removals_[event_index];
  const util::CounterRng rng(init.params().seed ^ kRemoveStream ^
                                 (event_index * 0x9E3779B97F4A7C15ull),
                             id, 0);
  return rng.double_at(0) < ev.fraction;
}

std::uint64_t EventSchedule::apply_step(const Initializer& init, std::uint32_t step,
                                        const CellRegion& block,
                                        std::vector<Particle>& particles) const {
  const GridSpec& grid = init.params().grid;
  std::uint64_t removed_id_sum = 0;

  for (std::size_t e = 0; e < removals_.size(); ++e) {
    if (removals_[e].step != step) continue;
    const CellRegion& region = removals_[e].region;
    const auto new_end = std::remove_if(
        particles.begin(), particles.end(), [&](const Particle& p) {
          const bool removed =
              region.contains_cell(grid.cell_of(p.x), grid.cell_of(p.y)) &&
              removes(init, e, p.id);
          if (removed) removed_id_sum += p.id;
          return removed;
        });
    particles.erase(new_end, particles.end());
  }

  for (std::size_t e = 0; e < injections_.size(); ++e) {
    if (injections_[e].step != step) continue;
    emplace_injection_block(init, e, block.x0, block.x1, block.y0, block.y1, particles);
  }
  return removed_id_sum;
}

std::uint64_t EventSchedule::apply_step(const Initializer& init, std::uint32_t step,
                                        const CellRegion& block, ParticleSoA& particles,
                                        TileIndex* tiles) const {
  if (!scheduled_at(step)) return 0;
  std::vector<Particle> staging = to_aos(particles);
  const std::uint64_t removed_id_sum = apply_step(init, step, block, staging);
  particles.assign(staging);
  if (tiles != nullptr) tiles->mark_dirty();
  return removed_id_sum;
}

std::uint64_t EventSchedule::expected_checksum(const Initializer& init,
                                               std::uint64_t removed_id_sum) const {
  std::uint64_t sum = pic::expected_checksum(init.total());
  std::uint64_t first = injection_first_id(init, 0);
  for (std::size_t e = 0; e < injections_.size(); ++e) {
    const std::uint64_t count = injection_total(init, e);
    sum += count * first + count * (count - 1) / 2;  // ids [first, first + count)
    first += count;
  }
  return sum - removed_id_sum;
}

}  // namespace picprk::pic
