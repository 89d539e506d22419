// Dynamic particle injection and removal (paper §III-E5): "at a
// particular time t' we uniformly inject/remove particles in/from a
// subdomain R'". These events adjust the local amount of work abruptly
// and stress the adaptiveness of a load-balancing strategy (the paper's
// category-2 imbalance source: local creation/destruction of work).
//
// Determinism contract (same as initialisation): which particles an event
// creates in a cell, and whether an existing particle is removed, are pure
// functions of (seed, event index, cell / particle id) — so serial and
// parallel runs apply identical events regardless of decomposition.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pic/geometry.hpp"
#include "pic/init.hpp"
#include "pic/particle.hpp"
#include "pic/tiling.hpp"

namespace picprk::pic {

/// Inject `count` particles uniformly over `region` at the start of time
/// step `step`. Injected particles use the same Eq.-3/Eq.-4 state as the
/// initial population (they verify via Eqs. 5–6 with s = T − step).
struct InjectionEvent {
  std::uint32_t step = 0;
  CellRegion region;
  std::uint64_t count = 0;
};

/// Remove, at the start of time step `step`, each particle residing in
/// `region` with probability `fraction` (decided by a hash of the
/// particle id, so the decision is decomposition-independent).
struct RemovalEvent {
  std::uint32_t step = 0;
  CellRegion region;
  double fraction = 0.5;
};

/// Event schedule plus the id ledger that keeps the closed-form checksum
/// verifiable when the population changes (§III-D notes the plain
/// n(n+1)/2 checksum only applies without injection/removal). It is the
/// one owner of that ledger: `apply_step` reports the ids it removed and
/// `expected_checksum` turns their global sum into the checksum every
/// engine verifies against.
class EventSchedule {
 public:
  EventSchedule() = default;
  EventSchedule(std::vector<InjectionEvent> injections, std::vector<RemovalEvent> removals);

  const std::vector<InjectionEvent>& injections() const { return injections_; }
  const std::vector<RemovalEvent>& removals() const { return removals_; }
  bool empty() const { return injections_.empty() && removals_.empty(); }

  /// Whether any event fires at `step` — the guard that skips the AoS
  /// staging round-trip of the SoA overload on ordinary steps.
  bool scheduled_at(std::uint32_t step) const {
    for (const InjectionEvent& e : injections_) {
      if (e.step == step) return true;
    }
    for (const RemovalEvent& e : removals_) {
      if (e.step == step) return true;
    }
    return false;
  }

  /// Deterministic number of particles event `e` injects into cell (cx,cy).
  std::uint64_t injected_in_cell(const Initializer& init, std::size_t event_index,
                                 std::int64_t cx, std::int64_t cy) const;

  /// Exact total count injected by event `e` (sums injected_in_cell).
  std::uint64_t injection_total(const Initializer& init, std::size_t event_index) const;

  /// First id used by injection event `e`; ids continue after the initial
  /// population and all earlier injections.
  std::uint64_t injection_first_id(const Initializer& init, std::size_t event_index) const;

  /// Appends the particles event `e` injects into cells
  /// [cx0,cx1)×[cy0,cy1), with globally consistent ids (parallel-safe).
  void emplace_injection_block(const Initializer& init, std::size_t event_index,
                               std::int64_t cx0, std::int64_t cx1, std::int64_t cy0,
                               std::int64_t cy1, std::vector<Particle>& out) const;

  /// Whether removal event `e` removes a particle with this id that
  /// resides in the event's region.
  bool removes(const Initializer& init, std::size_t event_index, std::uint64_t id) const;

  /// Applies every event scheduled for `step` to a local particle set
  /// restricted to the cell block `block` (the whole grid for serial):
  /// removals first, in event order, each on what the earlier ones left —
  /// so a particle that overlapping removals both select goes once — then
  /// injections into the block. Returns the sum of the ids removed, taken
  /// in the same pass that removes them.
  std::uint64_t apply_step(const Initializer& init, std::uint32_t step,
                           const CellRegion& block,
                           std::vector<Particle>& particles) const;

  /// SoA-store variant: events are rare, so on a step where something is
  /// scheduled the store is staged through AoS records and rebuilt (free
  /// otherwise). Population and order change, so a maintained tile index
  /// (may be null) is marked dirty.
  std::uint64_t apply_step(const Initializer& init, std::uint32_t step,
                           const CellRegion& block, ParticleSoA& particles,
                           TileIndex* tiles) const;

  /// The id checksum a finished run must reproduce: n(n+1)/2 over the
  /// initial population, plus every injection's id range, minus the
  /// global sum of the ids `apply_step` removed.
  std::uint64_t expected_checksum(const Initializer& init,
                                  std::uint64_t removed_id_sum) const;

 private:
  std::vector<InjectionEvent> injections_;
  std::vector<RemovalEvent> removals_;
};

}  // namespace picprk::pic
