// Particle exchange: after the move phase (or after a decomposition
// change) every rank routes the particles that no longer belong to its
// block to their new owner (paper §IV-A: "Each processor sends the
// particles that left its subdomain to the appropriate remote
// processor"). Routing is by owner lookup, not nearest-neighbor only, so
// arbitrary particle speeds (large k, m) are handled.
//
// Hot path: keepers are compacted in place (in steady state almost every
// particle stays put), emigrants are counting-sorted into one flat
// buffer grouped by destination rank and shipped with the flat-buffer
// `Comm::alltoallv` (counts + one packed payload per non-empty peer,
// buffers moved into the mailbox, byte buffers recycled through a pool).
// The routing half (route_particles) is the one copy of that logic: the
// VP step (PicVp) runs it over VP ids and ships each destination group
// as one message instead of the alltoallv.
// All scratch lives in a caller-owned ExchangeBuffers workspace, so
// steady-state exchange performs no heap allocation —
// `ExchangeBuffers::allocations()` is the test hook that proves it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "comm/comm.hpp"
#include "obs/registry.hpp"
#include "par/decomposition.hpp"
#include "pic/particle.hpp"
#include "pic/tiling.hpp"

namespace picprk::par {

struct ExchangeStats {
  std::uint64_t sent = 0;      ///< particles shipped to other ranks
  std::uint64_t received = 0;  ///< particles received from other ranks
  std::uint64_t bytes = 0;     ///< payload bytes sent by this rank
};

/// Whole-run exchange traffic, accumulated by every exchange through a
/// workspace. Plain integers (not atomics): the workspace is rank-local,
/// and checkpoint/restore can copy the struct wholesale. Replaces the
/// per-driver `sent/bytes` tally locals the drivers used to carry.
struct ExchangeTotals {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t bytes = 0;
};

/// Reusable routing workspace, owned by a driver rank (passed to every
/// exchange_particles call) or by a VP (its step's router). All buffers
/// grow to their steady-state high-water mark during warm-up and are
/// reused afterwards.
/// `allocations()` counts every buffer growth (including the byte-buffer
/// pool shared with the comm layer), so a test can assert that it stops
/// increasing once traffic reaches steady state.
struct ExchangeBuffers {
  std::vector<std::uint64_t> send_counts;   ///< per-destination particle counts
  std::vector<std::uint64_t> recv_counts;   ///< per-source particle counts
  std::vector<std::uint64_t> cursor;        ///< counting-sort write cursors
  std::vector<int> owner;                   ///< per-particle destination cache
  std::vector<pic::Particle> packed;        ///< emigrant payload grouped by destination
  std::vector<pic::Particle> received;      ///< immigrants, appended to the store
  comm::BufferPool pool;                    ///< recycled message byte buffers

  /// Whole-run traffic; every exchange through this workspace adds its
  /// ExchangeStats here (and into the optional obs counters below).
  ExchangeTotals totals;

  /// Optional telemetry mirrors (obs::Registry handles); null = dark.
  /// Set at driver setup from a StepInstruments bundle.
  obs::Counter* sent_counter = nullptr;
  obs::Counter* received_counter = nullptr;
  obs::Counter* bytes_counter = nullptr;

  /// Folds one exchange's stats into the running totals + mirrors.
  void note_traffic(const ExchangeStats& stats) {
    totals.sent += stats.sent;
    totals.received += stats.received;
    totals.bytes += stats.bytes;
    if (sent_counter != nullptr) sent_counter->add(stats.sent);
    if (received_counter != nullptr) received_counter->add(stats.received);
    if (bytes_counter != nullptr) bytes_counter->add(stats.bytes);
  }

  /// Total buffer growths so far (workspace vectors + pooled byte
  /// buffers). Constant across steps once traffic is steady.
  std::uint64_t allocations() const { return growths_ + pool.allocations(); }

  /// Resizes `v` to `n`, counting a growth when capacity was
  /// insufficient. Grows with 50% headroom so bounded step-to-step
  /// fluctuation settles after one growth.
  template <typename V>
  void fit(V& v, std::size_t n) {
    if (v.capacity() < n) {
      ++growths_;
      v.reserve(n + n / 2);
    }
    v.resize(n);
  }

  /// Records a buffer growth observed outside `fit` (e.g. `received`
  /// grown inside the collective).
  void note_growth() { ++growths_; }

 private:
  std::uint64_t growths_ = 0;
};

/// The one particle router, shared by the rank exchange below and the
/// VP step (PicVp). Computes every row's destination `owner_of(x, y)`
/// in [0, destinations), compacts the keepers (destination `me`) stably
/// in place — all columns in lockstep, a TileIndex's ranges (may be
/// null) shrunk in step — and counting-sorts the emigrants into
/// `buffers.packed` as AoS wire records grouped by ascending
/// destination, each group in store order. On return
/// `buffers.send_counts[d]` is the size of destination d's group (self
/// zeroed: keepers are not traffic). Returns the emigrant count.
template <typename OwnerFn>
std::uint64_t route_particles(OwnerFn&& owner_of, int me, int destinations,
                              pic::ParticleSoA& mine, pic::TileIndex* tiles,
                              ExchangeBuffers& buffers) {
  const auto p = static_cast<std::size_t>(destinations);
  const auto self = static_cast<std::size_t>(me);
  const std::size_t n = mine.size();

  // Pass 1: destination of every row + per-destination counts.
  buffers.fit(buffers.owner, n);
  buffers.fit(buffers.send_counts, p);
  buffers.fit(buffers.cursor, p);
  std::fill(buffers.send_counts.begin(), buffers.send_counts.end(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const int dst = owner_of(mine.x[i], mine.y[i]);
    buffers.owner[i] = dst;
    ++buffers.send_counts[static_cast<std::size_t>(dst)];
  }
  const std::uint64_t keepers = buffers.send_counts[self];
  buffers.send_counts[self] = 0;

  // Pass 2: compact keepers in place and counting-sort the emigrants
  // into the packed wire buffer.
  std::uint64_t offset = 0;
  for (std::size_t r = 0; r < p; ++r) {
    buffers.cursor[r] = offset;
    offset += buffers.send_counts[r];
  }
  buffers.fit(buffers.packed, n - static_cast<std::size_t>(keepers));
  std::size_t w = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (buffers.owner[i] == me) {
      mine.move_row(w, i);
      ++w;
    } else {
      buffers.packed[buffers.cursor[static_cast<std::size_t>(buffers.owner[i])]++] =
          mine.get(i);
    }
  }
  mine.truncate(w);  // shrink: never reallocates
  if (tiles != nullptr) {
    tiles->compact_ranges(std::span<const int>(buffers.owner.data(), n), me);
  }
  return static_cast<std::uint64_t>(n) - keepers;
}

/// Flat-buffer rank exchange for arbitrary ownership: `owner_of(x, y)`
/// maps a position to its rank. route_particles, then one
/// `Comm::alltoallv` of the packed groups, then the immigrants are
/// appended to the store. Post-condition: owner_of(p) == my rank for
/// every particle kept. The result order is deterministic: keepers
/// first in their original order, then immigrants in ascending
/// source-rank order — so a TileIndex over the store survives (the
/// immigrants land in its tail).
template <typename OwnerFn>
ExchangeStats exchange_particles_by(comm::Comm& comm, OwnerFn&& owner_of,
                                    pic::ParticleSoA& mine, pic::TileIndex* tiles,
                                    ExchangeBuffers& buffers) {
  ExchangeStats stats;
  stats.sent = route_particles(std::forward<OwnerFn>(owner_of), comm.rank(), comm.size(),
                               mine, tiles, buffers);
  stats.bytes = stats.sent * sizeof(pic::Particle);

  buffers.fit(buffers.recv_counts, static_cast<std::size_t>(comm.size()));
  const std::size_t recv_capacity = buffers.received.capacity();
  comm.alltoallv(std::span<const pic::Particle>(buffers.packed),
                 std::span<const std::uint64_t>(buffers.send_counts), buffers.received,
                 buffers.recv_counts, &buffers.pool);
  if (buffers.received.capacity() > recv_capacity) buffers.note_growth();

  const std::size_t mine_capacity = mine.capacity();
  mine.append(std::span<const pic::Particle>(buffers.received));
  if (mine.capacity() > mine_capacity) buffers.note_growth();

  stats.received = buffers.received.size();
  buffers.note_traffic(stats);
  return stats;
}

/// Routes emigrants in `mine` to their block owners and appends
/// immigrants; `tiles` may be null. Collective over `comm`.
/// Post-condition: every particle in `mine` belongs to this rank's block
/// (verified exhaustively only under PICPRK_EXPENSIVE_CHECKS builds —
/// the O(n) sweep would distort release timings).
ExchangeStats exchange_particles(comm::Comm& comm, const Decomposition2D& decomp,
                                 pic::ParticleSoA& mine, pic::TileIndex* tiles,
                                 ExchangeBuffers& buffers);

}  // namespace picprk::par
