// Cell tiling of the SoA particle store: groups the rows of a
// ParticleSoA into contiguous runs ("tiles") of particles sharing a grid
// cell, so the mover can hoist the four corner values of a cell out of
// the inner loop — a per-tile broadcast instead of a per-particle
// gather — leaving a straight-line loop body the compiler vectorizes.
//
// A full re-sort (counting sort over the cells of a region, permuting
// all twelve columns) costs more than one tiled move at realistic
// populations, so the index is NOT rebuilt every step. Instead:
//
//  * rebuild()    — counting-sort the store by cell; rows whose cell
//                   falls outside the region land in an untiled tail.
//  * revalidate_after_move() — after a move, each tile's particles have
//                   usually drifted TOGETHER into one new cell (the
//                   PRK's motion is a uniform hop of (2k+1, m) cells for
//                   particles sharing (k, m, dir) — see verify.hpp
//                   Eqs. 5–6), so the grouping survives; this pass
//                   relabels each tile from its members and only marks
//                   the index dirty when a tile really scattered.
//  * compact_ranges() — the particle exchange removes emigrants by
//                   stable compaction; tile ranges shrink accordingly
//                   without re-sorting. Immigrants append to the tail.
//
// Policy (when to rebuild vs. ride the tail) lives with the caller; the
// mover rebuilds a dirty index and flat-moves the tail, so correctness
// never depends on the cadence. docs/PERFORMANCE.md discusses the cost
// model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "pic/geometry.hpp"
#include "pic/particle.hpp"
#include "util/assert.hpp"

namespace picprk::pic {

class TileIndex {
 public:
  /// One tile: rows [begin, end) of the store, all in cell (cx, cy).
  struct Tile {
    std::int64_t cx = 0;
    std::int64_t cy = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  TileIndex() = default;
  explicit TileIndex(const CellRegion& region) : region_(region) {}

  const CellRegion& region() const { return region_; }

  /// Re-targets the index (e.g. after a load-balance boundary move).
  void reset_region(const CellRegion& region) {
    region_ = region;
    dirty_ = true;
  }

  /// False once any operation broke the tile ⇄ cell correspondence
  /// (scatter detected, swap_remove, restore...). A dirty index must be
  /// rebuilt before the tiles are trusted again.
  bool fresh() const { return !dirty_; }
  void mark_dirty() { dirty_ = true; }

  std::span<const Tile> tiles() const { return tiles_; }

  /// Rows [tail_begin(), soa.size()) are not covered by any tile:
  /// out-of-region residents and everything appended since the last
  /// rebuild (immigrants, injected particles). Callers move them with
  /// the flat kernel.
  std::size_t tail_begin() const { return tiled_end_; }

  /// Tail size as a fraction of the store; the drivers' rebuild trigger.
  double tail_fraction(const ParticleSoA& soa) const {
    const std::size_t n = soa.size();
    if (n == 0) return 0.0;
    return static_cast<double>(n - tiled_end_) / static_cast<double>(n);
  }

  /// Counting-sorts the store by containing cell (region cells in
  /// row-major order, then the out-of-region tail) and records one tile
  /// per occupied cell. All twelve columns are permuted; scratch is
  /// retained across calls, so steady-state rebuilds allocate nothing.
  void rebuild(ParticleSoA& soa, const GridSpec& grid) {
    const std::size_t n = soa.size();
    const std::int64_t w = region_.width();
    const auto area = static_cast<std::size_t>(region_.area());
    tiles_.clear();
    // Degenerate region/population: a bucket array much larger than the
    // store would cost more than tiling saves — leave everything in the
    // tail (the flat kernel handles it; still a valid, fresh index).
    if (n == 0 || area > kMaxBuckets || (area > 8 * n && area > 4096)) {
      tiled_end_ = 0;
      dirty_ = false;
      return;
    }

    // Pass 1: bucket key per row (region cell index, or `area` = tail).
    key_.resize(n);
    counts_.assign(area + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t cx = grid.cell_of(soa.x[i]);
      const std::int64_t cy = grid.cell_of(soa.y[i]);
      const std::size_t key =
          region_.contains_cell(cx, cy)
              ? static_cast<std::size_t>((cy - region_.y0) * w + (cx - region_.x0))
              : area;
      key_[i] = key;
      ++counts_[key];
    }

    // Pass 2: bucket start offsets, then the destination of every row.
    starts_.resize(area + 2);
    std::size_t offset = 0;
    for (std::size_t b = 0; b <= area; ++b) {
      starts_[b] = offset;
      offset += counts_[b];
    }
    starts_[area + 1] = offset;
    // Reuse counts_ as the per-bucket write cursor; walking rows in
    // order keeps the sort stable within a bucket.
    for (std::size_t b = 0; b <= area; ++b) counts_[b] = starts_[b];
    dest_.resize(n);
    for (std::size_t i = 0; i < n; ++i) dest_[i] = counts_[key_[i]]++;

    // Pass 3: permute every column through reusable scratch.
#define PICPRK_FIELD(type, name, init) permute(soa.name, scratch(soa.name));
    PICPRK_PARTICLE_FIELDS(PICPRK_FIELD)
#undef PICPRK_FIELD

    // Pass 4: one tile per occupied region cell.
    for (std::size_t b = 0; b < area; ++b) {
      if (starts_[b] == starts_[b + 1]) continue;
      Tile t;
      t.cx = region_.x0 + static_cast<std::int64_t>(b) % w;
      t.cy = region_.y0 + static_cast<std::int64_t>(b) / w;
      t.begin = starts_[b];
      t.end = starts_[b + 1];
      tiles_.push_back(t);
    }
    tiled_end_ = starts_[area];
    dirty_ = false;
  }

  /// After a move: relabel each tile from its members' new cells. The
  /// canonical PRK motion shifts a whole tile into one new cell, so this
  /// O(n) scan (two multiply-and-truncate per row) replaces a re-sort.
  /// Returns false — and marks the index dirty — if any tile scattered
  /// across cells (mixed per-particle (k, m, dir) populations do this).
  bool revalidate_after_move(const ParticleSoA& soa, const GridSpec& grid) {
    if (dirty_) return false;
    for (Tile& t : tiles_) {
      const std::int64_t cx = grid.cell_of(soa.x[t.begin]);
      const std::int64_t cy = grid.cell_of(soa.y[t.begin]);
      for (std::size_t i = t.begin; i < t.end; ++i) {
        if (grid.cell_of(soa.x[i]) != cx || grid.cell_of(soa.y[i]) != cy) {
          dirty_ = true;
          return false;
        }
      }
      t.cx = cx;
      t.cy = cy;
    }
    return true;
  }

  /// After a stable keeper-compaction (exchange): row i survived iff
  /// owner[i] == me. Shrinks every tile range in place — grouping and
  /// order are preserved by stability, so no re-sort is needed. `owner`
  /// is indexed by PRE-compaction rows and must cover the old store.
  void compact_ranges(std::span<const int> owner, int me) {
    if (dirty_) return;
    std::size_t removed_before = 0;
    for (Tile& t : tiles_) {
      std::size_t removed_here = 0;
      for (std::size_t i = t.begin; i < t.end; ++i) {
        if (owner[i] != me) ++removed_here;
      }
      t.begin -= removed_before;
      removed_before += removed_here;
      t.end -= removed_before;
    }
    tiled_end_ -= removed_before;
    // Drop tiles the exchange emptied entirely.
    std::erase_if(tiles_, [](const Tile& t) { return t.begin == t.end; });
  }

  /// Structural invariant, for tests and PICPRK_EXPENSIVE_CHECKS sweeps:
  /// tiles partition [0, tail_begin()) contiguously in order, and every
  /// tiled row's cell matches its tile label. Each row is therefore
  /// indexed exactly once (tiles) or left to the tail — never both.
  bool check(const ParticleSoA& soa, const GridSpec& grid) const {
    if (dirty_) return false;
    if (tiled_end_ > soa.size()) return false;
    std::size_t cursor = 0;
    for (const Tile& t : tiles_) {
      if (t.begin != cursor || t.end <= t.begin) return false;
      if (!region_.contains_cell(t.cx, t.cy) &&
          (t.cx < 0 || t.cx >= grid.cells || t.cy < 0 || t.cy >= grid.cells)) {
        return false;
      }
      for (std::size_t i = t.begin; i < t.end; ++i) {
        if (grid.cell_of(soa.x[i]) != t.cx || grid.cell_of(soa.y[i]) != t.cy) return false;
      }
      cursor = t.end;
    }
    return cursor == tiled_end_;
  }

 private:
  // Bucket-array ceiling: above this the counting sort's memory/clearing
  // cost is unreasonable for any realistic population.
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 24;

  template <typename T>
  void permute(std::vector<T>& column, std::vector<T>& tmp) {
    const std::size_t n = column.size();
    tmp.resize(n);
    for (std::size_t i = 0; i < n; ++i) tmp[dest_[i]] = column[i];
    column.swap(tmp);
  }

  // Typed scratch, selected by column type; swap() in permute() keeps
  // the retired buffer for the next column/rebuild.
  std::vector<double>& scratch(const std::vector<double>&) { return scratch_f64_; }
  std::vector<std::int32_t>& scratch(const std::vector<std::int32_t>&) { return scratch_i32_; }
  std::vector<std::uint32_t>& scratch(const std::vector<std::uint32_t>&) { return scratch_u32_; }
  std::vector<std::uint64_t>& scratch(const std::vector<std::uint64_t>&) { return scratch_u64_; }

  CellRegion region_;
  std::vector<Tile> tiles_;
  std::size_t tiled_end_ = 0;
  bool dirty_ = true;

  std::vector<std::size_t> key_, counts_, starts_, dest_;
  std::vector<double> scratch_f64_;
  std::vector<std::int32_t> scratch_i32_;
  std::vector<std::uint32_t> scratch_u32_;
  std::vector<std::uint64_t> scratch_u64_;
};

}  // namespace picprk::pic
