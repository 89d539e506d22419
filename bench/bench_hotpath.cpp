// Old-vs-new micro-benchmark for the two hot paths this repo optimises:
//
//  1. The force/move kernel — the pre-strength-reduction kernel
//     (pic::reference, one sqrt + three divides per corner, four at()
//     charge lookups) against the current kernel (1/r³ form, fused
//     corners() lookup) in AoS, flat-SoA and tiled-SoA form. The tiled
//     leg runs the production configuration (cell tiles + post-move
//     revalidation; rebuild cost reported separately) at the acceptance
//     geometry: 200k geometric particles on a 64² grid. Headline numbers
//     are particles/sec, the speedup over the reference, and the tiled
//     kernel's speedup over the scalar AoS baseline (gate: >= 1.5x).
//
//  2. The particle exchange — the pre-flat-buffer exchange
//     (vector-of-vectors bucketing + Comm::alltoall, reproduced verbatim
//     below) on an AoS store against the drivers' path: exchange_particles
//     on the SoA store with a maintained TileIndex and a reusable
//     ExchangeBuffers workspace. Reports per-step p50/p99 times and the
//     workspace's allocation counter across the steady-state steps
//     (expected: 0).
//
// --smoke shrinks sizes for the `perf` ctest label; --json writes
// BENCH_hotpath.json in the picprk-bench-v1 schema (docs/PERFORMANCE.md).
#include <iostream>
#include <string>

#include "bench_json.hpp"
#include "comm/world.hpp"
#include "par/decomposition.hpp"
#include "par/exchange.hpp"
#include "pic/init.hpp"
#include "pic/mover.hpp"
#include "pic/tiling.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace picprk;

/// The exchange as it was before the flat-buffer rewrite: per-destination
/// vector-of-vectors, Comm::alltoall, keep-vector rebuild. Every line
/// allocates; kept here verbatim as the "old" side of the comparison.
par::ExchangeStats legacy_exchange(comm::Comm& comm, const par::Decomposition2D& decomp,
                                   std::vector<pic::Particle>& mine) {
  const int p = comm.size();
  const int me = comm.rank();

  std::vector<std::vector<pic::Particle>> outgoing(static_cast<std::size_t>(p));
  std::vector<pic::Particle> keep;
  keep.reserve(mine.size());
  for (const pic::Particle& particle : mine) {
    const int owner = decomp.owner_of_position(particle.x, particle.y);
    if (owner == me) {
      keep.push_back(particle);
    } else {
      outgoing[static_cast<std::size_t>(owner)].push_back(particle);
    }
  }

  par::ExchangeStats stats;
  for (int r = 0; r < p; ++r) {
    if (r == me) continue;
    const auto& bucket = outgoing[static_cast<std::size_t>(r)];
    stats.sent += bucket.size();
    stats.bytes += bucket.size() * sizeof(pic::Particle);
  }

  auto incoming = comm.alltoall(outgoing);
  mine = std::move(keep);
  for (int r = 0; r < p; ++r) {
    if (r == me) continue;
    const auto& bucket = incoming[static_cast<std::size_t>(r)];
    stats.received += bucket.size();
    mine.insert(mine.end(), bucket.begin(), bucket.end());
  }
  return stats;
}

struct Timing {
  double particles_per_sec = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
};

template <typename Fn>
Timing time_passes(int passes, std::size_t particles, Fn&& pass) {
  std::vector<double> seconds;
  seconds.reserve(static_cast<std::size_t>(passes));
  for (int i = 0; i < passes; ++i) {
    util::Timer t;
    pass();
    seconds.push_back(t.elapsed());
  }
  double total = 0.0;
  for (double s : seconds) total += s;
  Timing out;
  out.particles_per_sec =
      total > 0 ? static_cast<double>(particles) * passes / total : 0.0;
  out.p50 = util::percentile(seconds, 50.0);
  out.p99 = util::percentile(seconds, 99.0);
  return out;
}

util::JsonObject mover_case(const std::string& kernel, std::uint64_t particles,
                            const Timing& t, double speedup) {
  util::JsonObject c;
  c.add("kind", std::string("mover"));
  c.add("kernel", kernel);
  c.add("particles", particles);
  c.add("particles_per_sec", t.particles_per_sec);
  c.add("pass_seconds_p50", t.p50);
  c.add("pass_seconds_p99", t.p99);
  c.add("speedup_vs_reference", speedup);
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("bench_hotpath",
                       "old-vs-new comparison of the mover kernel and particle exchange");
  args.add_int("particles", 200000, "particle count for the mover comparison");
  args.add_int("passes", 40, "timed passes per mover kernel");
  args.add_int("ranks", 4, "threadcomm ranks for the exchange comparison");
  args.add_int("steps", 60, "steps for the exchange comparison");
  args.add_flag("smoke", false, "tiny sizes for CI (the `perf` ctest label)");
  args.add_flag("json", false, "also write BENCH_hotpath.json (schema picprk-bench-v1)");
  args.add_string("json-path", "BENCH_hotpath.json", "output path for --json");
  if (!args.parse(argc, argv)) return 0;

  const bool smoke = args.get_flag("smoke");
  const auto n = static_cast<std::uint64_t>(smoke ? 20000 : args.get_int("particles"));
  const int passes = smoke ? 8 : static_cast<int>(args.get_int("passes"));
  const int ranks = static_cast<int>(args.get_int("ranks"));
  const auto steps = static_cast<std::uint32_t>(smoke ? 24 : args.get_int("steps"));

  // ------------------------------------------------------------- movers
  // The acceptance geometry of docs/PERFORMANCE.md: geometric skew on a
  // 64² grid (~50 particles/cell at the default population), where the
  // tiled mover's per-cell corner broadcast pays off.
  pic::InitParams params;
  params.grid = pic::GridSpec(64, 1.0);
  params.total_particles = n;
  params.distribution = pic::Geometric{0.99};
  const pic::Initializer init(params);
  const pic::AlternatingColumnCharges charges;
  const auto slab = pic::ChargeSlab::sample(charges, 0, 0, 65, 65);

  auto p_ref = init.create_all();
  auto p_new = init.create_all();
  auto p_slab = init.create_all();
  auto soa = pic::to_soa(init.create_all());
  auto soa_tiled = pic::to_soa(init.create_all());
  pic::TileIndex tiles(pic::CellRegion{0, params.grid.cells, 0, params.grid.cells});

  // One forced counting-sort, timed on its own: the rebuild is the cost
  // the revalidate/remap design amortises away (the steady state below
  // re-sorts only when tiles scatter or the untiled tail grows).
  util::Timer rebuild_timer;
  tiles.rebuild(soa_tiled, params.grid);
  const double rebuild_seconds = rebuild_timer.elapsed();

  const Timing ref = time_passes(passes, p_ref.size(), [&] {
    pic::reference::move_all(std::span<pic::Particle>(p_ref), params.grid, charges, 1.0);
  });
  const Timing aos = time_passes(passes, p_new.size(), [&] {
    pic::move_all(std::span<pic::Particle>(p_new), params.grid, charges, 1.0);
  });
  const Timing aos_slab = time_passes(passes, p_slab.size(), [&] {
    pic::move_all(std::span<pic::Particle>(p_slab), params.grid, slab, 1.0);
  });
  const Timing soa_t = time_passes(passes, soa.size(), [&] {
    pic::move_all_soa(soa, params.grid, charges, 1.0);
  });
  const Timing tiled = time_passes(passes, soa_tiled.size(), [&] {
    pic::move_all_tiled(soa_tiled, tiles, params.grid, charges, 1.0);
  });

  const auto speedup = [&](const Timing& t) {
    return ref.particles_per_sec > 0 ? t.particles_per_sec / ref.particles_per_sec : 0.0;
  };
  const double tiled_vs_scalar = aos.particles_per_sec > 0
                                     ? tiled.particles_per_sec / aos.particles_per_sec
                                     : 0.0;

  std::cout << "=== hot-path comparison: mover kernel (" << n << " particles, " << passes
            << " passes, grid " << params.grid.cells << "^2) ===\n";
  util::Table mover_table({"kernel", "Mparticles/s", "p50 ms", "p99 ms", "vs reference"});
  const auto mover_row = [&](const std::string& name, const Timing& t) {
    mover_table.add_row({name, util::Table::fmt(t.particles_per_sec / 1e6, 2),
                         util::Table::fmt(t.p50 * 1e3, 3), util::Table::fmt(t.p99 * 1e3, 3),
                         util::Table::fmt(speedup(t), 2) + "x"});
  };
  mover_row("reference AoS", ref);
  mover_row("AoS", aos);
  mover_row("AoS (slab)", aos_slab);
  mover_row("SoA flat", soa_t);
  mover_row("SoA tiled", tiled);
  mover_table.print(std::cout);
  std::cout << "mover speedup (AoS vs reference): " << util::Table::fmt(speedup(aos), 2)
            << "x\n"
            << "mover speedup (tiled vs scalar AoS): "
            << util::Table::fmt(tiled_vs_scalar, 2) << "x (gate: >= 1.5x)\n"
            << "tile rebuild (counting sort, all columns): "
            << util::Table::fmt(rebuild_seconds * 1e3, 3) << " ms, steady state fresh="
            << (tiles.fresh() ? "yes" : "no") << "\n\n";

  // ----------------------------------------------------------- exchange
  // Uniformly distributed particles on a rank grid, hopping exact cell
  // distances every step (k=1, m=1): heavy but STATIONARY cross-boundary
  // traffic, which is what "zero steady-state allocations" is defined
  // over (a skewed cloud drifting across rank boundaries keeps setting
  // new payload-size maxima, and each new maximum is a legitimate buffer
  // growth). Only the exchange call is timed. The legacy side moves an
  // AoS store with move_all, so it exchanges in post-exchange order
  // (keepers, then immigrants by source rank); the flat side runs the
  // drivers' move_all_tiled + tiled exchange, so it exchanges in cell
  // order with immigrants in the tile tail. The movers are bit-identical,
  // so both sides route the same particles.
  pic::InitParams xparams;
  xparams.grid = pic::GridSpec(smoke ? 64 : 128, 1.0);
  xparams.total_particles = smoke ? 20000 : 200000;
  xparams.distribution = pic::Uniform{};

  struct ExchangeRun {
    std::vector<double> step_seconds;
    std::uint64_t sent = 0;
    std::uint64_t steady_allocations = 0;
    std::uint64_t warmup_allocations = 0;
  };
  const std::uint32_t warmup = steps / 4 + 1;

  const auto run_exchange = [&](bool flat) {
    ExchangeRun out;
    comm::World world(ranks);
    world.run([&](comm::Comm& comm) {
      const comm::Cart2D cart(comm.size());
      const par::Decomposition2D decomp(xparams.grid, cart);
      const pic::CellRegion block = decomp.block_of(comm.rank());
      const pic::Initializer xinit(xparams);
      std::vector<pic::Particle> mine =
          xinit.create_block(block.x0, block.x1, block.y0, block.y1);
      pic::ParticleSoA store = pic::to_soa(mine);
      pic::TileIndex block_tiles(block);
      par::ExchangeBuffers buffers;
      for (std::uint32_t s = 0; s < steps; ++s) {
        if (flat) {
          pic::move_all_tiled(store, block_tiles, xparams.grid, charges, 1.0);
        } else {
          pic::move_all(std::span<pic::Particle>(mine), xparams.grid, charges, 1.0);
        }
        util::Timer t;
        const par::ExchangeStats stats =
            flat ? par::exchange_particles(comm, decomp, store, &block_tiles, buffers)
                 : legacy_exchange(comm, decomp, mine);
        if (comm.rank() == 0) {
          out.step_seconds.push_back(t.elapsed());
          out.sent += stats.sent;
          if (s + 1 == warmup) out.warmup_allocations = buffers.allocations();
        }
      }
      if (comm.rank() == 0) {
        out.steady_allocations = buffers.allocations() - out.warmup_allocations;
      }
    });
    return out;
  };

  const ExchangeRun legacy = run_exchange(false);
  const ExchangeRun flat = run_exchange(true);

  const auto total = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return s;
  };
  const double exchange_speedup =
      total(flat.step_seconds) > 0 ? total(legacy.step_seconds) / total(flat.step_seconds)
                                   : 0.0;

  std::cout << "=== hot-path comparison: particle exchange (" << ranks << " ranks, "
            << steps << " steps, " << xparams.total_particles << " particles) ===\n";
  util::Table ex_table({"path", "total s", "p50 ms", "p99 ms", "particles sent"});
  ex_table.add_row({"legacy (alltoall; AoS, post-exchange order)",
                    util::Table::fmt(total(legacy.step_seconds), 3),
                    util::Table::fmt(util::percentile(legacy.step_seconds, 50.0) * 1e3, 3),
                    util::Table::fmt(util::percentile(legacy.step_seconds, 99.0) * 1e3, 3),
                    util::Table::fmt_u64(legacy.sent)});
  ex_table.add_row({"flat (alltoallv; SoA + TileIndex, cell order)",
                    util::Table::fmt(total(flat.step_seconds), 3),
                    util::Table::fmt(util::percentile(flat.step_seconds, 50.0) * 1e3, 3),
                    util::Table::fmt(util::percentile(flat.step_seconds, 99.0) * 1e3, 3),
                    util::Table::fmt_u64(flat.sent)});
  ex_table.print(std::cout);
  std::cout << "exchange speedup (total time): " << util::Table::fmt(exchange_speedup, 2)
            << "x\n"
            << "workspace allocations after warm-up (" << warmup
            << " steps): " << flat.steady_allocations << " (expected 0)\n";

  if (args.get_flag("json")) {
    std::vector<util::JsonObject> cases;
    cases.push_back(mover_case("mover_aos_reference", n, ref, 1.0));
    cases.push_back(mover_case("mover_aos", n, aos, speedup(aos)));
    cases.push_back(mover_case("mover_aos_slab", n, aos_slab, speedup(aos_slab)));
    cases.push_back(mover_case("mover_soa", n, soa_t, speedup(soa_t)));
    {
      util::JsonObject c = mover_case("mover_soa_tiled", n, tiled, speedup(tiled));
      c.add("speedup_vs_scalar_aos", tiled_vs_scalar);
      c.add("tile_rebuild_seconds", rebuild_seconds);
      cases.push_back(std::move(c));
    }
    for (const bool is_flat : {false, true}) {
      const ExchangeRun& r = is_flat ? flat : legacy;
      util::JsonObject c;
      c.add("kind", std::string("exchange"));
      c.add("path", std::string(is_flat ? "flat_alltoallv" : "legacy_alltoall"));
      c.add("store", std::string(is_flat ? "soa_tiled" : "aos"));
      c.add("data_order", std::string(is_flat ? "cell_tiles" : "post_exchange"));
      c.add("ranks", static_cast<std::int64_t>(ranks));
      c.add("steps", static_cast<std::int64_t>(steps));
      c.add("particles_sent", r.sent);
      c.add("exchange_bytes", r.sent * static_cast<std::uint64_t>(sizeof(pic::Particle)));
      c.add("total_seconds", total(r.step_seconds));
      c.add("step_seconds_p50", util::percentile(r.step_seconds, 50.0));
      c.add("step_seconds_p99", util::percentile(r.step_seconds, 99.0));
      if (is_flat) {
        c.add("speedup_vs_legacy", exchange_speedup);
        c.add("steady_state_allocations", r.steady_allocations);
      }
      cases.push_back(std::move(c));
    }
    util::JsonObject config;
    config.add("smoke", smoke);
    config.add("particles", n);
    config.add("passes", static_cast<std::int64_t>(passes));
    config.add("ranks", static_cast<std::int64_t>(ranks));
    config.add("steps", static_cast<std::int64_t>(steps));
    const std::string path = args.get_string("json-path");
    if (!bench::write_bench_json(path, "bench_hotpath", config, cases)) {
      std::cerr << "failed to write " << path << "\n";
      return 1;
    }
    std::cout << "wrote " << path << "\n";
  }
  return 0;
}
