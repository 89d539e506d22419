// The layer probe: replays one kernel's rank-owned step loop (the
// baseline driver's order of calls) on a 4-rank comm::World and times
// each call into a module's public API — pic (init, mover, retile,
// verify), par (exchange), comm (barrier, alltoallv, allreduce), lb
// (the strategies' decisions on the loads the loop observed) and vpr
// (pup of the kernel's PicVps). Every timed call is one span, named
// after the metric it feeds; spans stay in memory and are written
// through obs::Trace at the end. The probe is itself a verified PRK run:
// after its last step it must pass verify_particles and the id checksum.
#include <algorithm>
#include <chrono>
#include <memory>
#include <span>

#include "bench.hpp"
#include "comm/cart.hpp"
#include "comm/world.hpp"
#include "lb/registry.hpp"
#include "par/decomposition.hpp"
#include "par/driver_common.hpp"
#include "par/exchange.hpp"
#include "par/pic_vp.hpp"
#include "pic/charge.hpp"
#include "pic/mover.hpp"
#include "pic/verify.hpp"
#include "vpr/pup.hpp"

namespace perfbench {

namespace comm = picprk::comm;
namespace lb = picprk::lb;
namespace obs = picprk::obs;
namespace par = picprk::par;
namespace pic = picprk::pic;
namespace vpr = picprk::vpr;

namespace {

/// Steps before the layers are timed: by then every rank has exchanged,
/// so the mover sees post-exchange particle order (immigrants in the
/// tile index tail), as it does for the rest of a run.
constexpr std::uint32_t kWarmupSteps = 2;
/// Repetitions per LB decision: one call takes microseconds.
constexpr int kDecideReps = 50;

using Clock = std::chrono::steady_clock;

/// One timed call.
struct Span {
  const char* name = "";
  double begin_us = 0.0;
  double end_us = 0.0;
};

/// The spans of one thread, in memory until the probe ends. Spans nest:
/// a span's parent is the innermost span open when it began, and on the
/// thread's trace lane the parent's interval encloses it.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  void open(const char* name) {
    open_.push_back(spans_.size());
    spans_.push_back(Span{name, now_us(), 0.0});
  }

  /// Closes the innermost open span; returns its duration in seconds.
  double close() {
    Span& s = spans_[open_.back()];
    open_.pop_back();
    s.end_us = now_us();
    return (s.end_us - s.begin_us) * 1e-6;
  }

  /// Times `fn` as one span.
  template <typename Fn>
  double timed(const char* name, Fn&& fn) {
    open(name);
    fn();
    return close();
  }

  /// Writes the spans onto `lane`, shifted from this log's epoch to the
  /// trace's.
  void write(obs::TraceLane& lane) const {
    const double shift = lane.now_us() - now_us();
    for (const Span& s : spans_) lane.record(s.name, s.begin_us + shift, s.end_us - s.begin_us);
  }

  std::size_t size() const { return spans_.size(); }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// What one rank measured, per step.
struct RankLog {
  explicit RankLog(Clock::time_point epoch, std::uint32_t steps)
      : spans(epoch), mover(steps), retile(steps), wait(steps), exchange(steps),
        transport(steps), allreduce(steps), events(steps), tail(steps), moved(steps),
        sent(steps), bytes(steps), messages(steps) {}

  SpanLog spans;
  std::vector<double> mover, retile, wait, exchange, transport, allreduce, events, tail;
  std::vector<std::uint64_t> moved, sent, bytes, messages;
  double init = 0.0;
  double verify = 0.0;
  /// Rank 0 only: µs per decision call, one entry per LB step.
  std::vector<double> decide_diffusion, decide_greedy, decide_steal;
  pic::VerifyResult verification;  ///< merged over ranks
  std::uint64_t expected_checksum = 0;
  std::uint64_t final_particles = 0;
};

/// Microseconds per call of `fn`, over kDecideReps calls in one span.
template <typename Fn>
double time_decision(SpanLog& spans, const char* name, Fn&& fn) {
  return spans.timed(name, [&] {
           for (int i = 0; i < kDecideReps; ++i) fn();
         }) *
         1e6 / kDecideReps;
}

/// Mean over the timed steps of the per-step maximum over ranks.
double mean_of_max(const std::vector<RankLog>& logs, std::vector<double> RankLog::*series,
                   std::uint32_t steps) {
  double total = 0.0;
  for (std::uint32_t s = kWarmupSteps; s < steps; ++s) {
    double worst = 0.0;
    for (const RankLog& log : logs) worst = std::max(worst, (log.*series)[s]);
    total += worst;
  }
  return total / static_cast<double>(steps - kWarmupSteps);
}

}  // namespace

ProbeResult run_probe(const par::RunConfig& config, obs::Trace& trace) {
  ProbeResult result;
  const std::uint32_t steps = config.steps;
  if (steps <= kWarmupSteps) {
    result.failure = "probe needs more steps than its warm-up";
    return result;
  }
  const int ranks = config.ranks;
  const int workers = config.workers;
  const int vps = workers * config.overdecomposition;
  const pic::GridSpec& grid = config.init.grid;
  const pic::Initializer init(config.init);
  const par::PicVpShared vp_shape(config, vps);  // VP blocks for placement loads
  const Clock::time_point epoch = Clock::now();
  std::vector<RankLog> logs;
  logs.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) logs.emplace_back(epoch, steps);

  comm::World world(ranks);
  world.run([&](comm::Comm& comm) {
    const int me = comm.rank();
    RankLog& log = logs[static_cast<std::size_t>(me)];
    SpanLog& spans = log.spans;
    const comm::Cart2D cart(comm.size());
    const par::Decomposition2D decomp(grid, cart);
    const pic::CellRegion block = decomp.block_of(me);

    pic::ParticleSoA particles;
    log.init = spans.timed("pic.init_s", [&] {
      particles = pic::to_soa(init.create_block(block.x0, block.x1, block.y0, block.y1));
    });
    pic::TileIndex tiles(block);
    const pic::AlternatingColumnCharges pattern(config.init.mesh_q);
    const pic::ChargeSlab slab = pic::ChargeSlab::sample(
        pattern, block.x0, block.y0, block.width() + 1, block.height() + 1);
    par::EventTracker tracker(init, config.events);
    par::ExchangeBuffers buffers;
    // Transport replay scratch: same counts as the exchange, own buffers.
    std::vector<pic::Particle> replay_send, replay_recv;
    std::vector<std::uint64_t> replay_counts, replay_recv_counts;
    comm::BufferPool replay_pool;
    std::unique_ptr<lb::Strategy> diffusion, greedy, steal;
    if (me == 0) {
      diffusion = lb::make_strategy("diffusion");
      greedy = lb::make_strategy("greedy");
      steal = lb::make_strategy("steal");
    }
    const auto plus = [](auto a, auto b) { return a + b; };

    for (std::uint32_t step = 0; step < steps; ++step) {
      spans.open("probe.step");
      if (!config.events.empty()) {
        log.events[step] = spans.timed("pic.events", [&] {
          tracker.apply(step, block, particles, &tiles);
        });
      }
      // Retile = the mover's re-sort (when the index is dirty or its
      // tail too long) plus a replay of the post-move relabel, which
      // move_all_tiled runs internally; the mover's time excludes both.
      double retile = 0.0;
      if (!tiles.fresh() || tiles.tail_fraction(particles) > pic::kRetileTailFraction) {
        retile += spans.timed("pic.retile_s_per_step", [&] { tiles.rebuild(particles, grid); });
      }
      log.tail[step] = tiles.tail_fraction(particles);
      log.moved[step] = particles.size();
      const double move = spans.timed("pic.mover_s_per_step", [&] {
        pic::move_all_tiled(particles, tiles, grid, slab, config.init.dt);
      });
      const double relabel = spans.timed("pic.retile_s_per_step", [&] {
        tiles.revalidate_after_move(particles, grid);
      });
      log.mover[step] = std::max(0.0, move - relabel);
      log.retile[step] = retile + relabel;

      log.wait[step] = spans.timed("par.wait_s_per_step", [&] { comm.barrier(); });
      // Right after the barrier the ranks arrive together, so the
      // allreduce times the collective rather than imbalance.
      log.allreduce[step] = spans.timed("comm.allreduce_us", [&] {
        (void)comm.allreduce_value(static_cast<double>(particles.size()), plus);
      });
      par::ExchangeStats stats;
      log.exchange[step] = spans.timed("par.exchange_s_per_step", [&] {
        stats = par::exchange_particles(comm, decomp, particles, &tiles, buffers);
      });
      log.sent[step] = stats.sent;
      log.bytes[step] = stats.bytes;

      replay_counts.assign(buffers.send_counts.begin(), buffers.send_counts.end());
      std::uint64_t replay_total = 0;
      std::uint64_t messages = static_cast<std::uint64_t>(comm.size() - 1);  // counts
      for (const std::uint64_t c : replay_counts) {
        replay_total += c;
        if (c > 0) ++messages;  // one payload per non-empty peer
      }
      log.messages[step] = messages;
      replay_send.resize(replay_total);
      log.transport[step] = spans.timed("comm.transport_s_per_step", [&] {
        comm.alltoallv(std::span<const pic::Particle>(replay_send),
                       std::span<const std::uint64_t>(replay_counts), replay_recv,
                       replay_recv_counts, &replay_pool);
      });

      if (config.lb.every > 0 && step > 0 && step % config.lb.every == 0) {
        // Observe: the loads the drivers would hand their strategies.
        std::vector<double> vp_loads(static_cast<std::size_t>(vps), 0.0);
        for (std::size_t i = 0; i < particles.size(); ++i) {
          vp_loads[static_cast<std::size_t>(vp_shape.owner_vp(particles.x[i], particles.y[i]))] +=
              1.0;
        }
        vp_loads = comm.allreduce(std::span<const double>(vp_loads), plus);
        const std::vector<std::uint64_t> counts =
            comm.allgather_value(static_cast<std::uint64_t>(particles.size()));
        if (me == 0) {
          lb::BoundsInput bounds;
          bounds.axis = 0;
          bounds.step = step;
          bounds.interval_steps = config.lb.every;
          bounds.bounds = decomp.x_bounds();
          bounds.loads.assign(static_cast<std::size_t>(cart.px()), 0.0);
          for (int r = 0; r < comm.size(); ++r) {
            bounds.loads[static_cast<std::size_t>(cart.coords_of(r).first)] +=
                static_cast<double>(counts[static_cast<std::size_t>(r)]);
          }
          lb::PlacementInput placement;
          placement.step = step;
          placement.interval_steps = config.lb.every;
          placement.workers = workers;
          for (int v = 0; v < vps; ++v) {
            const comm::Cart2D& vc = vp_shape.vcart;
            placement.parts.push_back(lb::PartLoad{
                v, vp_loads[static_cast<std::size_t>(v)], v * workers / vps,
                {vc.neighbor(v, 1, 0), vc.neighbor(v, -1, 0), vc.neighbor(v, 0, 1),
                 vc.neighbor(v, 0, -1)}});
          }
          log.decide_diffusion.push_back(time_decision(spans, "lb.decide_us.diffusion", [&] {
            (void)diffusion->rebalance_bounds(bounds);
          }));
          log.decide_greedy.push_back(time_decision(spans, "lb.decide_us.greedy", [&] {
            (void)greedy->rebalance_placement(placement);
          }));
          log.decide_steal.push_back(time_decision(spans, "lb.decide_us.steal", [&] {
            (void)steal->rebalance_placement(placement);
          }));
        }
      }
      spans.close();  // probe.step
    }

    pic::VerifyResult local;
    log.verify = spans.timed("pic.verify_s", [&] {
      const std::vector<pic::Particle> aos = pic::to_aos(particles);
      local = pic::verify_particles(std::span<const pic::Particle>(aos), grid, steps,
                                    config.verify_epsilon);
    });
    const pic::VerifyResult merged = par::merge_verification(comm, local);
    const std::uint64_t expected = tracker.finalize(comm);
    const std::uint64_t total =
        comm.allreduce_value(static_cast<std::uint64_t>(particles.size()), plus);
    if (me == 0) {
      log.verification = merged;
      log.expected_checksum = expected;
      log.final_particles = total;
    }
  });

  // Spans: one trace lane per rank, written after the ranks joined.
  for (int r = 0; r < ranks; ++r) {
    const SpanLog& spans = logs[static_cast<std::size_t>(r)].spans;
    obs::TraceLane& lane =
        trace.lane(0, "perfbench probe", r, "rank " + std::to_string(r), spans.size() + 1);
    spans.write(lane);
    result.spans += spans.size();
  }

  // Closed-form check: Eqs. 5-6 on every particle and the id checksum,
  // which is n(n+1)/2 when no event changed the population.
  const RankLog& root = logs.front();
  const bool static_population = config.events.empty();
  const std::uint64_t n = init.total();
  result.ok = root.verification.ok(root.expected_checksum) &&
              (!static_population || (root.expected_checksum == pic::expected_checksum(n) &&
                                      root.final_particles == n));
  if (!result.ok) {
    result.failure = "probe failed the closed-form check (checksum " +
                     std::to_string(root.verification.id_checksum) + ", expected " +
                     std::to_string(root.expected_checksum) + ", position failures " +
                     std::to_string(root.verification.position_failures) + ")";
  }

  const std::uint32_t timed_steps = steps - kWarmupSteps;
  double init_max = 0.0, verify_max = 0.0, moved = 0.0, mover_total = 0.0, tail = 0.0;
  double sent = 0.0, bytes = 0.0, messages = 0.0, allreduce = 0.0;
  for (const RankLog& log : logs) {
    init_max = std::max(init_max, log.init);
    verify_max = std::max(verify_max, log.verify);
    for (std::uint32_t s = kWarmupSteps; s < steps; ++s) {
      moved += static_cast<double>(log.moved[s]);
      mover_total += log.mover[s];
      tail += log.tail[s];
      sent += static_cast<double>(log.sent[s]);
      bytes += static_cast<double>(log.bytes[s]);
      messages += static_cast<double>(log.messages[s]);
    }
  }
  for (std::uint32_t s = kWarmupSteps; s < steps; ++s) {
    // The last rank to reach the allreduce waits for no one: min over ranks.
    double fastest = logs.front().allreduce[s];
    for (const RankLog& log : logs) fastest = std::min(fastest, log.allreduce[s]);
    allreduce += fastest;
  }
  // Bytes the mover touches per particle, computed from the SoA column
  // sizes: x, y, vx, vy read and written, q read.
  const pic::ParticleSoA columns;
  const double bytes_per_particle =
      2.0 * static_cast<double>(sizeof(columns.x[0]) + sizeof(columns.y[0]) +
                                sizeof(columns.vx[0]) + sizeof(columns.vy[0])) +
      static_cast<double>(sizeof(columns.q[0]));
  const double mps = moved / mover_total / 1e6;
  const double exchange = mean_of_max(logs, &RankLog::exchange, steps);
  const double transport = mean_of_max(logs, &RankLog::transport, steps);
  result.metrics = {
      {"pic.init_s", init_max, "s"},
      {"pic.verify_s", verify_max, "s"},
      {"pic.mover_s_per_step", mean_of_max(logs, &RankLog::mover, steps), "s"},
      {"pic.mover_mps", mps, "Mp/s"},
      {"pic.mover_gbps_computed", mps * 1e6 * bytes_per_particle / 1e9, "GB/s"},
      {"pic.retile_s_per_step", mean_of_max(logs, &RankLog::retile, steps), "s"},
      {"pic.tile_tail_fraction", tail / static_cast<double>(timed_steps * logs.size()), "ratio"},
      {"par.exchange_s_per_step", exchange, "s"},
      {"par.exchange_local_s_per_step", exchange - transport, "s"},
      {"par.wait_s_per_step", mean_of_max(logs, &RankLog::wait, steps), "s"},
      {"par.emigrant_fraction", sent / moved, "ratio"},  // the exchange sees the moved store
      {"comm.transport_s_per_step", transport, "s"},
      {"comm.allreduce_us", 1e6 * allreduce / timed_steps, "us"},
      {"comm.bytes_per_step", bytes / timed_steps, "bytes"},
      {"comm.messages_per_step", messages / timed_steps, "count"},
      {"lb.decide_us.diffusion", median(root.decide_diffusion), "us"},
      {"lb.decide_us.greedy", median(root.decide_greedy), "us"},
      {"lb.decide_us.steal", median(root.decide_steal), "us"},
  };
  // Over every step, warm-up included: the engine's RESULT seconds
  // include them too.
  for (std::uint32_t s = 0; s < steps; ++s) {
    double worst = 0.0;
    for (const RankLog& l : logs) {
      worst = std::max(worst, l.events[s] + l.retile[s] + l.mover[s] + l.wait[s] + l.exchange[s]);
    }
    result.step_seconds += worst / steps;
  }
  return result;
}

void probe_pup(const par::RunConfig& config, obs::Trace& trace, ProbeResult& result) {
  const int vps = config.workers * config.overdecomposition;
  const auto shared = std::make_shared<const par::PicVpShared>(config, vps);
  SpanLog spans(Clock::now());
  double pack = 0.0, unpack = 0.0, bytes = 0.0;
  for (int v = 0; v < vps; ++v) {
    par::PicVp vp(v, shared);
    vp.populate();
    std::vector<std::byte> buffer;
    pack += spans.timed("vpr.pup_pack_s_per_mb", [&] { buffer = vpr::pup_pack(vp); });
    bytes += static_cast<double>(buffer.size());
    par::PicVp copy(v, shared);
    unpack += spans.timed("vpr.pup_unpack_s_per_mb",
                          [&] { vpr::pup_unpack(copy, std::move(buffer)); });
    const pic::ParticleSoA& a = vp.particles();
    const pic::ParticleSoA& b = copy.particles();
    if (a.size() != b.size() || a.id != b.id || a.x != b.x || a.y != b.y) {
      result.ok = false;
      result.failure = "pup round trip changed VP " + std::to_string(v);
    }
  }
  obs::TraceLane& lane = trace.lane(0, "perfbench probe", config.ranks, "pup", spans.size() + 1);
  spans.write(lane);
  result.spans += spans.size();
  result.metrics.push_back({"vpr.pup_pack_s_per_mb", pack / (bytes / 1e6), "s/MB"});
  result.metrics.push_back({"vpr.pup_unpack_s_per_mb", unpack / (bytes / 1e6), "s/MB"});
}

}  // namespace perfbench
