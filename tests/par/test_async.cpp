// The async engine's correctness contract: removing both per-step
// barriers (incremental iexchange delivery + count-based step
// termination: one count envelope per peer per step) must change *nothing* observable about the physics. For
// every §III-E distribution and every population-event case, the
// engine must reproduce the serial reference's final particle count and
// id checksum bit-for-bit — the same bar the sync drivers clear in
// test_integration_matrix.cpp.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "comm/world.hpp"
#include "matrix_cases.hpp"
#include "obs/registry.hpp"
#include "par/ampi.hpp"
#include "par/async.hpp"

namespace {

using picprk::comm::Comm;
using picprk::comm::World;
using picprk::par::DriverResult;
using picprk::par::RunConfig;
using picprk::par::run_async;
using picprk::pic::CellRegion;

RunConfig async_config(int kind, matrix::Events events) {
  RunConfig cfg;
  cfg.init.grid = picprk::pic::GridSpec(matrix::kCells, 1.0);
  cfg.init.total_particles = matrix::kParticles;
  cfg.init.distribution = matrix::distribution(kind);
  cfg.init.k = 1;
  cfg.init.m = -1;
  cfg.steps = matrix::kSteps;
  cfg.ranks = 4;
  cfg.overdecomposition = 4;
  cfg.lb.strategy = "steal";
  cfg.lb.every = 4;
  cfg.events = matrix::schedule(events);
  return cfg;
}

class AsyncMatrix : public ::testing::TestWithParam<matrix::Param> {};

INSTANTIATE_TEST_SUITE_P(DistributionsAndEvents, AsyncMatrix, matrix::cases(),
                         matrix::case_name);

TEST_P(AsyncMatrix, MatchesSerialBitForBit) {
  const auto [kind, events] = GetParam();
  const RunConfig cfg = async_config(kind, events);
  const matrix::Reference ref = matrix::serial_reference(cfg);
  const DriverResult r = run_async(cfg);
  EXPECT_TRUE(r.ok) << "failures=" << r.verification.position_failures
                    << " checksum=" << r.verification.id_checksum << "/"
                    << r.expected_id_checksum;
  EXPECT_EQ(r.final_particles, ref.particles);
  EXPECT_EQ(r.verification.id_checksum, ref.checksum);
  EXPECT_EQ(r.verification.checked, r.final_particles);
}

// The two overlap-free barriers are gone, but the engine must still
// agree with the barriered vpr driver at the same decomposition —
// 16 VPs either way — including LB migration effects on the tallies.
TEST(Async, MatchesAmpiAtEqualDecomposition) {
  RunConfig cfg = async_config(1, matrix::Events::kNone);
  const DriverResult async_r = run_async(cfg);

  RunConfig ampi_cfg = cfg;
  ampi_cfg.workers = 4;  // workers * d == ranks * d == 16 VPs
  ampi_cfg.lb.strategy = "greedy";
  const DriverResult ampi_r = picprk::par::run_ampi(ampi_cfg);

  ASSERT_TRUE(async_r.ok);
  ASSERT_TRUE(ampi_r.ok);
  EXPECT_EQ(async_r.final_particles, ampi_r.final_particles);
  EXPECT_EQ(async_r.verification.id_checksum, ampi_r.verification.id_checksum);
  EXPECT_EQ(async_r.expected_id_checksum, ampi_r.expected_id_checksum);
}

// Collective form inside an existing world: every rank must return the
// same (allreduced) result.
TEST(Async, CollectiveFormAgreesOnAllRanks) {
  const RunConfig cfg = async_config(0, matrix::Events::kNone);
  World world(cfg.ranks);
  world.run([&](Comm& comm) {
    const DriverResult r = run_async(comm, cfg);
    EXPECT_TRUE(r.ok);
    const std::uint64_t lo = comm.allreduce_value(
        r.verification.id_checksum,
        [](std::uint64_t a, std::uint64_t b) { return a < b ? a : b; });
    const std::uint64_t hi = comm.allreduce_value(
        r.verification.id_checksum,
        [](std::uint64_t a, std::uint64_t b) { return a < b ? b : a; });
    EXPECT_EQ(lo, hi);
    EXPECT_EQ(r.verification.checked, r.final_particles);
  });
}

// Termination detection must not hinge on every rank having traffic: a
// patch crammed into one corner leaves most ranks (and their VPs) with
// zero particles, so they announce zero messages to every peer each
// step. Every rank must still end each step promptly.
TEST(Async, ZeroParticleRanksTerminate) {
  RunConfig cfg = async_config(4, matrix::Events::kNone);
  cfg.init.distribution = picprk::pic::Patch{CellRegion{0, 4, 0, 4}};
  cfg.lb.every = 0;  // no rebalancing: the empty ranks stay empty
  const matrix::Reference ref = matrix::serial_reference(cfg);
  const DriverResult r = run_async(cfg);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.final_particles, ref.particles);
  EXPECT_EQ(r.verification.id_checksum, ref.checksum);
}

// The engine requires a placement-capable strategy; bounds-only specs
// are a configuration error, caught before any thread spawns.
TEST(Async, RejectsNonPlacementBalancer) {
  RunConfig cfg = async_config(0, matrix::Events::kNone);
  cfg.lb.strategy = "rcb";  // bounds-only: no placement support
  EXPECT_THROW(run_async(cfg), std::invalid_argument);
}

// Overlap proof: with a registry attached, compute-phase deliveries
// land in async/overlap_deliveries — arrivals drained *while other VPs
// of the same rank were still stepping*.
TEST(Async, RecordsOverlapTelemetry) {
  picprk::obs::Registry registry;
  RunConfig cfg = async_config(1, matrix::Events::kNone);
  cfg.obs.registry = &registry;
  const DriverResult r = run_async(cfg);
  ASSERT_TRUE(r.ok);
  std::uint64_t overlap = 0, drain = 0;
  for (const auto& c : registry.counters()) {
    if (c.name == "async/overlap_deliveries") overlap = c.value;
    if (c.name == "async/drain_deliveries") drain = c.value;
  }
  // Every remote arrival is accounted to exactly one of the two paths.
  EXPECT_GT(overlap + drain, 0u);
}

// Step termination costs one round of count envelopes per step, whatever
// the traffic: async/token_rounds counts exactly one per step.
TEST(Async, OneTerminationRoundPerStep) {
  picprk::obs::Registry registry;
  RunConfig cfg = async_config(1, matrix::Events::kNone);
  cfg.obs.registry = &registry;
  const DriverResult r = run_async(cfg);
  ASSERT_TRUE(r.ok);
  std::uint64_t rounds = 0;
  for (const auto& c : registry.counters()) {
    if (c.name == "async/token_rounds") rounds = c.value;
  }
  EXPECT_EQ(rounds, cfg.steps);
}

}  // namespace
