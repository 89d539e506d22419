#include <gtest/gtest.h>

#include <set>

#include "pic/events.hpp"
#include "pic/tiling.hpp"
#include "pic/verify.hpp"

namespace {

using picprk::pic::CellRegion;
using picprk::pic::EventSchedule;
using picprk::pic::GridSpec;
using picprk::pic::InitParams;
using picprk::pic::Initializer;
using picprk::pic::InjectionEvent;
using picprk::pic::Particle;
using picprk::pic::RemovalEvent;
using picprk::pic::Uniform;

const CellRegion kWhole{0, 20, 0, 20};

std::uint64_t id_sum(const std::vector<Particle>& particles) {
  std::uint64_t sum = 0;
  for (const auto& p : particles) sum += p.id;
  return sum;
}

Initializer make_init(std::int64_t cells = 20, std::uint64_t n = 1000) {
  InitParams p;
  p.grid = GridSpec(cells, 1.0);
  p.total_particles = n;
  p.distribution = Uniform{};
  return Initializer(p);
}

TEST(Injection, TotalNearRequested) {
  const auto init = make_init();
  EventSchedule events({InjectionEvent{3, CellRegion{5, 15, 5, 15}, 500}}, {});
  const auto total = events.injection_total(init, 0);
  EXPECT_NEAR(static_cast<double>(total), 500.0, 60.0);
}

TEST(Injection, IdsContinueAfterInitialPopulation) {
  const auto init = make_init();
  EventSchedule events({InjectionEvent{3, CellRegion{0, 20, 0, 20}, 100}}, {});
  EXPECT_EQ(events.injection_first_id(init, 0), init.total() + 1);
}

TEST(Injection, SecondEventIdsFollowFirst) {
  const auto init = make_init();
  EventSchedule events({InjectionEvent{3, CellRegion{0, 10, 0, 10}, 100},
                        InjectionEvent{7, CellRegion{10, 20, 0, 10}, 100}},
                       {});
  EXPECT_EQ(events.injection_first_id(init, 1),
            init.total() + 1 + events.injection_total(init, 0));
}

TEST(Injection, BlockDecompositionPartitionsExactly) {
  const auto init = make_init();
  EventSchedule events({InjectionEvent{2, CellRegion{3, 17, 2, 18}, 700}}, {});

  std::vector<Particle> whole;
  events.emplace_injection_block(init, 0, 0, 20, 0, 20, whole);

  std::vector<Particle> pieces;
  for (std::int64_t bx = 0; bx < 2; ++bx) {
    for (std::int64_t by = 0; by < 2; ++by) {
      events.emplace_injection_block(init, 0, bx * 10, (bx + 1) * 10, by * 10,
                                     (by + 1) * 10, pieces);
    }
  }
  ASSERT_EQ(pieces.size(), whole.size());
  std::set<std::uint64_t> whole_ids, piece_ids;
  for (const auto& p : whole) whole_ids.insert(p.id);
  for (const auto& p : pieces) piece_ids.insert(p.id);
  EXPECT_EQ(whole_ids, piece_ids);
}

TEST(Injection, ParticlesLandInsideRegion) {
  const auto init = make_init();
  const CellRegion region{4, 8, 10, 14};
  EventSchedule events({InjectionEvent{1, region, 300}}, {});
  std::vector<Particle> out;
  events.emplace_injection_block(init, 0, 0, 20, 0, 20, out);
  for (const auto& p : out) {
    EXPECT_GE(p.x, 4.0);
    EXPECT_LT(p.x, 8.0);
    EXPECT_GE(p.y, 10.0);
    EXPECT_LT(p.y, 14.0);
    EXPECT_EQ(p.birth, 1u);
  }
}

TEST(Removal, DeterministicPerId) {
  const auto init = make_init();
  EventSchedule events({}, {RemovalEvent{5, CellRegion{0, 20, 0, 20}, 0.5}});
  for (std::uint64_t id = 1; id <= 100; ++id) {
    EXPECT_EQ(events.removes(init, 0, id), events.removes(init, 0, id));
  }
}

TEST(Removal, FractionZeroRemovesNothingFractionOneRemovesAll) {
  const auto init = make_init();
  EventSchedule none({}, {RemovalEvent{0, CellRegion{0, 20, 0, 20}, 0.0}});
  EventSchedule all({}, {RemovalEvent{0, CellRegion{0, 20, 0, 20}, 1.0}});
  auto particles = init.create_all();
  const auto n = particles.size();
  auto copy = particles;
  EXPECT_EQ(none.apply_step(init, 0, kWhole, copy), 0u);
  EXPECT_EQ(copy.size(), n);
  EXPECT_EQ(all.apply_step(init, 0, kWhole, particles),
            picprk::pic::expected_checksum(n));
  EXPECT_TRUE(particles.empty());
}

TEST(Removal, OnlyInsideRegion) {
  const auto init = make_init();
  EventSchedule events({}, {RemovalEvent{0, CellRegion{0, 10, 0, 20}, 1.0}});
  auto particles = init.create_all();
  events.apply_step(init, 0, kWhole, particles);
  for (const auto& p : particles) EXPECT_GE(p.x, 10.0);
}

TEST(Removal, OverlappingEventsCountEachIdOnce) {
  // Two same-step removals over overlapping regions: the second runs on
  // what the first left, so every removed id is reported exactly once
  // and the ledger closes against the surviving population.
  const auto init = make_init();
  EventSchedule events(
      {}, {RemovalEvent{2, kWhole, 0.5}, RemovalEvent{2, CellRegion{5, 20, 0, 20}, 0.5}});
  auto particles = init.create_all();
  const std::uint64_t before = id_sum(particles);
  const std::uint64_t removed = events.apply_step(init, 2, kWhole, particles);
  EXPECT_GT(removed, 0u);
  EXPECT_EQ(removed, before - id_sum(particles));
  EXPECT_EQ(events.expected_checksum(init, removed), id_sum(particles));
}

TEST(ApplyStep, OnlyFiresAtScheduledStep) {
  const auto init = make_init();
  EventSchedule events({InjectionEvent{4, CellRegion{0, 20, 0, 20}, 100}},
                       {RemovalEvent{6, CellRegion{0, 20, 0, 20}, 1.0}});
  auto particles = init.create_all();
  const std::size_t n = particles.size();
  EXPECT_EQ(events.apply_step(init, 3, kWhole, particles), 0u);
  EXPECT_EQ(particles.size(), n);
  EXPECT_EQ(events.apply_step(init, 4, kWhole, particles), 0u);  // injection only
  EXPECT_GT(particles.size(), n);
  const std::size_t grown = particles.size();
  EXPECT_EQ(events.apply_step(init, 5, kWhole, particles), 0u);
  EXPECT_EQ(particles.size(), grown);
  EXPECT_GT(events.apply_step(init, 6, kWhole, particles), 0u);
  EXPECT_EQ(particles.size(), 0u);
}

TEST(ApplyStep, LedgerClosesThroughInjectionAndRemoval) {
  const auto init = make_init();
  EventSchedule events({InjectionEvent{1, CellRegion{0, 10, 0, 20}, 300},
                        InjectionEvent{3, CellRegion{10, 20, 0, 20}, 200}},
                       {RemovalEvent{2, kWhole, 0.3}, RemovalEvent{3, kWhole, 0.3}});
  auto particles = init.create_all();
  std::uint64_t removed = 0;
  for (std::uint32_t step = 0; step < 5; ++step) {
    removed += events.apply_step(init, step, kWhole, particles);
  }
  EXPECT_EQ(events.expected_checksum(init, removed), id_sum(particles));
}

TEST(ApplyStep, SoaOverloadMatchesAosAndDirtiesTiles) {
  const auto init = make_init();
  EventSchedule events({InjectionEvent{1, kWhole, 100}}, {RemovalEvent{1, kWhole, 0.5}});
  auto aos = init.create_all();
  auto soa = picprk::pic::to_soa(aos);
  picprk::pic::TileIndex tiles(kWhole);
  tiles.rebuild(soa, init.params().grid);
  aos = picprk::pic::to_aos(soa);  // same (cell-sorted) order on both sides

  EXPECT_EQ(events.apply_step(init, 0, kWhole, soa, &tiles), 0u);
  EXPECT_TRUE(tiles.fresh()) << "nothing scheduled: the store is untouched";
  const std::uint64_t removed = events.apply_step(init, 1, kWhole, aos);
  EXPECT_EQ(events.apply_step(init, 1, kWhole, soa, &tiles), removed);
  EXPECT_FALSE(tiles.fresh());
  const std::vector<Particle> after = picprk::pic::to_aos(soa);
  ASSERT_EQ(after.size(), aos.size());
  for (std::size_t i = 0; i < aos.size(); ++i) EXPECT_EQ(after[i].id, aos[i].id);
}

TEST(ApplyStep, RemovalDecisionIndependentOfDecomposition) {
  // Remove 50% over a region; applying per block must remove exactly the
  // same ids as applying to the whole domain.
  const auto init = make_init();
  EventSchedule events({}, {RemovalEvent{0, CellRegion{0, 20, 0, 20}, 0.5}});
  auto whole = init.create_all();
  events.apply_step(init, 0, kWhole, whole);
  std::set<std::uint64_t> whole_ids;
  for (const auto& p : whole) whole_ids.insert(p.id);

  std::set<std::uint64_t> piece_ids;
  for (std::int64_t bx = 0; bx < 4; ++bx) {
    auto block = init.create_block(bx * 5, (bx + 1) * 5, 0, 20);
    events.apply_step(init, 0, CellRegion{bx * 5, (bx + 1) * 5, 0, 20}, block);
    for (const auto& p : block) piece_ids.insert(p.id);
  }
  EXPECT_EQ(whole_ids, piece_ids);
}

}  // namespace
