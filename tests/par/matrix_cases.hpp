// The shared parameter space of the engine matrices
// (test_integration_matrix.cpp and test_async.cpp): the five §III-E
// distributions × three population-event schedules at one small size,
// plus the serial reference every engine must reproduce.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <tuple>

#include "par/driver_common.hpp"
#include "pic/simulation.hpp"

namespace matrix {

inline constexpr std::int64_t kCells = 24;
inline constexpr std::uint64_t kParticles = 900;
inline constexpr std::uint32_t kSteps = 32;

inline picprk::pic::Distribution distribution(int kind) {
  switch (kind) {
    case 0: return picprk::pic::Uniform{};
    case 1: return picprk::pic::Geometric{0.85};
    case 2: return picprk::pic::Sinusoidal{};
    case 3: return picprk::pic::Linear{1.0, 1.2};
    default: return picprk::pic::Patch{picprk::pic::CellRegion{2, 14, 6, 20}};
  }
}

inline const char* tag(int kind) {
  switch (kind) {
    case 0: return "uniform";
    case 1: return "geometric";
    case 2: return "sinusoidal";
    case 3: return "linear";
    default: return "patch";
  }
}

/// The population events a matrix case runs.
enum class Events {
  kNone,                 ///< static population
  kOneRemoval,           ///< one injection, then one removal
  kOverlappingRemovals,  ///< one injection, then two same-step removals
                         ///< over overlapping regions
};

/// Prints as the bool this parameter replaced (false = kNone, true =
/// kOneRemoval), so the original cases keep their registered test names.
inline void PrintTo(Events events, std::ostream* os) {
  switch (events) {
    case Events::kNone: *os << "false"; break;
    case Events::kOneRemoval: *os << "true"; break;
    case Events::kOverlappingRemovals: *os << "overlap"; break;
  }
}

inline picprk::pic::EventSchedule schedule(Events events) {
  using picprk::pic::CellRegion;
  using picprk::pic::InjectionEvent;
  using picprk::pic::RemovalEvent;
  const std::uint32_t removal_step = 2 * kSteps / 3;
  const InjectionEvent inject{kSteps / 3, CellRegion{0, kCells / 2, 0, kCells}, 300};
  const RemovalEvent upper_half{removal_step, CellRegion{0, kCells, kCells / 2, kCells},
                                0.4};
  const RemovalEvent whole_grid{removal_step, CellRegion{0, kCells, 0, kCells}, 0.5};
  switch (events) {
    case Events::kNone: return {};
    case Events::kOneRemoval: return picprk::pic::EventSchedule({inject}, {upper_half});
    case Events::kOverlappingRemovals:
      return picprk::pic::EventSchedule({inject}, {whole_grid, upper_half});
  }
  return {};
}

/// distribution kind × event schedule.
using Param = std::tuple<int, Events>;

inline auto cases() {
  return ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                            ::testing::Values(Events::kNone, Events::kOneRemoval,
                                              Events::kOverlappingRemovals));
}

inline std::string case_name(const ::testing::TestParamInfo<Param>& info) {
  static constexpr const char* kSuffix[] = {"_static", "_events", "_overlap"};
  return std::string(tag(std::get<0>(info.param))) +
         kSuffix[static_cast<int>(std::get<1>(info.param))];
}

struct Reference {
  std::uint64_t particles;
  std::uint64_t checksum;
};

/// The serial run of the same problem; it must pass the closed-form check
/// itself.
inline Reference serial_reference(const picprk::par::DriverConfig& cfg) {
  picprk::pic::SimulationConfig scfg;
  scfg.init = cfg.init;
  scfg.steps = cfg.steps;
  scfg.events = cfg.events;
  const auto r = picprk::pic::run_serial(scfg);
  EXPECT_TRUE(r.ok()) << "serial checksum=" << r.verification.id_checksum
                      << " expected=" << r.expected_id_checksum;
  return Reference{r.final_particles, r.verification.id_checksum};
}

}  // namespace matrix
