// The Engine facade: make_engine must cover every driver behind one
// interface, and RunReport must render the one RESULT grammar every
// entry point shares. These tests pin the key set per impl so a drive-by
// change to the line format breaks here, not in a CI grep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "ft/fault.hpp"
#include "par/engine.hpp"
#include "pic/events.hpp"
#include "pic/init.hpp"

namespace {

using picprk::par::Engine;
using picprk::par::RunConfig;
using picprk::par::RunReport;
using picprk::par::engine_names;
using picprk::par::make_engine;

RunConfig small_config(const std::string& impl) {
  RunConfig cfg;
  cfg.impl = impl;
  cfg.init.grid = picprk::pic::GridSpec(24, 1.0);
  cfg.init.total_particles = 600;
  cfg.init.distribution = picprk::pic::Geometric{0.9};
  cfg.steps = 12;
  cfg.ranks = 2;
  cfg.workers = 2;
  cfg.overdecomposition = 2;
  cfg.lb.every = 4;
  if (impl == "async") cfg.lb.strategy = "steal";
  return cfg;
}

bool has_key(const std::string& line, const std::string& key) {
  return line.find(' ' + key + '=') != std::string::npos;
}

TEST(Engine, NamesCoverEveryDriver) {
  const auto& names = engine_names();
  for (const char* expected :
       {"serial", "baseline", "diffusion", "ampi", "async"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(Engine, UnknownImplThrows) {
  EXPECT_THROW(make_engine(small_config("model")), std::invalid_argument);
  EXPECT_THROW(make_engine(small_config("")), std::invalid_argument);
}

TEST(Engine, InvalidResilienceKnobsThrowAtConstruction) {
  RunConfig cfg = small_config("baseline");
  cfg.resilience.reliable = true;
  cfg.resilience.rto_ms = 0;
  EXPECT_THROW(make_engine(cfg), std::invalid_argument);
}

class EveryEngine : public ::testing::TestWithParam<std::string> {};
INSTANTIATE_TEST_SUITE_P(Impls, EveryEngine,
                         ::testing::ValuesIn(engine_names()),
                         [](const auto& info) { return info.param; });

TEST_P(EveryEngine, RunsAndReportsPass) {
  const std::string impl = GetParam();
  const auto engine = make_engine(small_config(impl));
  EXPECT_EQ(engine->name(), impl);
  const RunReport report = engine->run();
  EXPECT_TRUE(report.result.ok);
  EXPECT_EQ(report.exit_code(), 0);
  EXPECT_FALSE(report.ft_telemetry);

  const std::string line = report.result_line();
  EXPECT_EQ(line.rfind("RESULT impl=" + impl + " ", 0), 0u) << line;
  EXPECT_TRUE(has_key(line, "status")) << line;
  EXPECT_TRUE(has_key(line, "particles")) << line;
  EXPECT_TRUE(has_key(line, "seconds")) << line;
  // The checksum tail belongs to the parallel drivers only.
  EXPECT_EQ(has_key(line, "checksum"), impl != "serial") << line;
  EXPECT_FALSE(has_key(line, "rollbacks")) << line;

  const std::string banner = report.human_summary();
  EXPECT_EQ(banner.rfind(impl + ": VERIFIED", 0), 0u) << banner;
}

TEST(Engine, ResilientRunCarriesFtTelemetry) {
  RunConfig cfg = small_config("baseline");
  cfg.resilience.plan = picprk::ft::FaultPlan::parse("kill:rank=1,step=6", 1);
  cfg.resilience.checkpoint_every = 4;
  cfg.resilience.timeout_ms = 10000;
  const RunReport report = make_engine(cfg)->run();
  EXPECT_TRUE(report.result.ok);
  EXPECT_TRUE(report.ft_telemetry);
  EXPECT_GE(report.ft.recoveries, 1u);
  const std::string line = report.result_line();
  EXPECT_TRUE(has_key(line, "rollbacks")) << line;
  EXPECT_TRUE(has_key(line, "retransmits")) << line;
  EXPECT_TRUE(has_key(line, "dup_dropped")) << line;
}

// ------------------------------------------------------------ golden pin
// Reference RESULT lines recorded from `picprk --impl baseline|serial`
// with ` seconds=<v>` removed. `baseline` (the rank-owned step loop with
// LB off) and `serial` (the tiled SoA store) must reproduce every line
// byte for byte. The flags, for reference:
//   --cells 32 --particles 3000 --steps 24 --k 1 --m 1 --ranks 4 --dist D
//   [--inject-count 600 --inject-step 6 --remove-fraction 0.3 --remove-step 14]
//   [--checkpoint-every N [--recover local] [--faults F]]
// with D one of: uniform; geometric --r 0.9; sinusoidal;
// linear --alpha 1 --beta 3; patch --patch-x0 4 --patch-x1 20
// --patch-y0 8 --patch-y1 26.

const picprk::pic::Distribution kUniform = picprk::pic::Uniform{};
const picprk::pic::Distribution kGeometric = picprk::pic::Geometric{0.9};
const picprk::pic::Distribution kSinusoidal = picprk::pic::Sinusoidal{};
const picprk::pic::Distribution kLinear = picprk::pic::Linear{1.0, 3.0};
const picprk::pic::Distribution kPatch =
    picprk::pic::Patch{picprk::pic::CellRegion{4, 20, 8, 26}};

struct GoldenRun {
  const char* impl;
  picprk::pic::Distribution dist;
  bool events;
  std::uint32_t checkpoint_every;
  bool local_recovery;
  const char* faults;
  const char* result;
};

const GoldenRun kGolden[] = {
    {"baseline", kUniform, false, 0, false, "",
     "RESULT impl=baseline status=pass particles=2994 checksum=4483515 "
     "expected=4483515 exchanged=17122 checkpoints=0 checkpoint_bytes=0 recoveries=0 "
     "localized=0 replayed=0"},
    {"baseline", kUniform, true, 0, false, "",
     "RESULT impl=baseline status=pass particles=2497 checksum=4524404 "
     "expected=4524404 exchanged=17106 checkpoints=0 checkpoint_bytes=0 recoveries=0 "
     "localized=0 replayed=0"},
    {"baseline", kGeometric, false, 0, false, "",
     "RESULT impl=baseline status=pass particles=2980 checksum=4441690 "
     "expected=4441690 exchanged=16485 checkpoints=0 checkpoint_bytes=0 recoveries=0 "
     "localized=0 replayed=0"},
    {"baseline", kGeometric, true, 0, false, "",
     "RESULT impl=baseline status=pass particles=2490 checksum=4499236 "
     "expected=4499236 exchanged=16492 checkpoints=0 checkpoint_bytes=0 recoveries=0 "
     "localized=0 replayed=0"},
    {"baseline", kSinusoidal, false, 0, false, "",
     "RESULT impl=baseline status=pass particles=2964 checksum=4394130 "
     "expected=4394130 exchanged=16962 checkpoints=0 checkpoint_bytes=0 recoveries=0 "
     "localized=0 replayed=0"},
    {"baseline", kSinusoidal, true, 0, false, "",
     "RESULT impl=baseline status=pass particles=2479 checksum=4459853 "
     "expected=4459853 exchanged=16948 checkpoints=0 checkpoint_bytes=0 recoveries=0 "
     "localized=0 replayed=0"},
    {"baseline", kLinear, false, 0, false, "",
     "RESULT impl=baseline status=pass particles=2975 checksum=4426800 "
     "expected=4426800 exchanged=16962 checkpoints=0 checkpoint_bytes=0 recoveries=0 "
     "localized=0 replayed=0"},
    {"baseline", kLinear, true, 0, false, "",
     "RESULT impl=baseline status=pass particles=2487 checksum=4488478 "
     "expected=4488478 exchanged=16956 checkpoints=0 checkpoint_bytes=0 recoveries=0 "
     "localized=0 replayed=0"},
    {"baseline", kPatch, false, 0, false, "",
     "RESULT impl=baseline status=pass particles=2998 checksum=4495501 "
     "expected=4495501 exchanged=17266 checkpoints=0 checkpoint_bytes=0 recoveries=0 "
     "localized=0 replayed=0"},
    {"baseline", kPatch, true, 0, false, "",
     "RESULT impl=baseline status=pass particles=2499 checksum=4531611 "
     "expected=4531611 exchanged=17215 checkpoints=0 checkpoint_bytes=0 recoveries=0 "
     "localized=0 replayed=0"},
    {"serial", kUniform, false, 0, false, "",
     "RESULT impl=serial status=pass particles=2994"},
    {"serial", kUniform, true, 0, false, "",
     "RESULT impl=serial status=pass particles=2497"},
    {"serial", kGeometric, false, 0, false, "",
     "RESULT impl=serial status=pass particles=2980"},
    {"serial", kGeometric, true, 0, false, "",
     "RESULT impl=serial status=pass particles=2490"},
    {"serial", kSinusoidal, false, 0, false, "",
     "RESULT impl=serial status=pass particles=2964"},
    {"serial", kSinusoidal, true, 0, false, "",
     "RESULT impl=serial status=pass particles=2479"},
    {"serial", kLinear, false, 0, false, "",
     "RESULT impl=serial status=pass particles=2975"},
    {"serial", kLinear, true, 0, false, "",
     "RESULT impl=serial status=pass particles=2487"},
    {"serial", kPatch, false, 0, false, "",
     "RESULT impl=serial status=pass particles=2998"},
    {"serial", kPatch, true, 0, false, "",
     "RESULT impl=serial status=pass particles=2499"},
    {"baseline", kGeometric, false, 5, false, "",
     "RESULT impl=baseline status=pass particles=2980 checksum=4441690 "
     "expected=4441690 exchanged=16485 checkpoints=5 checkpoint_bytes=2387040 "
     "recoveries=0 localized=0 replayed=0 rollbacks=0 retransmits=0 dup_dropped=0"},
    {"baseline", kSinusoidal, true, 6, false, "kill:rank=2,step=15",
     "RESULT impl=baseline status=pass particles=2479 checksum=4459853 "
     "expected=4459853 exchanged=16948 checkpoints=2 checkpoint_bytes=969376 "
     "recoveries=1 localized=0 replayed=0 rollbacks=1 retransmits=0 dup_dropped=0"},
    {"baseline", kGeometric, true, 3, true, "",
     "RESULT impl=baseline status=pass particles=2490 checksum=4499236 "
     "expected=4499236 exchanged=16492 checkpoints=24 checkpoint_bytes=11530432 "
     "recoveries=0 localized=0 replayed=0 rollbacks=0 retransmits=0 dup_dropped=0"},
};

RunConfig golden_config(const GoldenRun& run) {
  RunConfig cfg;
  cfg.impl = run.impl;
  cfg.init.grid = picprk::pic::GridSpec(32, 1.0);
  cfg.init.total_particles = 3000;
  cfg.init.k = 1;
  cfg.init.m = 1;
  cfg.init.distribution = run.dist;
  cfg.steps = 24;
  cfg.ranks = 4;
  if (run.events) {
    cfg.events = picprk::pic::EventSchedule(
        {picprk::pic::InjectionEvent{6, picprk::pic::CellRegion{0, 16, 0, 16}, 600}},
        {picprk::pic::RemovalEvent{14, picprk::pic::CellRegion{0, 32, 0, 32}, 0.3}});
  }
  cfg.resilience.plan = picprk::ft::FaultPlan::parse(run.faults, 1);
  cfg.resilience.checkpoint_every = run.checkpoint_every;
  if (run.local_recovery) cfg.resilience.recovery = picprk::par::RecoveryMode::kLocal;
  return cfg;
}

std::string without_seconds(std::string line) {
  const std::size_t at = line.find(" seconds=");
  if (at == std::string::npos) return line;
  return line.erase(at, line.find(' ', at + 1) - at);
}

std::uint64_t key_value(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(' ' + key + '=');
  EXPECT_NE(at, std::string::npos) << key << " in " << line;
  return std::stoull(line.substr(at + key.size() + 2));
}

TEST(Engine, GoldenResultLinesForBaselineAndSerial) {
  for (const GoldenRun& run : kGolden) {
    const std::string expected = run.result;
    SCOPED_TRACE(expected);
    const RunReport report = make_engine(golden_config(run))->run();
    const std::string got = without_seconds(report.result_line());
    if (run.checkpoint_every == 0) {
      EXPECT_EQ(got, expected);
      continue;
    }
    // The recorded checkpoint_bytes exclude the decomposition bounds that
    // every baseline snapshot packs: 3 + 3 int64 on the 2x2 cart, counted
    // once packed and once shipped, per rank per checkpoint round.
    const std::uint64_t bounds_bytes = (3 + 3) * sizeof(std::int64_t);
    const std::uint64_t checkpoints = key_value(expected, "checkpoints");
    const std::uint64_t old_bytes = key_value(expected, "checkpoint_bytes");
    const std::uint64_t new_bytes = old_bytes + checkpoints * 4 * 2 * bounds_bytes;
    std::string rebased = expected;
    const std::string old_kv = "checkpoint_bytes=" + std::to_string(old_bytes);
    rebased.replace(rebased.find(old_kv), old_kv.size(),
                    "checkpoint_bytes=" + std::to_string(new_bytes));
    EXPECT_EQ(got, rebased);
  }
}

// ampi pin, recorded through make_engine (the path `picprk --impl ampi`
// runs) on the same inputs as above plus --workers W --d 3 --lb-every 4:
// every distribution with and without events on 2 and 4 workers, one
// kill with `--recover local`, and one kill rolled back to the last
// checkpoint. The line, the VP migration count (lb_actions) and the
// migrated bytes (lb_bytes) must all reproduce: they fix the placement
// every superstep ran under.
struct AmpiGoldenRun {
  int workers;
  GoldenRun run;
  std::uint64_t lb_actions;
  std::uint64_t lb_bytes;
};

const AmpiGoldenRun kAmpiGolden[] = {
    {2, {"ampi", kUniform, false, 0, false, "",
      "RESULT impl=ampi status=pass particles=2994 checksum=4483515 "
      "expected=4483515 exchanged=23443 checkpoints=0 checkpoint_bytes=0 "
      "recoveries=0 localized=0 replayed=0"},
     8, 327520},
    {2, {"ampi", kUniform, true, 0, false, "",
      "RESULT impl=ampi status=pass particles=2497 checksum=4524404 "
      "expected=4524404 exchanged=23388 checkpoints=0 checkpoint_bytes=0 "
      "recoveries=0 localized=0 replayed=0"},
     14, 637040},
    {2, {"ampi", kGeometric, false, 0, false, "",
      "RESULT impl=ampi status=pass particles=2980 checksum=4441690 "
      "expected=4441690 exchanged=22944 checkpoints=0 checkpoint_bytes=0 "
      "recoveries=0 localized=0 replayed=0"},
     14, 556800},
    {2, {"ampi", kGeometric, true, 0, false, "",
      "RESULT impl=ampi status=pass particles=2490 checksum=4499236 "
      "expected=4499236 exchanged=22982 checkpoints=0 checkpoint_bytes=0 "
      "recoveries=0 localized=0 replayed=0"},
     10, 371168},
    {2, {"ampi", kSinusoidal, false, 0, false, "",
      "RESULT impl=ampi status=pass particles=2964 checksum=4394130 "
      "expected=4394130 exchanged=23203 checkpoints=0 checkpoint_bytes=0 "
      "recoveries=0 localized=0 replayed=0"},
     16, 694080},
    {2, {"ampi", kSinusoidal, true, 0, false, "",
      "RESULT impl=ampi status=pass particles=2479 checksum=4459853 "
      "expected=4459853 exchanged=23181 checkpoints=0 checkpoint_bytes=0 "
      "recoveries=0 localized=0 replayed=0"},
     16, 627392},
    {2, {"ampi", kLinear, false, 0, false, "",
      "RESULT impl=ampi status=pass particles=2975 checksum=4426800 "
      "expected=4426800 exchanged=23256 checkpoints=0 checkpoint_bytes=0 "
      "recoveries=0 localized=0 replayed=0"},
     14, 583936},
    {2, {"ampi", kLinear, true, 0, false, "",
      "RESULT impl=ampi status=pass particles=2487 checksum=4488478 "
      "expected=4488478 exchanged=23212 checkpoints=0 checkpoint_bytes=0 "
      "recoveries=0 localized=0 replayed=0"},
     18, 706736},
    {2, {"ampi", kPatch, false, 0, false, "",
      "RESULT impl=ampi status=pass particles=2998 checksum=4495501 "
      "expected=4495501 exchanged=23760 checkpoints=0 checkpoint_bytes=0 "
      "recoveries=0 localized=0 replayed=0"},
     15, 651000},
    {2, {"ampi", kPatch, true, 0, false, "",
      "RESULT impl=ampi status=pass particles=2499 checksum=4531611 "
      "expected=4531611 exchanged=23643 checkpoints=0 checkpoint_bytes=0 "
      "recoveries=0 localized=0 replayed=0"},
     13, 610024},
    {4, {"ampi", kUniform, false, 0, false, "",
      "RESULT impl=ampi status=pass particles=2994 checksum=4483515 "
      "expected=4483515 exchanged=31148 checkpoints=0 checkpoint_bytes=0 "
      "recoveries=0 localized=0 replayed=0"},
     50, 1043416},
    {4, {"ampi", kUniform, true, 0, false, "",
      "RESULT impl=ampi status=pass particles=2497 checksum=4524404 "
      "expected=4524404 exchanged=31044 checkpoints=0 checkpoint_bytes=0 "
      "recoveries=0 localized=0 replayed=0"},
     49, 1050288},
    {4, {"ampi", kGeometric, false, 0, false, "",
      "RESULT impl=ampi status=pass particles=2980 checksum=4441690 "
      "expected=4441690 exchanged=31009 checkpoints=0 checkpoint_bytes=0 "
      "recoveries=0 localized=0 replayed=0"},
     46, 910376},
    {4, {"ampi", kGeometric, true, 0, false, "",
      "RESULT impl=ampi status=pass particles=2490 checksum=4499236 "
      "expected=4499236 exchanged=30904 checkpoints=0 checkpoint_bytes=0 "
      "recoveries=0 localized=0 replayed=0"},
     47, 953480},
    {4, {"ampi", kSinusoidal, false, 0, false, "",
      "RESULT impl=ampi status=pass particles=2964 checksum=4394130 "
      "expected=4394130 exchanged=30833 checkpoints=0 checkpoint_bytes=0 "
      "recoveries=0 localized=0 replayed=0"},
     39, 786928},
    {4, {"ampi", kSinusoidal, true, 0, false, "",
      "RESULT impl=ampi status=pass particles=2479 checksum=4459853 "
      "expected=4459853 exchanged=30772 checkpoints=0 checkpoint_bytes=0 "
      "recoveries=0 localized=0 replayed=0"},
     45, 951648},
    {4, {"ampi", kLinear, false, 0, false, "",
      "RESULT impl=ampi status=pass particles=2975 checksum=4426800 "
      "expected=4426800 exchanged=30949 checkpoints=0 checkpoint_bytes=0 "
      "recoveries=0 localized=0 replayed=0"},
     44, 900048},
    {4, {"ampi", kLinear, true, 0, false, "",
      "RESULT impl=ampi status=pass particles=2487 checksum=4488478 "
      "expected=4488478 exchanged=30871 checkpoints=0 checkpoint_bytes=0 "
      "recoveries=0 localized=0 replayed=0"},
     38, 767536},
    {4, {"ampi", kPatch, false, 0, false, "",
      "RESULT impl=ampi status=pass particles=2998 checksum=4495501 "
      "expected=4495501 exchanged=31349 checkpoints=0 checkpoint_bytes=0 "
      "recoveries=0 localized=0 replayed=0"},
     42, 896360},
    {4, {"ampi", kPatch, true, 0, false, "",
      "RESULT impl=ampi status=pass particles=2499 checksum=4531611 "
      "expected=4531611 exchanged=31243 checkpoints=0 checkpoint_bytes=0 "
      "recoveries=0 localized=0 replayed=0"},
     41, 849880},
    {4, {"ampi", kGeometric, true, 1, true, "kill:rank=5,step=15",
      "RESULT impl=ampi status=pass particles=2490 checksum=4499236 "
      "expected=4499236 exchanged=30904 checkpoints=25 checkpoint_bytes=12475840 "
      "recoveries=1 localized=1 replayed=0"},
     49, 990448},
    {2, {"ampi", kSinusoidal, true, 6, false, "kill:rank=2,step=15",
      "RESULT impl=ampi status=pass particles=2479 checksum=4459853 "
      "expected=4459853 exchanged=23181 checkpoints=5 checkpoint_bytes=2589120 "
      "recoveries=1 localized=0 replayed=0"},
     16, 627392},
};

TEST(Engine, GoldenResultLinesForAmpi) {
  for (const AmpiGoldenRun& golden : kAmpiGolden) {
    SCOPED_TRACE(golden.run.result);
    RunConfig cfg = golden_config(golden.run);
    cfg.workers = golden.workers;
    cfg.overdecomposition = 3;
    cfg.lb.every = 4;
    const RunReport report = make_engine(cfg)->run();
    EXPECT_EQ(without_seconds(report.result_line()), golden.run.result);
    EXPECT_EQ(report.result.lb_actions, golden.lb_actions);
    EXPECT_EQ(report.result.lb_bytes, golden.lb_bytes);
  }
}

}  // namespace
