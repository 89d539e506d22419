// Kernel micro-benchmarks (google-benchmark): the per-particle force and
// move kernel in AoS, SoA and OpenMP form, particle routing, the
// closed-form verification, initialisation and PUP serialization.
// These measure the building blocks whose relative costs the perfsim
// machine model abstracts (t_particle, particle_bytes, ...).
#include <benchmark/benchmark.h>

#include <cstring>
#include <functional>
#include <iostream>
#include <string>

#include "bench_json.hpp"
#include "par/decomposition.hpp"
#include "pic/init.hpp"
#include "pic/mover.hpp"
#include "pic/tiling.hpp"
#include "pic/verify.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "vpr/pup.hpp"

namespace {

using namespace picprk;

pic::InitParams bench_params(std::int64_t cells, std::uint64_t n) {
  pic::InitParams p;
  p.grid = pic::GridSpec(cells, 1.0);
  p.total_particles = n;
  p.distribution = pic::Geometric{0.99};
  p.k = 1;
  p.m = 1;
  return p;
}

void BM_MoverAoS(benchmark::State& state) {
  const auto params = bench_params(512, static_cast<std::uint64_t>(state.range(0)));
  const pic::Initializer init(params);
  auto particles = init.create_all();
  const pic::AlternatingColumnCharges charges;
  for (auto _ : state) {
    pic::move_all(std::span<pic::Particle>(particles), params.grid, charges, 1.0);
    benchmark::DoNotOptimize(particles.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(particles.size()));
}
BENCHMARK(BM_MoverAoS)->Arg(10000)->Arg(100000);

void BM_MoverSoA(benchmark::State& state) {
  const auto params = bench_params(512, static_cast<std::uint64_t>(state.range(0)));
  const pic::Initializer init(params);
  auto soa = pic::to_soa(init.create_all());
  const pic::AlternatingColumnCharges charges;
  for (auto _ : state) {
    pic::move_all_soa(soa, params.grid, charges, 1.0);
    benchmark::DoNotOptimize(soa.x.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(soa.size()));
}
BENCHMARK(BM_MoverSoA)->Arg(10000)->Arg(100000);

void BM_MoverSlabCharges(benchmark::State& state) {
  const auto params = bench_params(512, 100000);
  const pic::Initializer init(params);
  auto particles = init.create_all();
  const auto slab = pic::ChargeSlab::sample(pic::AlternatingColumnCharges{}, 0, 0, 513, 513);
  for (auto _ : state) {
    pic::move_all(std::span<pic::Particle>(particles), params.grid, slab, 1.0);
    benchmark::DoNotOptimize(particles.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(particles.size()));
}
BENCHMARK(BM_MoverSlabCharges);

void BM_Verification(benchmark::State& state) {
  const auto params = bench_params(512, 100000);
  const pic::Initializer init(params);
  const auto particles = init.create_all();
  for (auto _ : state) {
    auto r = pic::verify_particles(std::span<const pic::Particle>(particles), params.grid, 0);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(particles.size()));
}
BENCHMARK(BM_Verification);

void BM_OwnerRouting(benchmark::State& state) {
  // The bucketing step of the exchange (without communication).
  const auto params = bench_params(512, 100000);
  const pic::Initializer init(params);
  auto particles = init.create_all();
  const comm::Cart2D cart(16);
  const par::Decomposition2D decomp(params.grid, cart);
  std::vector<int> owners(particles.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < particles.size(); ++i) {
      owners[i] = decomp.owner_of_position(particles[i].x, particles[i].y);
    }
    benchmark::DoNotOptimize(owners.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(particles.size()));
}
BENCHMARK(BM_OwnerRouting);

void BM_Initializer(benchmark::State& state) {
  const auto params = bench_params(static_cast<std::int64_t>(state.range(0)), 100000);
  for (auto _ : state) {
    const pic::Initializer init(params);
    benchmark::DoNotOptimize(init.total());
  }
}
BENCHMARK(BM_Initializer)->Arg(128)->Arg(512);

void BM_CreateParticles(benchmark::State& state) {
  const auto params = bench_params(256, 100000);
  const pic::Initializer init(params);
  for (auto _ : state) {
    auto particles = init.create_all();
    benchmark::DoNotOptimize(particles.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(init.total()));
}
BENCHMARK(BM_CreateParticles);

struct PupState {
  std::vector<pic::Particle> particles;
  std::vector<double> slab;
  void pup(vpr::Pup& p) {
    p(particles);
    p(slab);
  }
};

void BM_PupPackUnpack(benchmark::State& state) {
  const auto params = bench_params(256, static_cast<std::uint64_t>(state.range(0)));
  const pic::Initializer init(params);
  PupState vp{init.create_all(), std::vector<double>(64 * 64, 1.0)};
  for (auto _ : state) {
    auto buffer = vpr::pup_pack(vp);
    PupState out;
    vpr::pup_unpack(out, std::move(buffer));
    benchmark::DoNotOptimize(out.particles.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(vpr::pup_size(vp)));
}
BENCHMARK(BM_PupPackUnpack)->Arg(10000)->Arg(50000);

void BM_SerialStep(benchmark::State& state) {
  // One serial step as run_serial takes it: the tiled mover over the
  // whole domain's SoA store.
  const auto params = bench_params(256, 50000);
  const pic::Initializer init(params);
  pic::ParticleSoA soa = pic::to_soa(init.create_all());
  pic::TileIndex tiles(pic::CellRegion{0, params.grid.cells, 0, params.grid.cells});
  const pic::AlternatingColumnCharges charges;
  for (auto _ : state) {
    pic::move_all_tiled(soa, tiles, params.grid, charges, 1.0);
    benchmark::DoNotOptimize(soa.x.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(soa.size()));
}
BENCHMARK(BM_SerialStep);

// ------------------------------------------------------------- --json
// Hand-timed mover subset with the standard picprk-bench-v1 document
// (google-benchmark's own JSON reporter has a different shape; this one
// matches the other BENCH_*.json emitters, see docs/PERFORMANCE.md).

util::JsonObject time_kernel(const std::string& name, std::size_t particles, int passes,
                             const std::function<void()>& pass) {
  std::vector<double> pass_seconds;
  pass_seconds.reserve(static_cast<std::size_t>(passes));
  for (int i = 0; i < passes; ++i) {
    util::Timer t;
    pass();
    pass_seconds.push_back(t.elapsed());
  }
  double total = 0.0;
  for (double s : pass_seconds) total += s;
  util::JsonObject c;
  c.add("kernel", name);
  c.add("particles", static_cast<std::uint64_t>(particles));
  c.add("passes", static_cast<std::int64_t>(passes));
  c.add("particles_per_sec",
        total > 0 ? static_cast<double>(particles) * passes / total : 0.0);
  c.add("pass_seconds_p50", util::percentile(pass_seconds, 50.0));
  c.add("pass_seconds_p99", util::percentile(pass_seconds, 99.0));
  return c;
}

int run_json_mode(const std::string& path) {
  constexpr std::uint64_t kParticles = 100000;
  constexpr int kPasses = 50;
  const auto params = bench_params(512, kParticles);
  const pic::Initializer init(params);
  const pic::AlternatingColumnCharges charges;
  const auto slab = pic::ChargeSlab::sample(charges, 0, 0, 513, 513);

  auto aos_ref = init.create_all();
  auto aos = init.create_all();
  auto aos_slab = init.create_all();
  auto soa = pic::to_soa(init.create_all());

  std::vector<util::JsonObject> cases;
  cases.push_back(time_kernel("mover_aos_reference", aos_ref.size(), kPasses, [&] {
    pic::reference::move_all(std::span<pic::Particle>(aos_ref), params.grid, charges, 1.0);
  }));
  cases.push_back(time_kernel("mover_aos", aos.size(), kPasses, [&] {
    pic::move_all(std::span<pic::Particle>(aos), params.grid, charges, 1.0);
  }));
  cases.push_back(time_kernel("mover_aos_slab", aos_slab.size(), kPasses, [&] {
    pic::move_all(std::span<pic::Particle>(aos_slab), params.grid, slab, 1.0);
  }));
  cases.push_back(time_kernel("mover_soa", soa.size(), kPasses, [&] {
    pic::move_all_soa(soa, params.grid, charges, 1.0);
  }));

  util::JsonObject config;
  config.add("particles", kParticles);
  config.add("cells", static_cast<std::int64_t>(512));
  config.add("passes", static_cast<std::int64_t>(kPasses));
  if (!bench::write_bench_json(path, "bench_kernels", config, cases)) {
    std::cerr << "failed to write " << path << "\n";
    return 1;
  }
  std::cout << "wrote " << path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // --json diverts to the schema emitter; anything else flows through to
  // google-benchmark (--benchmark_filter etc. keep working).
  bool json = false;
  std::string json_path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strncmp(argv[i], "--json-path=", 12) == 0) {
      json = true;
      json_path = argv[i] + 12;
    }
  }
  if (json) return run_json_mode(json_path);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
