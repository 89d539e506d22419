// Multi-tenant scaling of the job server (docs/SERVICE.md): the same
// heterogeneous job mix run at 1/2/4/8 concurrent tenants on one shared
// pool, reporting aggregate throughput (particle-steps/s across all
// tenants) and the per-job p99 superstep latency from each tenant's own
// svc/step_seconds histogram. The claim under test: co-scheduling N
// kernels onto the shared pool recovers most of the throughput N
// isolated runs would get from the same cores — consolidation costs
// scheduling, not capacity.
//
// --smoke asserts the 4-tenant aggregate ≥ 0.7 × (sum of 4 isolated
// runs), scaled by the machine's actual parallelism: with P usable
// cores, 4 tenants can at best run 4/min(P,4)× slower than 4 isolated
// sequential runs, so the gate compares against sum × min(P,4)/4.
//
// Method: one consolidated run lasts about a tenth of a second at the
// default sizes, and on a shared host single runs swing by 2-3×. So the
// comparison is made kConsolidationReps times, each rep timing the four
// isolated runs and one 4-tenant run back to back, alternating which
// side goes first so host drift lands on both. The gate reads the
// median of the per-rep ratios; their quartiles are printed with it.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "svc/server.hpp"
#include "svc/spec.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace picprk;

constexpr int kConsolidationReps = 11;

/// The rotating heterogeneous mix: tenant i gets mix[i % 4].
std::string job_spec_of(int index, std::int64_t particles, std::int64_t steps) {
  static const char* kDists[] = {
      "dist=uniform",
      "dist=geometric,r=0.95",
      "dist=sinusoidal",
      "dist=patch,patch_x0=0,patch_x1=24,patch_y0=0,patch_y1=24",
  };
  return "t" + std::to_string(index) + ":" + kDists[index % 4] +
         ",particles=" + std::to_string(particles) +
         ",steps=" + std::to_string(steps) +
         ",seed=" + std::to_string(index + 1);
}

struct CaseResult {
  int tenants = 0;
  double seconds = 0.0;
  double throughput = 0.0;  ///< particle-steps per second, all tenants
  double p99_mean = 0.0;    ///< mean over tenants of per-job p99 step seconds
  double p99_max = 0.0;     ///< worst tenant's p99
};

double job_step_p99(const svc::Job& job) {
  for (const auto& h : job.registry().histograms()) {
    if (h.name == "svc/step_seconds") return h.p99;
  }
  return 0.0;
}

/// Runs tenants first, first+1, ... of the rotating mix on one server.
CaseResult run_case(int tenants, int workers, std::uint32_t quantum,
                    std::int64_t particles, std::int64_t steps, int first = 0) {
  svc::ServerConfig config;
  config.workers = workers;
  config.quantum = quantum;
  config.queue_capacity = static_cast<std::size_t>(tenants);
  svc::Server server(config);
  for (int i = first; i < first + tenants; ++i) {
    server.submit(svc::parse_job_spec(job_spec_of(i, particles, steps)));
  }

  std::ostringstream sink;  // per-job reports are not the measurement
  util::Timer timer;
  server.drain(sink);
  CaseResult result;
  result.seconds = timer.elapsed();
  result.tenants = tenants;

  std::uint64_t particle_steps = 0;
  for (const svc::Job* job : server.table().all()) {
    if (job->state() != svc::JobState::kDone || !job->result().ok) {
      std::cerr << "bench_service: job " << job->name() << " did not verify ("
                << svc::to_string(job->state()) << " " << job->failure() << ")\n";
      std::exit(1);
    }
    particle_steps += job->result().final_particles * job->steps_done();
    const double p99 = job_step_p99(*job);
    result.p99_mean += p99;
    result.p99_max = std::max(result.p99_max, p99);
  }
  result.p99_mean /= static_cast<double>(tenants);
  result.throughput =
      result.seconds > 0 ? static_cast<double>(particle_steps) / result.seconds : 0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("bench_service",
                       "job-server throughput and per-tenant p99 vs tenant count");
  args.add_int("workers", 4, "shared-pool worker threads");
  args.add_int("quantum", 8, "supersteps per cycle at weight 1");
  args.add_int("particles", 40000, "particles per tenant");
  args.add_int("steps", 48, "supersteps per tenant");
  args.add_flag("smoke", false, "apply the consolidation gate (CI)");
  args.add_flag("json", false, "also write BENCH_service.json");
  args.add_string("json-path", "BENCH_service.json", "output path for --json");
  if (!args.parse(argc, argv)) return 0;

  const bool smoke = args.get_flag("smoke");
  const int workers = static_cast<int>(args.get_int("workers"));
  const auto quantum = static_cast<std::uint32_t>(args.get_int("quantum"));
  const std::int64_t particles = args.get_int("particles");
  const std::int64_t steps = args.get_int("steps");

  std::cout << "=== svc scaling: shared pool, heterogeneous tenants ===\n"
            << particles << " particles and " << steps << " steps per tenant, "
            << workers << " workers, quantum " << quantum << "\n\n";

  // Warm-up: thread pool + allocator paths.
  run_case(1, workers, quantum, particles / 4, steps);

  const std::vector<int> tenant_counts = {1, 2, 4, 8};
  std::vector<CaseResult> cases;
  for (int tenants : tenant_counts) {
    cases.push_back(run_case(tenants, workers, quantum, particles, steps));
  }

  util::Table table({"tenants", "seconds", "Mpart-steps/s", "p99 ms (mean)",
                     "p99 ms (worst)"});
  for (const CaseResult& r : cases) {
    table.add_row({std::to_string(r.tenants), util::Table::fmt(r.seconds, 3),
                   util::Table::fmt(r.throughput / 1e6, 2),
                   util::Table::fmt(r.p99_mean * 1e3, 3),
                   util::Table::fmt(r.p99_max * 1e3, 3)});
  }
  table.print(std::cout);

  // Consolidation reps. Isolated: each job of the 4-mix run alone on the
  // same server config (the pool is there, but a lone single-runtime
  // tenant can only use one worker at a time — that is precisely what
  // consolidation buys). Consolidated: the 4-mix on one server.
  std::vector<double> isolated_sums;
  std::vector<double> consolidated;
  std::vector<double> ratios;
  for (int rep = 0; rep < kConsolidationReps; ++rep) {
    double isolated = 0.0;
    double four = 0.0;
    const auto run_isolated = [&] {
      for (int i = 0; i < 4; ++i) {
        isolated += run_case(1, workers, quantum, particles, steps, i).throughput;
      }
    };
    const auto run_four = [&] {
      four = run_case(4, workers, quantum, particles, steps).throughput;
    };
    if (rep % 2 == 0) {
      run_isolated();
      run_four();
    } else {
      run_four();
      run_isolated();
    }
    isolated_sums.push_back(isolated);
    consolidated.push_back(four);
    ratios.push_back(isolated > 0 ? four / isolated : 0.0);
  }
  const auto quartiles = [](const std::vector<double>& v, double scale) {
    return util::Table::fmt(util::percentile(v, 50.0) * scale, 2) + " [" +
           util::Table::fmt(util::percentile(v, 25.0) * scale, 2) + ", " +
           util::Table::fmt(util::percentile(v, 75.0) * scale, 2) + "]";
  };
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const double parallelism = static_cast<double>(
      std::min<unsigned>(std::min<unsigned>(hw, static_cast<unsigned>(workers)), 4));
  const double bar = 0.7 * parallelism / 4.0;
  const double ratio = util::percentile(ratios, 50.0);
  std::cout << "\nconsolidation, " << kConsolidationReps
            << " interleaved reps, median [q1, q3]:\n"
            << "  sum of 4 isolated runs: " << quartiles(isolated_sums, 1e-6)
            << " Mpart-steps/s\n"
            << "  4-tenant aggregate:     " << quartiles(consolidated, 1e-6)
            << " Mpart-steps/s\n"
            << "  aggregate / isolated:   " << quartiles(ratios, 1.0) << " vs gate "
            << util::Table::fmt(bar, 2) << " (" << parallelism << " usable cores)\n";

  if (args.get_flag("json")) {
    util::JsonObject config;
    config.add("workers", static_cast<std::int64_t>(workers));
    config.add("quantum", static_cast<std::int64_t>(quantum));
    config.add("particles", particles);
    config.add("steps", steps);
    config.add("smoke", smoke);
    std::vector<util::JsonObject> results;
    for (const CaseResult& r : cases) {
      util::JsonObject o;
      o.add("tenants", static_cast<std::int64_t>(r.tenants));
      o.add("seconds", r.seconds);
      o.add("particle_steps_per_sec", r.throughput);
      o.add("step_seconds_p99_mean", r.p99_mean);
      o.add("step_seconds_p99_max", r.p99_max);
      results.push_back(o);
    }
    util::JsonObject o;
    o.add("tenants", std::string("4x isolated"));
    o.add("particle_steps_per_sec", util::percentile(isolated_sums, 50.0));
    results.push_back(o);
    const std::string path = args.get_string("json-path");
    if (!bench::write_bench_json(path, "service", config, results)) {
      std::cerr << "bench_service: cannot write " << path << '\n';
      return 1;
    }
    std::cout << "wrote " << path << '\n';
  }

  if (smoke && ratio < bar) {
    std::cerr << "bench_service: consolidation gate FAILED — median aggregate/isolated "
              << ratio << " < " << bar << "\n";
    return 1;
  }
  return 0;
}
