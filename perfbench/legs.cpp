// Workload generation and the end-to-end legs: every engine through
// par::make_engine, and every tenant through one svc::Server.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "obs/registry.hpp"
#include "par/engine.hpp"
#include "pic/events.hpp"
#include "pic/init.hpp"
#include "svc/server.hpp"

namespace perfbench {

namespace pic = picprk::pic;
namespace par = picprk::par;
namespace svc = picprk::svc;
namespace obs = picprk::obs;

namespace {

/// splitmix64: turns (workload seed, kernel index) into unrelated
/// initialisation seeds.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

par::RunConfig kernel(std::int64_t cells, std::uint64_t particles,
                      pic::Distribution dist, std::int32_t k, std::int32_t m,
                      std::uint32_t steps, std::uint64_t seed) {
  par::RunConfig c;
  c.init.grid = pic::GridSpec(cells);
  c.init.total_particles = particles;
  c.init.distribution = std::move(dist);
  c.init.k = k;
  c.init.m = m;
  c.init.seed = seed;
  c.steps = steps;
  c.ranks = kThreads;
  c.workers = kThreads;
  c.overdecomposition = 4;
  c.lb.every = 4;
  return c;
}

void add(std::map<std::string, double>& into, const std::string& key, double v) {
  into[key] += v;
}

double counter_value(const obs::Registry& registry, const char* name) {
  const obs::Counter* c = registry.find_counter(name);
  return c == nullptr ? 0.0 : static_cast<double>(c->value());
}

double gauge_value(const obs::Registry& registry, const char* name) {
  const obs::Gauge* g = registry.find_gauge(name);
  return g == nullptr ? 0.0 : g->value();
}

/// Hands the memory the previous leg freed back to the OS, so that every
/// leg starts from the same resident set and the process's peak RSS is
/// the largest leg's, not an accident of which allocator arena kept what.
void release_free_memory() { malloc_trim(0); }

/// Flags every histogram of `registry` whose top bucket holds
/// observations: those were clamped at the upper edge, so no percentile
/// read from it can be trusted.
void flag_clamped_histograms(const obs::Registry& registry, const std::string& owner,
                             std::vector<std::string>& flags) {
  for (const auto& h : registry.histograms()) {
    if (h.buckets.empty() || h.buckets.back() == 0) continue;
    std::ostringstream os;
    os << owner << ": histogram " << h.name << " holds " << h.buckets.back() << " of "
       << h.count << " observations at its upper edge " << h.hi
       << " (values clamped; read the total instead)";
    flags.push_back(os.str());
  }
}

}  // namespace

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Workload::particle_steps() const {
  double total = 0.0;
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    total += static_cast<double>(particles[k]) * kernels[k].steps;
  }
  return total;
}

double EngineLeg::total_seconds() const {
  return std::accumulate(seconds.begin(), seconds.end(), 0.0);
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  const std::uint64_t base = mix(seed);  // kernel k of a workload seeds from mix(base + k)
  if (name == "drift_cloud") {
    // Large store, slowly growing imbalance, few emigrants per step.
    w.kernels.push_back(kernel(128, 2000000, pic::Geometric{0.99}, 0, 0, 12, mix(base)));
  } else if (name == "patch_hop") {
    // One rank's block of particles, hopping (3, 1) cells per step, with
    // a mid-run injection and removal.
    const std::uint32_t steps = 32;
    par::RunConfig c = kernel(64, 200000, pic::Patch{{0, 32, 0, 32}}, 1, 1, steps, mix(base));
    c.events = pic::EventSchedule(
        {pic::InjectionEvent{steps / 3, pic::CellRegion{0, 32, 32, 64}, 40000}},
        {pic::RemovalEvent{2 * steps / 3, pic::CellRegion{0, 64, 0, 64}, 0.25}});
    w.kernels.push_back(std::move(c));
  } else if (name == "tenant_mix") {
    // Four heterogeneous tenants; the geometric one has weight 2.
    const std::uint32_t steps = 16;
    w.kernels.push_back(kernel(64, 300000, pic::Uniform{}, 0, 0, steps, mix(base)));
    w.kernels.push_back(kernel(128, 600000, pic::Geometric{0.99}, 0, 0, steps, mix(base + 1)));
    w.kernels.push_back(kernel(64, 400000, pic::Sinusoidal{}, 0, 0, steps, mix(base + 2)));
    w.kernels.push_back(
        kernel(64, 200000, pic::Patch{{16, 48, 16, 48}}, 1, 1, steps, mix(base + 3)));
    w.probe_kernel = 1;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (drift_cloud | patch_hop | tenant_mix)");
  }
  static const char* const kTenantNames[] = {"t0", "t1", "t2", "t3"};
  for (std::size_t k = 0; k < w.kernels.size(); ++k) {
    w.particles.push_back(pic::Initializer(w.kernels[k].init).total());
    svc::JobSpec spec;
    spec.name = kTenantNames[k];
    spec.run = w.kernels[k];
    spec.run.workers = 1;
    spec.weight = name == "tenant_mix" && k == 1 ? 2.0 : 1.0;
    w.tenants.push_back(std::move(spec));
  }
  return w;
}

EngineLeg run_engine_leg(const Workload& w, const std::string& engine, bool traced) {
  EngineLeg leg;
  for (std::size_t k = 0; k < w.kernels.size(); ++k) {
    par::RunConfig config = w.kernels[k];
    config.impl = engine;
    obs::Registry registry;
    obs::Trace trace;
    if (traced) {
      config.obs.registry = &registry;
      config.obs.trace = &trace;
      config.sample_every = 1;
    }
    par::DriverResult r;
    release_free_memory();
    const double start = now_seconds();
    try {
      r = par::make_engine(config)->run().result;
    } catch (const std::exception& e) {
      std::cerr << "perfbench: " << engine << " on " << w.name << " kernel " << k
                << " threw: " << e.what() << '\n';
      r.ok = false;
    }
    const double wall = now_seconds() - start;
    leg.seconds.push_back(r.seconds);
    leg.setup += wall - r.seconds;
    leg.outcomes.push_back(Outcome{r.ok, r.final_particles, r.verification.id_checksum});
    if (!traced) continue;

    // Totals only (gauges, counters, DriverResult fields): the phase
    // histograms clamp at their upper edge, so no percentile is read.
    add(leg.layer, "phase_compute_s", gauge_value(registry, "run/phase_compute_seconds"));
    add(leg.layer, "phase_exchange_s", gauge_value(registry, "run/phase_exchange_seconds"));
    add(leg.layer, "phase_lb_s", gauge_value(registry, "run/phase_lb_seconds"));
    add(leg.layer, "exchanged", static_cast<double>(r.particles_exchanged));
    add(leg.layer, "lb_actions", static_cast<double>(r.lb_actions));
    add(leg.layer, "lb_bytes", static_cast<double>(r.lb_bytes));
    add(leg.layer, "steps", config.steps);
    for (const char* name : {"vpr/migrations", "vpr/migrated_bytes", "vpr/cross_worker_bytes",
                             "async/token_rounds", "async/overlap_deliveries",
                             "async/drain_deliveries"}) {
      add(leg.layer, name, counter_value(registry, name));
    }
    const std::vector<double>& series = r.imbalance_series;
    if (!series.empty()) {
      add(leg.layer, "mean_imbalance",
          std::accumulate(series.begin(), series.end(), 0.0) /
              static_cast<double>(series.size()) / static_cast<double>(w.kernels.size()));
    }
    flag_clamped_histograms(registry, engine + " kernel " + std::to_string(k), leg.flags);
  }
  return leg;
}

ServeLeg run_serve_leg(const Workload& w) {
  ServeLeg leg;
  release_free_memory();
  svc::ServerConfig config;
  config.workers = kThreads;
  svc::Server server(config);
  const double start = now_seconds();
  for (const svc::JobSpec& spec : w.tenants) server.submit(spec);
  leg.submit_seconds = now_seconds() - start;

  std::ostringstream sink;  // the per-job report lines; the table is read below
  const double drain_start = now_seconds();
  server.drain(sink);
  leg.drain_seconds = now_seconds() - drain_start;

  std::vector<double> step_seconds;
  for (svc::Job* job : server.table().all()) {
    const svc::JobResult& r = job->result();
    leg.outcomes.push_back(Outcome{job->state() == svc::JobState::kDone && r.ok,
                                   r.final_particles, r.id_checksum});
    leg.tenant_seconds.push_back(job->seconds());
    const double steps = gauge_value(job->registry(), "job/steps");
    if (steps > 0) step_seconds.push_back(gauge_value(job->registry(), "job/seconds") / steps);
    flag_clamped_histograms(job->registry(), "serve tenant " + job->name(), leg.flags);
  }
  leg.layer["cycles"] = server.cycles();
  leg.layer["ws_tasks"] = counter_value(server.registry(), "ws/tasks");
  leg.layer["ws_steals"] = counter_value(server.registry(), "ws/steals");
  leg.layer["job_step_s_p50"] = median(step_seconds);
  flag_clamped_histograms(server.registry(), "serve", leg.flags);
  return leg;
}

}  // namespace perfbench
