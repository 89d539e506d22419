// Shared declarations of the repository benchmark (README.md in this
// directory): the workloads, the end-to-end legs that run them through
// par::make_engine and svc::Server, and the layer probe.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/phase.hpp"
#include "par/run_config.hpp"
#include "svc/spec.hpp"

namespace perfbench {

/// The engines every workload runs, in leg order. The job server is the
/// sixth leg ("serve").
inline const std::vector<std::string> kEngines = {"serial", "baseline", "diffusion",
                                                  "ampi", "async"};

/// Threads any one run may use: 4 ranks, 4 ampi workers, 4 pool workers.
inline constexpr int kThreads = 4;

/// One set of inputs, generated from the seed alone.
struct Workload {
  std::string name;
  /// Kernel instances; an engine leg runs each of them in turn (one for
  /// drift_cloud and patch_hop, one per tenant for tenant_mix).
  std::vector<picprk::par::RunConfig> kernels;
  /// Realised initial particle count of each kernel.
  std::vector<std::uint64_t> particles;
  /// The same kernels as job-server tenants, all submitted to one server.
  std::vector<picprk::svc::JobSpec> tenants;
  /// Which kernel the layer probe replays.
  std::size_t probe_kernel = 0;

  /// Σ particles × steps over the kernels — the work of one leg.
  double particle_steps() const;
};

/// Throws std::invalid_argument for an unknown workload name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// The part of a finished kernel run the cross-check compares.
struct Outcome {
  bool ok = false;  ///< closed-form check (Eqs. 5-6 and the id checksum) passed
  std::uint64_t particles = 0;
  std::uint64_t checksum = 0;
};

/// One engine over all kernels of a workload.
struct EngineLeg {
  std::vector<double> seconds;  ///< RESULT seconds per kernel
  double setup = 0.0;           ///< Σ (make_engine + run() wall - RESULT seconds)
  std::vector<Outcome> outcomes;
  /// Read from the run registries and DriverResults (traced legs only).
  std::map<std::string, double> layer;
  /// Histograms found clamped at their upper edge (traced legs only).
  std::vector<std::string> flags;

  double total_seconds() const;
};

/// Runs `engine` on every kernel. `traced` attaches a fresh obs::Registry
/// and obs::Trace to each run and samples the imbalance every step.
EngineLeg run_engine_leg(const Workload& w, const std::string& engine, bool traced);

/// All tenants of a workload on one svc::Server with kThreads workers.
struct ServeLeg {
  double submit_seconds = 0.0;  ///< time inside Server::submit
  double drain_seconds = 0.0;   ///< wall time of Server::drain
  std::vector<double> tenant_seconds;  ///< each tenant's RESULT seconds
  std::vector<Outcome> outcomes;
  std::map<std::string, double> layer;
  std::vector<std::string> flags;
};

ServeLeg run_serve_leg(const Workload& w);

/// One reported metric, as printed and as named in BENCHMARK.json.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Layer probe (probe.cpp): replays one kernel's rank-owned step loop on
/// a 4-rank world and times the calls into each module.
struct ProbeResult {
  bool ok = false;
  std::string failure;
  std::vector<Metric> metrics;
  /// Mean over all steps of the max over ranks of events + retile +
  /// mover + wait + exchange: the probe's own account of one step.
  double step_seconds = 0.0;
  std::size_t spans = 0;
};

ProbeResult run_probe(const picprk::par::RunConfig& config, picprk::obs::Trace& trace);

/// Times pup_pack/pup_unpack over the kernel's PicVps (ampi's VP shape).
void probe_pup(const picprk::par::RunConfig& config, picprk::obs::Trace& trace,
               ProbeResult& result);

/// Seconds since an arbitrary fixed point (steady clock).
double now_seconds();

double median(std::vector<double> values);

}  // namespace perfbench
