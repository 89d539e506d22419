// perfbench — the repository benchmark (README.md in this directory).
//
//   perfbench --workload drift_cloud|patch_hop|tenant_mix --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// Dark run (--trace 0): rounds of every engine through par::make_engine
// plus the job server leg, each round on its own inputs drawn from the
// seed, until S seconds are spent (at least kMinRounds); prints the
// end-to-end metrics as medians over rounds.
// Traced run (--trace 1): dark and traced rounds interleaved, then the
// layer probe; prints the per-layer metrics and writes the probe's span
// trace and a report to DIR. Every run is checked against the
// closed-form verification and cross-checked between engines; the last
// stdout line is one JSON object {correct, attempted, failed, metrics}.
// Exit code 0 when every check passed, 1 when one failed, 2 on bad usage.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

constexpr int kMinRounds = 3;
constexpr int kMinTracedRounds = 2;
constexpr int kMaxRounds = 50;
/// The probe's own bound: a layer split whose per-step sum differs from
/// the dark baseline step time by more than this share is marked.
constexpr double kCoverageBound = 0.25;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value after " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return args;
}

/// Starts a new peak-RSS window (Linux: "5" to clear_refs resets VmHWM).
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// Peak resident set in MiB since the last reset_peak_rss(), or over the
/// process lifetime where /proc/self/status has no VmHWM.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

/// Counts attempted/failed runs: each run must pass its own closed-form
/// check and agree with the serial run of the same kernel on final
/// particle count and id checksum.
class CrossCheck {
 public:
  /// Each round runs fresh inputs: forget the previous round's serial runs.
  void start_round() { reference_.clear(); }

  void note(const std::string& leg, std::size_t kernel, const Outcome& o) {
    ++attempted_;
    if (reference_.size() <= kernel) reference_.resize(kernel + 1);
    if (!reference_[kernel].ok && o.ok && leg == "serial") reference_[kernel] = o;
    const Outcome& ref = reference_[kernel];
    const bool agrees = ref.ok && o.particles == ref.particles && o.checksum == ref.checksum;
    if (!o.ok || !agrees) {
      ++failed_;
      std::cerr << "perfbench: FAILED " << leg << " kernel " << kernel
                << (o.ok ? " disagrees with serial" : " failed verification")
                << " (particles " << o.particles << ", checksum " << o.checksum << ")\n";
    }
  }
  void note_probe(const ProbeResult& probe) {
    ++attempted_;
    if (!probe.ok) {
      ++failed_;
      std::cerr << "perfbench: FAILED probe: " << probe.failure << '\n';
    }
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::vector<Outcome> reference_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

std::string format_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string result_json(const CrossCheck& check, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (check.failed() == 0 ? "true" : "false")
     << ", \"attempted\": " << check.attempted() << ", \"failed\": " << check.failed()
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    os << '"' << metrics[i].name << "\": {\"value\": " << format_number(metrics[i].value)
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

void note_leg(CrossCheck& check, const std::string& leg, const std::vector<Outcome>& outcomes) {
  for (std::size_t k = 0; k < outcomes.size(); ++k) check.note(leg, k, outcomes[k]);
}

/// "median (n=N, min A, max B)" of one metric's samples, for the log.
std::string spread_text(const std::vector<double>& v) {
  std::ostringstream os;
  os << "median " << median(v) << " (n=" << v.size() << ", min "
     << *std::min_element(v.begin(), v.end()) << ", max "
     << *std::max_element(v.begin(), v.end()) << ')';
  return os.str();
}

/// The inputs of one round. Every round draws its own inputs from the
/// run's seed, so a run's medians span several draws of the workload
/// (the LB engines' migration counts, and so their cost, vary from draw
/// to draw) and the same seed still gives the same inputs.
Workload round_workload(const Args& args, int round) {
  return make_workload(args.workload, args.seed * kMaxRounds + static_cast<std::uint64_t>(round));
}

std::vector<Metric> dark_run(const Args& args, CrossCheck& check) {
  const double deadline = now_seconds() + args.seconds;
  std::map<std::string, std::vector<double>> mpsteps, setup;
  std::vector<double> tenant_p50, rss;
  for (int round = 0; round < kMaxRounds; ++round) {
    const double round_start = now_seconds();
    const Workload w = round_workload(args, round);
    check.start_round();
    reset_peak_rss();
    for (const std::string& engine : kEngines) {
      const EngineLeg leg = run_engine_leg(w, engine, false);
      note_leg(check, engine, leg.outcomes);
      mpsteps[engine].push_back(w.particle_steps() / leg.total_seconds() / 1e6);
      setup[engine].push_back(leg.setup);
    }
    const ServeLeg serve = run_serve_leg(w);
    note_leg(check, "serve", serve.outcomes);
    mpsteps["serve"].push_back(w.particle_steps() / serve.drain_seconds / 1e6);
    setup["serve"].push_back(serve.submit_seconds);
    tenant_p50.push_back(median(serve.tenant_seconds));
    rss.push_back(peak_rss_mib());
    const double now = now_seconds();
    std::cout << "perfbench: round " << round + 1 << " took " << now - round_start << " s\n";
    if (round + 1 >= kMinRounds && now + (now - round_start) > deadline) break;
  }
  std::vector<Metric> metrics;
  double setup_s = 0.0;  // Σ over legs of each leg's median set-up time
  for (const auto& [leg, samples] : setup) setup_s += median(samples);
  for (const auto& [leg, samples] : mpsteps) {
    std::cout << "perfbench: " << leg << ".mpsteps_per_s " << spread_text(samples) << '\n';
  }
  for (const std::string& engine : kEngines) {
    metrics.push_back({engine + ".mpsteps_per_s", median(mpsteps[engine]), "Mpsteps/s"});
  }
  metrics.push_back({"serve.mpsteps_per_s", median(mpsteps["serve"]), "Mpsteps/s"});
  metrics.push_back({"serve.tenant_s_p50", median(tenant_p50), "s"});
  metrics.push_back({"setup_s", setup_s, "s"});
  metrics.push_back({"peak_rss_mb", median(rss), "MiB"});
  return metrics;
}

std::vector<Metric> traced_run(const Args& args, CrossCheck& check,
                               std::vector<std::string>& flags, std::string& report) {
  const double deadline = now_seconds() + args.seconds;
  std::map<std::string, std::vector<double>> dark, traced;
  std::vector<double> dark_probe_kernel;  // baseline step seconds on the probed kernel
  std::map<std::string, EngineLeg> last;
  ServeLeg serve;
  const Workload first = round_workload(args, 0);
  for (int round = 0; round < kMaxRounds; ++round) {
    const double round_start = now_seconds();
    const Workload w = round_workload(args, round);
    check.start_round();
    for (const std::string& engine : kEngines) {
      const EngineLeg plain = run_engine_leg(w, engine, false);
      note_leg(check, engine, plain.outcomes);
      dark[engine].push_back(plain.total_seconds());
      if (engine == "baseline") {
        dark_probe_kernel.push_back(plain.seconds[w.probe_kernel] /
                                    w.kernels[w.probe_kernel].steps);
      }
      if (engine == "serial") continue;  // the serial engine takes no telemetry hooks
      EngineLeg leg = run_engine_leg(w, engine, true);
      note_leg(check, engine + " traced", leg.outcomes);
      traced[engine].push_back(leg.total_seconds());
      last[engine] = std::move(leg);
    }
    serve = run_serve_leg(w);
    note_leg(check, "serve", serve.outcomes);
    const double now = now_seconds();
    std::cout << "perfbench: traced round " << round + 1 << " took " << now - round_start
              << " s\n";
    if (round + 1 >= kMinTracedRounds && now + (now - round_start) > deadline) break;
  }

  picprk::obs::Trace trace;
  const picprk::par::RunConfig& probed = first.kernels[first.probe_kernel];
  ProbeResult probe = run_probe(probed, trace);
  probe_pup(probed, trace, probe);
  check.note_probe(probe);

  std::vector<Metric> m = probe.metrics;

  for (const char* engine : {"baseline", "diffusion", "ampi", "async"}) {
    const std::string e = engine;
    const std::map<std::string, double>& layer = last[e].layer;
    m.push_back({"par.exchanged." + e, layer.at("exchanged"), "count"});
    m.push_back({"par.phase_compute_s." + e, layer.at("phase_compute_s"), "s"});
    if (e != "ampi") {  // ampi routes inside its VP step: no exchange phase
      m.push_back({"par.phase_exchange_s." + e, layer.at("phase_exchange_s"), "s"});
    }
    if (e != "baseline") {
      m.push_back({"par.phase_lb_s." + e, layer.at("phase_lb_s"), "s"});
      m.push_back({"lb.actions." + e, layer.at("lb_actions"), "count"});
      m.push_back({"lb.bytes." + e, layer.at("lb_bytes"), "bytes"});
    }
    m.push_back({"lb.mean_imbalance." + e, layer.at("mean_imbalance"), "ratio"});
    m.push_back({"obs.overhead_ratio." + e, median(traced[e]) / median(dark[e]), "ratio"});
    flags.insert(flags.end(), last[e].flags.begin(), last[e].flags.end());
  }
  const std::map<std::string, double>& ampi = last["ampi"].layer;
  m.push_back({"vpr.migrations", ampi.at("vpr/migrations"), "count"});
  m.push_back({"vpr.migrated_bytes", ampi.at("vpr/migrated_bytes"), "bytes"});
  m.push_back({"vpr.cross_worker_bytes", ampi.at("vpr/cross_worker_bytes"), "bytes"});
  const std::map<std::string, double>& async = last["async"].layer;
  m.push_back({"async.token_rounds_per_step",
               async.at("async/token_rounds") / async.at("steps"), "count"});
  const double overlap = async.at("async/overlap_deliveries");
  m.push_back({"async.overlap_share",
               overlap / (overlap + async.at("async/drain_deliveries")), "ratio"});
  m.push_back({"svc.cycle_ms", serve.drain_seconds / serve.layer.at("cycles") * 1e3, "ms"});
  m.push_back({"svc.job_step_s_p50", serve.layer.at("job_step_s_p50"), "s"});
  m.push_back({"ws.steal_share", serve.layer.at("ws_steals") / serve.layer.at("ws_tasks"),
               "ratio"});
  flags.insert(flags.end(), serve.flags.begin(), serve.flags.end());

  const double baseline_step = median(dark_probe_kernel);
  const double coverage = probe.step_seconds / baseline_step;
  m.push_back({"par.probe_coverage", coverage, "ratio"});
  std::ostringstream cov;
  cov << "par.probe_coverage = " << coverage << " (probe step " << probe.step_seconds
      << " s vs dark baseline step " << baseline_step << " s)";
  if (std::abs(coverage - 1.0) > kCoverageBound) {
    cov << " MISMATCH: beyond the probe's bound of " << kCoverageBound;
    flags.push_back(cov.str());
  } else {
    cov << " within the probe's bound of " << kCoverageBound;
  }
  std::cout << "perfbench: " << cov.str() << '\n';
  std::cout << "perfbench: probe recorded " << probe.spans << " spans\n";

  if (!args.out_dir.empty()) {
    const std::string stem =
        args.out_dir + "/" + args.workload + "-seed" + std::to_string(args.seed);
    if (!trace.write_json(stem + "-trace.json")) {
      std::cerr << "perfbench: cannot write " << stem << "-trace.json\n";
    }
    report = stem + "-report.json";
  }
  return m;
}

int run(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
  const Workload w = round_workload(args, 0);  // also rejects an unknown name
  std::cout << "perfbench: workload " << w.name << ", seed " << args.seed << ", "
            << w.kernels.size() << " kernel(s), " << w.particle_steps() / 1e6
            << " Mp·steps per leg, telemetry " << (picprk::obs::kEnabled ? "on" : "off")
            << '\n';
  CrossCheck check;
  std::vector<std::string> flags;
  std::string report;
  const std::vector<Metric> metrics =
      args.trace ? traced_run(args, check, flags, report) : dark_run(args, check);
  for (const std::string& flag : flags) std::cout << "perfbench: FLAG " << flag << '\n';
  for (const Metric& m : metrics) {
    std::cout << "perfbench: " << m.name << " = " << format_number(m.value) << ' ' << m.unit
              << '\n';
  }
  const std::string json = result_json(check, metrics);
  if (!report.empty()) {
    std::ofstream out(report);
    out << "{\"result\": " << json << ", \"flags\": [";
    for (std::size_t i = 0; i < flags.size(); ++i) {
      out << (i > 0 ? ", " : "") << '"' << flags[i] << '"';
    }
    out << "]}\n";
  }
  std::cout << json << std::endl;
  return check.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
