// The cross-job scheduler: jobs as super-VPs. Each cycle it decides
// (1) how many supersteps every tenant gets — weighted fair share:
// steps = quantum × weight, clipped to what the job still needs — and
// (2) which pool worker each tenant's quantum is dealt to, by feeding
// the jobs' measured step costs through the ordinary lb::Strategy
// registry as a placement problem (part = job, load = cost_per_step ×
// granted steps). The strategies are reused unmodified; everything that
// made them assessable for VPs — purity, determinism, the conformance
// suite — carries over to tenants for free.
//
// plan_cycle is PURE: a function of CycleInput alone, no clocks, no
// RNG, no internal mutable state. Two server instances fed identical
// telemetry therefore replay identical placement plans bit for bit —
// the same contract (and the same lint rule) the lb layer already
// enforces for VP placement.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lb/strategy.hpp"

namespace picprk::svc {

/// Telemetry of one admissible job at a cycle boundary.
struct JobLoad {
  int job = 0;                  ///< tenant id — the part id of the decision
  double weight = 1.0;          ///< fair-share weight
  double cost_per_step = 0.0;   ///< EWMA measured seconds (0 = unmeasured yet)
  std::uint32_t remaining = 0;  ///< steps the job still needs
  int owner = 0;                ///< worker the job ran on last cycle
};

struct CycleInput {
  std::uint32_t cycle = 0;
  std::uint32_t quantum = 8;  ///< steps granted per cycle at weight 1
  int workers = 1;            ///< shared-pool worker count
  std::vector<JobLoad> jobs;  ///< admission order (deterministic)
};

struct CyclePlan {
  std::vector<std::uint32_t> steps;  ///< granted steps, same order as input
  std::vector<int> owners;           ///< target worker, same order as input
  /// Canonical text form — the unit of the bit-for-bit replay check and
  /// of the server's placement log.
  std::string to_string() const;
};

class Scheduler {
 public:
  /// `strategy_spec` is an lb registry spec ("greedy", "rcb",
  /// "adaptive:inner=rcb", ...). Throws std::invalid_argument for
  /// unknown names and for bounds-only strategies (tenant scheduling is
  /// a placement problem).
  explicit Scheduler(const std::string& strategy_spec);

  const std::string& spec() const { return spec_; }

  /// Pure decide; see the header comment. Input order is preserved.
  CyclePlan plan_cycle(const CycleInput& in) const;

  /// The fair-share grant of one quantum: max(1, round(quantum × weight))
  /// steps, clipped to the `remaining` steps the job still needs.
  static std::uint32_t grant(std::uint32_t quantum, double weight,
                             std::uint32_t remaining);

 private:
  std::string spec_;
  std::unique_ptr<lb::Strategy> strategy_;
};

}  // namespace picprk::svc
