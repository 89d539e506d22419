#include "svc/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "lb/registry.hpp"
#include "util/assert.hpp"

namespace picprk::svc {

std::string CyclePlan::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (i > 0) out += ' ';
    out += "steps=" + std::to_string(steps[i]) +
           ",owner=" + std::to_string(owners[i]);
  }
  return out;
}

Scheduler::Scheduler(const std::string& strategy_spec)
    : spec_(strategy_spec.empty() ? "greedy" : strategy_spec) {
  const lb::Descriptor desc = lb::descriptor_of(lb::parse_spec(spec_).name);
  if (!desc.placement) {
    throw std::invalid_argument(
        "svc: scheduler strategy '" + desc.name +
        "' only rebalances bounds; tenant scheduling needs a "
        "placement-capable strategy (see picprk --balancer list)");
  }
  strategy_ = lb::make_strategy(spec_);
}

std::uint32_t Scheduler::grant(std::uint32_t quantum, double weight,
                               std::uint32_t remaining) {
  const auto share = static_cast<std::uint32_t>(std::max<long long>(
      1, std::llround(static_cast<double>(quantum) * weight)));
  return std::min(share, remaining);
}

CyclePlan Scheduler::plan_cycle(const CycleInput& in) const {
  PICPRK_EXPECTS(in.quantum >= 1);
  PICPRK_EXPECTS(in.workers >= 1);
  CyclePlan plan;
  plan.steps.reserve(in.jobs.size());

  // Weighted fair share: a weight-w tenant advances w× as many steps
  // per cycle as a weight-1 tenant. Every live job gets at least one
  // step (no starvation), and never more than it still needs.
  for (const JobLoad& job : in.jobs) {
    plan.steps.push_back(grant(in.quantum, job.weight, job.remaining));
  }

  // Placement: the jobs are the parts. Load = expected compute this
  // cycle (measured cost × granted steps); an unmeasured job counts its
  // steps alone, so first-cycle placement is uniform-cost and still
  // deterministic.
  lb::PlacementInput input;
  input.metric = lb::LoadMetric::kComputeSeconds;
  input.step = in.cycle;
  input.interval_steps = in.quantum;
  input.workers = in.workers;
  input.parts.reserve(in.jobs.size());
  for (std::size_t i = 0; i < in.jobs.size(); ++i) {
    lb::PartLoad part;
    part.part = in.jobs[i].job;
    const double cost =
        in.jobs[i].cost_per_step > 0.0 ? in.jobs[i].cost_per_step : 1.0;
    part.load = cost * static_cast<double>(plan.steps[i]);
    part.owner = std::min(in.jobs[i].owner, in.workers - 1);
    input.parts.push_back(std::move(part));
  }
  plan.owners = strategy_->rebalance_placement(input);
  PICPRK_ASSERT(plan.owners.size() == in.jobs.size());
  for (int owner : plan.owners) {
    PICPRK_ASSERT_MSG(owner >= 0 && owner < in.workers,
                      "svc scheduler: strategy produced an invalid worker");
  }
  return plan;
}

}  // namespace picprk::svc
