#include "svc/server.hpp"

#include <algorithm>
#include <iostream>
#include <istream>
#include <numeric>
#include <ostream>

#include "obs/sinks.hpp"
#include "util/report.hpp"
#include "util/table.hpp"

namespace picprk::svc {

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      // The pool shares the server registry (ws/tasks, ws/steals land in
      // server.json) but not the trace: pool lanes live at pid 2, which a
      // tenant id would collide with — the server's per-job lanes are the
      // only trace rows.
      pool_(config_.workers < 1 ? 1 : config_.workers,
            obs::Hooks{&registry_, nullptr}),
      table_(config_.queue_capacity),
      scheduler_(config_.scheduler) {
  cycles_counter_ = &registry_.register_counter("svc/cycles");
  steps_counter_ = &registry_.register_counter("svc/job_steps");
  steals_counter_ = &registry_.register_counter("svc/steals");
  rejected_counter_ = &registry_.register_counter("svc/rejected");
}

Job& Server::submit(JobSpec spec) {
  try {
    Job& job = table_.submit(std::move(spec));
    lane_of(job);  // create the tenant's trace lane before any task runs
    return job;
  } catch (const AdmissionError&) {
    rejected_counter_->add(1);
    throw;
  }
}

bool Server::cancel(const std::string& name) {
  Job* job = table_.find(name);
  if (job == nullptr || job->state() != JobState::kRunning) return false;
  job->cancel();
  return true;
}

obs::TraceLane* Server::lane_of(const Job& job) {
  // pid = job id: each tenant renders as its own process row in the
  // trace viewer; tid 0 carries the job's per-cycle quantum spans.
  return &trace_.lane(job.id(), "job " + job.name(), 0, "quanta",
                      /*reserve_events=*/8192);
}

void Server::run_cycle(const std::vector<Job*>& jobs, std::ostream& out) {
  CycleInput in;
  in.cycle = cycle_++;
  in.quantum = config_.quantum;
  in.workers = pool_.workers();
  in.jobs.reserve(jobs.size());
  for (const Job* job : jobs) {
    JobLoad load;
    load.job = job->id();
    load.weight = job->weight();
    load.cost_per_step = config_.measured_cost ? job->cost_per_step() : 0.0;
    load.remaining = job->remaining_steps();
    load.owner = job->owner();
    in.jobs.push_back(load);
  }
  const CyclePlan plan = scheduler_.plan_cycle(in);
  placement_log_.push_back("cycle=" + std::to_string(in.cycle) + " " +
                           plan.to_string());

  for (std::size_t i = 0; i < jobs.size(); ++i) jobs[i]->set_owner(plan.owners[i]);

  // A plan that gives every tenant its own worker leaves nobody waiting
  // for one: each tenant then runs quantum after quantum, each granted
  // by the fair-share rule and counted as one Job cycle, until its run
  // ends, and reports from its worker the moment it does.
  std::vector<int> owners = plan.owners;
  std::sort(owners.begin(), owners.end());
  const bool dedicated =
      std::adjacent_find(owners.begin(), owners.end()) == owners.end();

  // One pool task per tenant; the plan's owners are the initial deal.
  // Each task touches exactly one job, so tasks share nothing (their
  // reports go through the report mutex).
  std::vector<std::uint64_t> granted(jobs.size(), 0);
  const ws::PoolStats stats = pool_.run_placed(
      jobs.size(), std::span<const int>(plan.owners),
      [&](std::size_t t, int /*worker*/) {
        Job& job = *jobs[t];
        std::uint32_t steps = plan.steps[t];
        for (;;) {
          {
            obs::Phase phase(obs::kPhaseStep, nullptr, lane_of(job), nullptr);
            job.advance(steps);
          }
          granted[t] += steps;
          if (!dedicated || job.state() != JobState::kRunning) break;
          steps = Scheduler::grant(config_.quantum, job.weight(), job.remaining_steps());
        }
        if (dedicated) report(job, out);
      },
      config_.allow_steal);

  cycles_counter_->add(1);
  steps_counter_->add(std::accumulate(granted.begin(), granted.end(), std::uint64_t{0}));
  steals_counter_->add(stats.steals);
}

void Server::finish_job(Job& job, std::ostream& out) {
  const JobResult& r = job.result();
  const char* status = job.state() == JobState::kDone
                           ? (r.ok ? "pass" : "fail")
                           : (job.state() == JobState::kCancelled ? "cancelled"
                                                                  : "fail");
  if (job.state() == JobState::kDone) {
    out << "svc: job " << job.name() << (r.ok ? " VERIFIED" : " VERIFICATION FAILED")
        << " — " << r.final_particles << " particles, " << job.steps_done()
        << " steps, " << util::Table::fmt(job.seconds(), 3) << " s";
    if (r.recoveries > 0) out << ", " << r.recoveries << " recoveries";
    out << '\n';
    if (!r.ok) all_ok_ = false;
  } else if (job.state() == JobState::kCancelled) {
    out << "svc: job " << job.name() << " CANCELLED after " << job.steps_done()
        << " steps\n";
  } else {
    out << "svc: job " << job.name() << " FAILED — " << job.failure() << '\n';
    all_ok_ = false;
  }
  out << util::ResultLine("serve")
             .add("job", job.name())
             .add("status", status)
             .add("particles", r.final_particles)
             .add("seconds", job.seconds())
             .add("checksum", r.id_checksum)
             .add("expected", r.expected_checksum)
             .add("steps", static_cast<std::uint64_t>(job.steps_done()))
             .add("cycles", static_cast<std::uint64_t>(job.cycles()))
             .add("recoveries", static_cast<std::uint64_t>(r.recoveries))
             .str()
      << '\n';

  if (!config_.metrics_dir.empty()) {
    const std::string path =
        config_.metrics_dir + "/job-" + job.name() + ".json";
    if (!obs::write_metrics_json(path, "picprk-serve", job.config_json(),
                                 job.registry(), job.samples())) {
      std::cerr << "svc: cannot write metrics to " << path << '\n';
    }
  }
}

void Server::report(Job& job, std::ostream& out) {
  if (job.state() == JobState::kRunning) return;
  util::LockGuard lock(report_mutex_);
  if (std::find(reported_.begin(), reported_.end(), job.id()) != reported_.end()) {
    return;
  }
  reported_.push_back(job.id());
  finish_job(job, out);
}

void Server::report_finished(std::ostream& out) {
  for (Job* job : table_.all()) report(*job, out);
}

void Server::drain(std::ostream& out) {
  for (;;) {
    const std::vector<Job*> jobs = table_.active();
    if (jobs.empty()) break;
    run_cycle(jobs, out);
    report_finished(out);  // tenants report the moment they finish
  }
  report_finished(out);  // cancelled-before-any-cycle jobs

  // Aggregate server summary: one row per tenant ever admitted.
  util::Table table({"job", "status", "steps", "cycles", "particles", "seconds",
                     "ms/step", "recoveries", "migrations"});
  double total_seconds = 0.0;
  std::uint64_t total_steps = 0;
  for (Job* job : table_.all()) {
    const JobResult& r = job->result();
    table.add_row({job->name(),
                   job->state() == JobState::kDone
                       ? (r.ok ? "pass" : "fail")
                       : to_string(job->state()),
                   std::to_string(job->steps_done()), std::to_string(job->cycles()),
                   std::to_string(r.final_particles),
                   util::Table::fmt(job->seconds(), 3),
                   util::Table::fmt(job->cost_per_step() * 1e3, 3),
                   std::to_string(r.recoveries), std::to_string(r.migrations)});
    total_seconds += job->seconds();
    total_steps += job->steps_done();
  }
  table.print(out);
  out << "svc: drained " << table_.all().size() << " jobs in " << cycle_
      << " cycles — " << total_steps << " job-steps, "
      << util::Table::fmt(total_seconds, 3) << " job-seconds, "
      << steals_counter_->value() << " steals\n";

  if (!config_.trace_path.empty() && !trace_.write_json(config_.trace_path)) {
    std::cerr << "svc: cannot write trace to " << config_.trace_path << '\n';
  }
  if (!config_.metrics_dir.empty()) {
    util::JsonObject config;
    config.add("workers", static_cast<std::int64_t>(pool_.workers()));
    config.add("scheduler", scheduler_.spec());
    config.add("quantum", static_cast<std::int64_t>(config_.quantum));
    config.add("queue_capacity",
               static_cast<std::uint64_t>(table_.capacity()));
    const std::string path = config_.metrics_dir + "/server.json";
    if (!obs::write_metrics_json(path, "picprk-serve", config, registry_, {})) {
      std::cerr << "svc: cannot write metrics to " << path << '\n';
    }
  }
}

int Server::run_commands(std::istream& in, std::ostream& out) {
  std::string line;
  bool drained = false;
  while (std::getline(in, line)) {
    std::optional<Command> cmd;
    try {
      cmd = parse_command(line);
    } catch (const std::exception& e) {
      std::cerr << "svc: " << e.what() << '\n';
      return 2;
    }
    if (!cmd) continue;
    drained = false;
    switch (cmd->kind) {
      case Command::Kind::kSubmit:
        try {
          Job& job = submit(std::move(cmd->spec));
          out << "svc: admitted job " << job.name() << " (id " << job.id()
              << ", " << job.spec().run.init.total_particles << " particles, "
              << job.spec().run.steps << " steps)\n";
        } catch (const AdmissionError& e) {
          // Loud backpressure: the rejection is part of the protocol,
          // not a server failure.
          std::cerr << e.what() << '\n';
          out << util::ResultLine("serve")
                     .add("job", e.job())
                     .add("status", "rejected")
                     .str()
              << '\n';
        } catch (const std::exception& e) {
          std::cerr << "svc: " << e.what() << '\n';
          return 2;
        }
        break;
      case Command::Kind::kCancel:
        if (!cancel(cmd->target)) {
          std::cerr << "svc: no running job named '" << cmd->target << "'\n";
        }
        break;
      case Command::Kind::kDrain:
        drain(out);
        drained = true;
        break;
    }
  }
  if (!drained) drain(out);  // EOF implies a final drain
  util::LockGuard lock(report_mutex_);
  return all_ok_ ? 0 : 1;
}

}  // namespace picprk::svc
