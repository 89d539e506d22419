// Queue-driven async execution engine (ROADMAP item 1, diy
// `master.hpp` style). The sync drivers are step-synchronous — compute,
// barrier, exchange, barrier — so one straggler rank stalls the world
// every step. This engine removes both barriers: VPs route emigrant
// particles the moment they cross a subdomain boundary, arrivals are
// drained incrementally *while other VPs are still computing*
// (iexchange-style delivery through vpr::StepInbox), and a step ends on
// each rank by count-based termination instead of a collective: after
// its compute a rank sends every peer one count envelope ("you get k
// step-s particle messages from me"), and its step s is over once it
// holds every peer's envelope and that many step-s messages. Combined
// with the `steal` placement strategy the engine both hides exchange
// latency behind compute and drains the straggler itself; see DESIGN.md
// "Execution models" for when to pick which loop.
//
// Verification is unchanged: the engine must reproduce the closed-form
// trajectory check and the id checksum bit-for-bit on every
// distribution, which pins the delivery rule (a step-s payload reaches
// VP B only after B's own step-s compute — otherwise B would move the
// arriving particles twice).
#pragma once

#include "comm/comm.hpp"
#include "par/driver_common.hpp"
#include "par/run_config.hpp"

namespace picprk::par {

/// Collective form: every rank of `comm` runs the engine; the returned
/// DriverResult is identical on every rank. `config.lb.strategy` must
/// name a placement-capable strategy (default: "steal").
DriverResult run_async(comm::Comm& comm, const RunConfig& config);

/// Standalone form: builds a threadcomm world with `config.ranks` ranks
/// from config.resilience (recv timeout, deadlock window, reliable
/// transport, message-fault injection) and returns the result. Kill /
/// stall faults and checkpointing belong to the sync drivers' recovery
/// ladder and are rejected with std::invalid_argument.
DriverResult run_async(const RunConfig& config);

}  // namespace picprk::par
