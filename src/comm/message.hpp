// Message envelope types for threadcomm, the thread-backed message-passing
// runtime that stands in for MPI (see DESIGN.md §2). Messages are value
// copies: rank state is thread-private and all inter-rank data flows
// through these envelopes, exactly as in a distributed-memory MPI program.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace picprk::comm {

/// Wildcard source for recv/probe, like MPI_ANY_SOURCE.
inline constexpr int kAnySource = -1;
/// Wildcard tag for recv/probe, like MPI_ANY_TAG.
inline constexpr int kAnyTag = -0x7FFFFFFF;

// --------------------------------------------------------- tag registry
// Every application-level message tag lives here, in one table, so
// subsystems cannot collide (internal collective tags are negative and
// never conflict). tools/picprk-lint enforces the registry statically:
// a send/recv/probe call site anywhere in src/ must name its tag with a
// k...Tag constant defined in this file, and no other file may define
// one. To add a tag, add a line below with the next free value.

/// Mesh-column/row migration between adjacent ranks (par/diffusion).
inline constexpr int kMeshTag = 1000;
/// Buddy-checkpoint snapshot payloads (par/resilient).
inline constexpr int kCheckpointTag = 1001;
/// Async engine (par/async): step-stamped particle payloads between VPs.
inline constexpr int kAsyncParticlesTag = 3001;
/// Async engine: the Mattern termination-detection token on the rank ring.
inline constexpr int kAsyncTokenTag = 3002;
/// Async engine: rank 0's step-complete announcement.
inline constexpr int kAsyncTermTag = 3003;
/// Async engine: packed VP state moving to a new owner at an LB point.
inline constexpr int kAsyncMigrateTag = 3004;

/// Envelope metadata returned by probe and recv.
struct Status {
  int source = kAnySource;
  int tag = 0;
  std::size_t bytes = 0;
};

// ------------------------------------------------------ envelope flags
// Transport-level markers carried on the wire. Application code never
// sets them; the reliable transport and the fault injector do.

/// Stream-sequenced message of the reliable transport (seq/ack valid).
inline constexpr std::uint8_t kFlagReliable = 0x1;
/// Retransmitted copy (control-plane resend; excluded from the
/// residual-leak tally of World::run).
inline constexpr std::uint8_t kFlagRetransmit = 0x2;
/// Extra copy manufactured by an injected Duplicate fault. Without the
/// reliable transport the copy reaches the mailbox; marking it lets the
/// residual drain distinguish a dedup-window hit from a genuine leak.
inline constexpr std::uint8_t kFlagInjectedDup = 0x4;

/// A delivered message. `context` scopes communicators (Comm::split);
/// user tags are non-negative, internal collective tags are negative.
/// `seq`/`ack` belong to the reliable transport: per-(source, dest)
/// stream sequence number and cumulative acknowledgement piggybacked on
/// the reverse direction; both 0 on unreliable worlds.
struct Message {
  int context = 0;
  int source = 0;
  int tag = 0;
  std::uint64_t seq = 0;
  std::uint64_t ack = 0;
  std::uint8_t flags = 0;
  std::vector<std::byte> payload;
};

}  // namespace picprk::comm
