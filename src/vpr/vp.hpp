// The virtual processor abstraction of the vpr runtime — the stand-in
// for AMPI's user-level MPI processes (paper §IV-C): the problem is
// over-decomposed into many VPs multiplexed on few workers; the runtime
// measures per-VP load and migrates VPs (via PUP) to rebalance.
//
// Execution model: message-driven supersteps. Each global step the
// runtime calls step() on every VP (which does local work and enqueues
// messages to other VPs through its context), then delivers all messages
// via deliver(). This is the BSP-shaped slice of AMPI that the PIC PRK
// exercises: per-iteration particle exchange between neighbouring
// subdomains with a global step boundary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "vpr/pup.hpp"

namespace picprk::vpr {

/// A message in flight between two VPs.
struct VpMessage {
  int src = 0;
  int dst = 0;
  std::vector<std::byte> payload;
};

/// Per-step interface handed to VirtualProcessor::step.
class VpContext {
 public:
  virtual ~VpContext() = default;

  /// Enqueues a message to another VP; delivered before the next step.
  virtual void send(int dst_vp, std::vector<std::byte> payload) = 0;

  /// Current global step index.
  virtual std::uint32_t step() const = 0;

  /// Total number of VPs.
  virtual int vps() const = 0;

  /// Leading bytes of every send() payload that belong to the transport:
  /// a VP writes its message body after them, so a transport that ships
  /// the payload to another rank stamps its header in place instead of
  /// copying the body into a fresh buffer. The receiver gets the whole
  /// buffer through VirtualProcessor::deliver_at.
  virtual std::size_t header_bytes() const { return 0; }
};

class VirtualProcessor {
 public:
  explicit VirtualProcessor(int id) : id_(id) {}
  virtual ~VirtualProcessor() = default;

  VirtualProcessor(const VirtualProcessor&) = delete;
  VirtualProcessor& operator=(const VirtualProcessor&) = delete;

  int id() const { return id_; }

  /// Local work for one superstep; outgoing messages go through `ctx`.
  virtual void step(VpContext& ctx) = 0;

  /// Receives one message (delivery phase of the superstep).
  virtual void deliver(int src_vp, std::vector<std::byte> payload) = 0;

  /// Receives one message whose body starts `offset` bytes into
  /// `buffer`, after a transport header. The default strips the header
  /// and calls deliver(); a VP that recycles its message buffers
  /// overrides this to keep the whole allocation.
  virtual void deliver_at(int src_vp, std::vector<std::byte> buffer,
                          std::size_t offset) {
    buffer.erase(buffer.begin(), buffer.begin() + static_cast<std::ptrdiff_t>(offset));
    deliver(src_vp, std::move(buffer));
  }

  /// Abstract load of this VP for the balancer (e.g. particle count).
  /// The runtime can be configured to use measured wall time instead.
  virtual double load() const = 0;

  /// Locality hint: ids of VPs this one communicates with (adjacent
  /// subdomains). Consumed by hint-aware balancers (CompactLb); the
  /// default — no hints — reproduces plain AMPI behaviour.
  virtual std::vector<int> neighbor_vps() const { return {}; }

  /// Serializes/deserializes the complete VP state (migration).
  virtual void pup(Pup& p) = 0;

 private:
  int id_;
};

}  // namespace picprk::vpr
