// Pluggable transport subsystem (DESIGN.md §14).
//
// A Transport is the backend behind the fabric API. It owns the two planes a
// disaggregated deployment needs:
//
//   control plane — the connection manager: node directory, memory
//     registration (rkeys), fence epochs and rkey revocation, reachability
//     administration. Real deployments run this over an out-of-band TCP RPC
//     before switching to one-sided verbs; here it is an in-process interface
//     either way.
//
//   data plane — doorbell-batched one-sided work requests. A QueuePair opens
//     one TransportChannel (its "connection") and executes each doorbell ring
//     through it: all WRs of one ring share one network round trip, exactly
//     the batching contract the paper's cost accounting relies on.
//
// Three backends:
//   kSim   — the deterministic simulator (default). Executes data movement
//            in-process and returns zero measured time; the QueuePair then
//            charges the NicModel cost, so behaviour, QpStats, and same-seed
//            wall-free traces stay byte-identical to the pre-transport code.
//            FaultPlans evaluate per-WR inside ExecuteWr; backoff is
//            SimClock-charged.
//   kTcp   — real sockets: a memory-node server thread owns the registered
//            regions and executes ring frames received over loopback TCP.
//            Every payload byte crosses the socket; one ring = one
//            send+recv = one real round trip. Errors surface as real
//            errno-derived WcStatus (kRemoteUnreachable / kTimeout).
//   kVerbs — libibverbs loopback RC queue pairs, compiled in when
//            <infiniband/verbs.h> is available; falls back to kTcp at
//            runtime when no RDMA device is present.
//
// Real backends are wrapped by the ChaosTransport decorator
// (src/rdma/chaos_transport.h) inside Fabric, so the same seeded FaultPlans
// the simulator honours also fire on real sockets (DESIGN.md §15).
//
// Selection: DhnswConfig::transport, or the DHNSW_TRANSPORT environment
// variable ("sim" | "tcp" | "verbs") when the config leaves the kind unset.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "rdma/memory_region.h"
#include "rdma/rdma_types.h"

namespace dhnsw::rdma {

class FaultInjector;

enum class TransportKind : uint8_t { kSim = 0, kTcp = 1, kVerbs = 2 };

std::string_view TransportKindName(TransportKind kind) noexcept;
Result<TransportKind> ParseTransportKind(std::string_view name);

struct TransportOptions {
  /// Backend to use. Unset = resolve from the DHNSW_TRANSPORT environment
  /// variable, defaulting to the simulator when that is unset/invalid.
  std::optional<TransportKind> kind;
  /// TCP backend: server listen port. 0 (default) binds an ephemeral
  /// loopback port, so parallel test processes never collide.
  uint16_t tcp_port = 0;
  /// TCP backend: per-ring receive timeout. A response that does not arrive
  /// in time completes every WR of the ring with kTimeout (the real-world
  /// analogue of a lost response). 0 = block forever.
  uint32_t tcp_recv_timeout_ms = 10'000;
  /// TCP backend: connection-establishment deadline. Non-blocking connect +
  /// poll; a black-holed address surfaces kRemoteUnreachable after this long
  /// instead of hanging the compute thread on a blocking connect(). 0 = OS
  /// default (minutes — do not use in tests).
  uint32_t tcp_connect_timeout_ms = 2'000;
  /// TCP backend: jittered exponential backoff between client reconnect
  /// attempts after a disconnect or connect failure. The first retry waits
  /// ~initial (±50% deterministic jitter), doubling up to max; the counter
  /// resets on any successful round trip.
  uint64_t tcp_reconnect_initial_backoff_ns = 1'000'000;     // 1 ms
  uint64_t tcp_reconnect_max_backoff_ns = 100'000'000;       // 100 ms

  /// The kind this options struct resolves to (env override applied).
  TransportKind Resolve() const;

  static TransportOptions Sim() {
    TransportOptions o;
    o.kind = TransportKind::kSim;
    return o;
  }
  static TransportOptions Tcp() {
    TransportOptions o;
    o.kind = TransportKind::kTcp;
    return o;
  }
};

/// Per-ring fault context: the owning QueuePair's armed fault injector and
/// where fault hits are counted. On sim the injector is evaluated per-WR
/// inside LocalTransport::ExecuteWr (byte-identical legacy path). On real
/// backends the ChaosTransport decorator consumes it client-side before WRs
/// reach the wire; the inner channel always sees a null injector.
struct RingFaultContext {
  FaultInjector* injector = nullptr;
  uint64_t* injected_faults = nullptr;
};

/// One queue pair's connection to the transport's data plane. Not thread-safe:
/// like the QueuePair that owns it, a channel executes one ring at a time.
class TransportChannel {
 public:
  virtual ~TransportChannel() = default;

  /// Executes ONE doorbell ring: `wrs` in posted order, one network round
  /// trip. Fills `completions[i]` for `wrs[i]` (same length). Returns the
  /// nanoseconds the ring should be charged:
  ///   sim  — injected fault latency only; the caller adds the NicModel cost
  ///          (keeps the simulated timeline byte-identical);
  ///   real — measured wall time of the round trip; the caller charges it
  ///          as-is (no model on top of real hardware).
  virtual uint64_t ExecuteRing(std::span<const WorkRequest> wrs,
                               std::span<Completion> completions,
                               const RingFaultContext& faults) = 0;

  /// Forcibly severs the channel's connection, if it has one. The next ring
  /// transparently reconnects (with jittered backoff on TCP). No-op for
  /// connectionless backends (sim). Used by the chaos decorator's
  /// kDisconnect fault; safe to call from the channel's owning thread only.
  virtual void Disconnect() {}
};

class Transport {
 public:
  virtual ~Transport() = default;

  virtual TransportKind kind() const noexcept = 0;
  bool is_sim() const noexcept { return kind() == TransportKind::kSim; }
  std::string_view name() const noexcept { return TransportKindName(kind()); }

  /// --- control plane (connection manager) ---
  virtual NodeId AddNode(std::string name) = 0;
  virtual size_t num_nodes() const = 0;
  virtual std::string NodeName(NodeId node) const = 0;
  virtual Result<RKey> RegisterMemory(NodeId node, size_t size, size_t alignment) = 0;
  /// Host-side (memory-node CPU) view of a region, e.g. for provision-time
  /// population and snapshots. Both in-process backends expose the server's
  /// storage directly — the memory node touching its own DRAM.
  virtual MemoryRegion* FindRegion(RKey rkey) = 0;
  virtual const MemoryRegion* FindRegion(RKey rkey) const = 0;
  virtual Result<NodeId> OwnerOf(RKey rkey) const = 0;
  virtual void SetNodeReachable(NodeId node, bool reachable) = 0;
  virtual bool IsNodeReachable(NodeId node) const = 0;
  virtual void SetRegionEpoch(RKey rkey, uint64_t epoch) = 0;
  virtual uint64_t RegionEpoch(RKey rkey) const = 0;
  virtual void RevokeRegion(RKey rkey) = 0;
  virtual bool IsRegionRevoked(RKey rkey) const = 0;
  virtual bool AdmitAccess(RKey rkey, uint64_t expected_epoch) const = 0;

  /// --- data plane ---
  virtual std::unique_ptr<TransportChannel> CreateChannel() = 0;
};

/// Shared control-plane state + one-sided execution semantics for the
/// in-process backends (sim executes directly; the TCP server executes the
/// same logic after the request crossed the socket; verbs reuses the
/// registry for bookkeeping around real MRs). Thread-safe.
class LocalTransport : public Transport {
 public:
  NodeId AddNode(std::string name) override;
  size_t num_nodes() const override;
  std::string NodeName(NodeId node) const override;
  Result<RKey> RegisterMemory(NodeId node, size_t size, size_t alignment) override;
  MemoryRegion* FindRegion(RKey rkey) override;
  const MemoryRegion* FindRegion(RKey rkey) const override;
  Result<NodeId> OwnerOf(RKey rkey) const override;
  void SetNodeReachable(NodeId node, bool reachable) override;
  bool IsNodeReachable(NodeId node) const override;
  void SetRegionEpoch(RKey rkey, uint64_t epoch) override;
  uint64_t RegionEpoch(RKey rkey) const override;
  void RevokeRegion(RKey rkey) override;
  bool IsRegionRevoked(RKey rkey) const override;
  bool AdmitAccess(RKey rkey, uint64_t expected_epoch) const override;

  /// Backend-internal: executes one ring's WRs in posted order against the
  /// local region registry — region lookup, reachability, fence admission,
  /// bounds validation, data movement / atomics, and (when the ring context
  /// carries an injector — the sim path) fault
  /// evaluation. Returns accumulated injected latency ns. This is the single
  /// semantic definition of one-sided execution: the sim channel calls it
  /// directly; the TCP server calls it after the request crossed the socket.
  uint64_t ExecuteRingLocal(std::span<const WorkRequest> wrs,
                            std::span<Completion> completions,
                            const RingFaultContext& faults);

 protected:
  /// One WR of ExecuteRingLocal.
  Completion ExecuteWr(const WorkRequest& wr, const RingFaultContext& faults,
                       uint64_t* extra_ns);

 private:
  struct NodeState {
    std::string name;
    bool reachable = true;
  };
  /// Fence state per region. Absent entry = unfenced, never revoked.
  struct FenceState {
    uint64_t epoch = 0;
    bool revoked = false;
  };

  mutable std::mutex mutex_;
  std::vector<NodeState> nodes_;
  std::unordered_map<RKey, std::pair<NodeId, std::unique_ptr<MemoryRegion>>> regions_;
  std::unordered_map<RKey, FenceState> fences_;
  RKey next_rkey_ = 1;
};

/// Creates the requested backend. kVerbs falls back to kTcp when verbs
/// support is compiled out or no RDMA device initialises; kTcp fails only
/// when the loopback server cannot bind after retries.
Result<std::unique_ptr<Transport>> MakeTransport(const TransportOptions& options = {});

}  // namespace dhnsw::rdma
