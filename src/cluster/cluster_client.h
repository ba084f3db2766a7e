// Fleet-aware client for a sharded netclustd cluster.
//
// Wraps one server::Client per node and routes by the epoch-stamped
// topology (partitioner.h): BatchLookup scatter/gathers CLUSTER_LOOKUPs
// across shards and reassembles records in request order (a single
// lookup is a batch of one), Rank goes to the owning shard, IngestUpdate
// fans out to every node (the replication path — every node carries the
// full table, so a rebalance is a metadata flip, not a data copy).
//
// Self-healing routing: a REDIRECT (stale epoch / wrong owner) or a dead
// connection triggers a topology refresh from any reachable node and a
// re-route, up to max_attempts per call — so a node kill plus rebalance
// in the middle of a run loses no lookups and never returns a wrong
// answer (the fleet integration test asserts bit-identity to a
// single-node oracle across exactly that).
//
// NOT thread-safe: one ClusterClient per thread (the load generator gives
// each worker its own), matching server::Client. That contract is
// compiler-visible: all routing state (topology, owner map, connections,
// scatter/gather bookkeeping) is GUARDED_BY(owner_role_), every private
// routing helper REQUIRES it, and each public entry point asserts it via
// base::AssumeThreadRole — so under Clang's -Wthread-safety a new helper
// cannot touch the topology or connection table without declaring the
// single-owner requirement.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "base/sync.h"
#include "bgp/update.h"
#include "net/ip_address.h"
#include "net/result.h"
#include "server/client.h"
#include "server/proto.h"

namespace netclust::cluster {

struct ClusterClientConfig {
  /// Per-connection I/O deadline (server::Client::Connect).
  int timeout_ms = 5'000;
  /// Routing attempts per operation: each covers one redirect follow or
  /// one reconnect-and-refresh after a dead node.
  int max_attempts = 10;
  /// Pause between attempts that hit a transport failure (a redirect
  /// retries immediately — the new topology is already in hand).
  int retry_backoff_ms = 50;
  /// BUSY retry schedule applied to every per-node connection.
  server::RetryPolicy retry_policy;
};

/// Cluster-wide STATS rollup: summed counters plus latency quantiles from
/// the bucket-wise merge of every node's histogram (exact, not averaged).
struct StatsRollup {
  std::uint64_t epoch = 0;
  std::size_t nodes_reporting = 0;
  std::uint64_t frames_decoded = 0;
  std::uint64_t lookups_served = 0;
  std::uint64_t cluster_lookups_served = 0;
  std::uint64_t ingests_applied = 0;
  std::uint64_t busy_replies = 0;
  std::uint64_t errors_sent = 0;
  std::uint64_t redirects_sent = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t latency_sum_ns = 0;
  std::uint64_t latency_count = 0;
  std::uint64_t latency_p50_ns = 0;
  std::uint64_t latency_p99_ns = 0;
  std::array<std::uint64_t, server::kStatsLatencyBuckets> latency_buckets{};
  std::vector<server::ClusterStatsRecord> per_node;
};

class ClusterClient {
 public:
  /// `initial` must be valid (ValidateTopology); connections are opened
  /// lazily on first use of each node.
  [[nodiscard]] static Result<ClusterClient> Create(
      server::Topology initial, ClusterClientConfig config = {});

  /// Longest-prefix match for one address: a BatchLookup of one.
  [[nodiscard]] Result<server::LookupRecord> Lookup(net::IpAddress address);

  /// Scatter/gather across shards; records come back in request order and
  /// oversized per-shard groups are split at kMaxBatch transparently.
  [[nodiscard]] Result<std::vector<server::LookupRecord>> BatchLookup(
      const std::vector<net::IpAddress>& addresses);

  /// Replicates one update to EVERY node; fails if any node cannot be
  /// reached (replication is all-or-error so the fleet never diverges
  /// silently). Returns the minimum acked table version.
  [[nodiscard]] Result<std::uint64_t> IngestUpdate(
      std::uint32_t source_id, const bgp::UpdateMessage& update);

  /// CDN server ranking for one address, routed to the owning shard with
  /// the same redirect-following recovery as BatchLookup(). The returned
  /// reply is always a served answer (redirects are resolved internally).
  [[nodiscard]] Result<server::RankReply> Rank(net::IpAddress address);

  /// Cluster-wide stats rollup over every reachable node; fails only when
  /// no node responds.
  [[nodiscard]] Result<StatsRollup> Stats();

  /// Pushes `topo` to every member of the new fleet (and best-effort to
  /// departing members so they redirect stragglers), then adopts it
  /// locally. Fails if any NEW member rejects or cannot be reached.
  [[nodiscard]] Result<bool> PushTopology(const server::Topology& topo);

  /// Rebalance conveniences: partitioner rebalance + PushTopology.
  [[nodiscard]] Result<bool> RemoveNode(std::uint32_t node_id);
  [[nodiscard]] Result<bool> AddNode(const server::NodeInfo& node);

  /// Re-fetches the topology from any reachable node and adopts it when
  /// its epoch is newer than the local one.
  [[nodiscard]] Result<bool> RefreshTopology();

  [[nodiscard]] const server::Topology& topology() const {
    // Single-owner contract: the caller is the owning thread by the class
    // contract above; the assertion makes the guarded read well-typed.
    base::AssumeThreadRole owner(owner_role_);
    return topo_;
  }

  /// Redirects followed + BUSY replies absorbed across all connections
  /// (for load-generator accounting).
  [[nodiscard]] std::uint64_t redirects_followed() const {
    base::AssumeThreadRole owner(owner_role_);
    return redirects_followed_;
  }
  [[nodiscard]] std::uint64_t busy_absorbed() const;

 private:
  ClusterClient() = default;

  /// Adopts a validated topology: recompiles the owner map and drops
  /// connections to nodes that left.
  void Adopt(server::Topology topo) REQUIRES(owner_role_);

  /// The connection for node index `i`, dialing if necessary.
  [[nodiscard]] Result<server::Client*> Conn(std::size_t i)
      REQUIRES(owner_role_);

  /// Routing recovery after a REDIRECT from node index `from_idx`: pull
  /// the newer topology from the redirecting node when it is ahead,
  /// otherwise poll the rest of the fleet.
  void FollowRedirect(const server::RedirectReply& redirect,
                      std::size_t from_idx) REQUIRES(owner_role_);

  /// Routing recovery after a transport failure: back off, then try to
  /// refresh the topology from any reachable node.
  void BackoffAndRefresh() REQUIRES(owner_role_);

  /// Shard index owning `address` under the current topology.
  [[nodiscard]] std::uint16_t OwnerOf(net::IpAddress address) const
      REQUIRES(owner_role_) {
    return owner_[address.bits() >> 16];
  }

  /// The single-owner capability. One static zero-byte role for all
  /// instances: it models "the thread driving THIS ClusterClient", and
  /// because role assertions are scoped per function the shared
  /// declaration loses nothing — what the analysis enforces is that every
  /// path to the guarded members below passes through an entry point that
  /// asserts ownership. (An instance member would delete the move
  /// constructor Create() relies on.)
  static inline const base::ThreadRole owner_role_{};

  server::Topology topo_ GUARDED_BY(owner_role_);
  std::vector<std::uint16_t> owner_ GUARDED_BY(owner_role_);
  /// Parallel to topo_.nodes; !connected() means "dial on next use".
  std::vector<server::Client> conns_ GUARDED_BY(owner_role_);
  ClusterClientConfig config_ GUARDED_BY(owner_role_);
  std::uint64_t redirects_followed_ GUARDED_BY(owner_role_) = 0;
  /// BUSY retries absorbed by connections since closed (survivor counters
  /// live in conns_).
  std::uint64_t busy_absorbed_closed_ GUARDED_BY(owner_role_) = 0;
  /// Round-robin cursor so topology refreshes don't hammer node 0.
  std::size_t refresh_cursor_ GUARDED_BY(owner_role_) = 0;
};

}  // namespace netclust::cluster
