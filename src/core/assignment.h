// Table-free incremental client→cluster assignment.
//
// AssignmentState is the reassignment machinery of the streaming clusterer
// (§3.5) factored out from table ownership, so two consumers can share it:
//   * StreamingClusterer — one AssignmentState<PrefixTable>, resolving
//     against its own mutable trie;
//   * engine::ShardWorker — N AssignmentState<PrefixTable::Flat> over
//     disjoint client sets, each resolving against the flat directory of
//     the current RCU-published snapshot.
// The table type is a template parameter so both share one body per
// method; assignment.cc instantiates exactly those two. Every method takes
// the table to resolve against explicitly; the state machine itself only
// tracks memberships and tallies. The two tables resolve every address
// identically (Flat::ResolvesIdentically is property-tested), which is
// what keeps a sharded run bit-identical to the sequential one.
//
// Accounting semantics match StreamingClusterer exactly: per-client
// request/byte tallies move with the client on reassignment; per-cluster
// unique-URL sets do not split (they are a property of the traffic the
// cluster absorbed while it existed).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bgp/prefix_table.h"
#include "core/cluster.h"
#include "net/ip_address.h"
#include "net/prefix.h"

namespace netclust::core {

template <class Table>
class AssignmentState {
 public:
  static constexpr std::uint32_t kUnclustered = 0xFFFFFFFFu;

  /// Feeds one request; a first-seen client is resolved against `table`.
  void Observe(net::IpAddress client, std::uint32_t url_id,
               std::uint32_t bytes, const Table& table);

  /// A prefix newly appeared in `table`: re-resolves exactly the clients it
  /// can affect (members of ancestor-keyed clusters inside it, plus
  /// unclustered clients inside it). Returns the number of clients moved.
  std::size_t OnAnnounced(const net::Prefix& prefix, const Table& table);

  /// A prefix left `table`: its cluster's members re-resolve to the
  /// next-best match (possibly unclustered). Returns the number moved.
  std::size_t OnWithdrawn(const net::Prefix& prefix, const Table& table);

  [[nodiscard]] std::size_t live_cluster_count() const {
    return live_clusters_;
  }
  [[nodiscard]] std::size_t client_count() const { return clients_.size(); }
  [[nodiscard]] std::size_t unclustered_count() const {
    return unclustered_.size();
  }

  /// Materializes one or more states (with pairwise-disjoint client sets —
  /// the engine's shards, or just {this}) as a single batch-compatible
  /// Clustering in *canonical* order: clients ascending by address, clusters
  /// ascending by key, member/unclustered indices ascending. Because the
  /// order is canonical, a sharded run merges bit-identically to a
  /// sequential replay of the same event sequence.
  static Clustering Merge(std::string approach, std::string log_name,
                          const std::vector<const AssignmentState*>& shards);

 private:
  struct ClientState {
    std::uint32_t cluster = kUnclustered;  // index into clusters_
    std::uint64_t requests = 0;
    std::uint64_t bytes = 0;
  };
  struct StreamCluster {
    net::Prefix key;
    bool from_dump = false;
    bool live = false;  // false once withdrawn/emptied
    std::unordered_set<net::IpAddress> members;
    std::uint64_t requests = 0;
    std::uint64_t bytes = 0;
    std::unordered_set<std::uint32_t> urls;
  };

  /// Cluster index for `prefix`, creating an empty live cluster if new.
  std::uint32_t ClusterFor(const net::Prefix& prefix, bool from_dump);

  /// The cluster `client` resolves to in `table` (created or revived on
  /// demand), or kUnclustered when no prefix covers it.
  std::uint32_t Resolve(net::IpAddress client, const Table& table);

  /// Re-resolves one client against `table`, moving its tallies.
  /// Returns true if the assignment changed.
  bool Reassign(net::IpAddress client, const Table& table);

  /// Detaches `client` from its current cluster (if any).
  void Detach(net::IpAddress client, ClientState& state);

  /// Joins `client` to `target` (a cluster index or kUnclustered), adding
  /// its tallies to the cluster's — the inverse of Detach().
  void Attach(net::IpAddress client, ClientState& state,
              std::uint32_t target);

  std::vector<StreamCluster> clusters_;
  std::unordered_map<net::Prefix, std::uint32_t> cluster_index_;
  std::unordered_map<net::IpAddress, ClientState> clients_;
  std::unordered_set<net::IpAddress> unclustered_;
  std::size_t live_clusters_ = 0;
  std::uint64_t requests_ = 0;
};

extern template class AssignmentState<bgp::PrefixTable>;
extern template class AssignmentState<bgp::PrefixTable::Flat>;

}  // namespace netclust::core
