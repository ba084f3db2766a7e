#include "core/assignment.h"

#include <algorithm>
#include <map>
#include <utility>

namespace netclust::core {
namespace {

using Match = bgp::PrefixTable::Match;
using FlatMatch = bgp::PrefixTable::Flat::Match;

// The two tables answer alike; a trie match is its own payload, a
// directory match points at it.
const Match& Payload(const Match& match) { return match; }
const Match& Payload(const FlatMatch& match) { return *match.value; }

}  // namespace

template <class Table>
std::uint32_t AssignmentState<Table>::ClusterFor(const net::Prefix& prefix,
                                                 bool from_dump) {
  const auto [it, inserted] = cluster_index_.emplace(
      prefix, static_cast<std::uint32_t>(clusters_.size()));
  if (inserted) {
    StreamCluster cluster;
    cluster.key = prefix;
    cluster.from_dump = from_dump;
    cluster.live = true;
    ++live_clusters_;
    clusters_.push_back(std::move(cluster));
  } else if (!clusters_[it->second].live) {
    // A previously withdrawn key re-announced: revive it.
    clusters_[it->second].live = true;
    clusters_[it->second].from_dump = from_dump;
    ++live_clusters_;
  }
  return it->second;
}

template <class Table>
void AssignmentState<Table>::Detach(net::IpAddress client,
                                    ClientState& state) {
  if (state.cluster == kUnclustered) {
    unclustered_.erase(client);
    return;
  }
  StreamCluster& cluster = clusters_[state.cluster];
  cluster.members.erase(client);
  cluster.requests -= state.requests;
  cluster.bytes -= state.bytes;
  // An emptied-but-live cluster keeps its registration: its prefix is
  // still in the table and may refill.
  state.cluster = kUnclustered;
}

template <class Table>
void AssignmentState<Table>::Attach(net::IpAddress client, ClientState& state,
                                    std::uint32_t target) {
  state.cluster = target;
  if (target == kUnclustered) {
    unclustered_.insert(client);
    return;
  }
  StreamCluster& cluster = clusters_[target];
  cluster.members.insert(client);
  cluster.requests += state.requests;
  cluster.bytes += state.bytes;
}

template <class Table>
std::uint32_t AssignmentState<Table>::Resolve(net::IpAddress client,
                                              const Table& table) {
  const auto match = table.LongestMatch(client);
  if (!match.has_value()) return kUnclustered;
  return ClusterFor(match->prefix, Payload(*match).kind ==
                                       bgp::SourceKind::kNetworkDump);
}

template <class Table>
bool AssignmentState<Table>::Reassign(net::IpAddress client,
                                      const Table& table) {
  ClientState& state = clients_.at(client);
  const std::uint32_t target = Resolve(client, table);
  if (target == state.cluster) return false;
  Detach(client, state);
  Attach(client, state, target);
  return true;
}

template <class Table>
std::size_t AssignmentState<Table>::OnAnnounced(const net::Prefix& prefix,
                                                const Table& table) {
  // Only clients inside `prefix` whose current match is an ancestor (or
  // nothing) can move. Their clusters are keyed by ancestors of `prefix`,
  // reachable by walking at most 32 parents.
  std::vector<net::IpAddress> affected;
  net::Prefix walk = prefix;
  while (true) {
    const auto it = cluster_index_.find(walk);
    if (it != cluster_index_.end() && clusters_[it->second].live) {
      for (const net::IpAddress member : clusters_[it->second].members) {
        if (prefix.Contains(member)) affected.push_back(member);
      }
    }
    if (walk.length() == 0) break;
    walk = walk.Parent();
  }
  for (const net::IpAddress client : unclustered_) {
    if (prefix.Contains(client)) affected.push_back(client);
  }

  std::size_t moved = 0;
  for (const net::IpAddress client : affected) {
    if (Reassign(client, table)) ++moved;
  }
  return moved;
}

template <class Table>
std::size_t AssignmentState<Table>::OnWithdrawn(const net::Prefix& prefix,
                                                const Table& table) {
  const auto it = cluster_index_.find(prefix);
  if (it == cluster_index_.end()) return 0;
  StreamCluster& cluster = clusters_[it->second];
  if (cluster.live) {
    cluster.live = false;
    --live_clusters_;
  }
  const std::vector<net::IpAddress> members(cluster.members.begin(),
                                            cluster.members.end());
  std::size_t moved = 0;
  for (const net::IpAddress client : members) {
    if (Reassign(client, table)) ++moved;
  }
  return moved;
}

template <class Table>
void AssignmentState<Table>::Observe(net::IpAddress client,
                                     std::uint32_t url_id, std::uint32_t bytes,
                                     const Table& table) {
  ++requests_;
  auto [it, inserted] = clients_.try_emplace(client);
  ClientState& state = it->second;
  if (inserted) Attach(client, state, Resolve(client, table));
  state.requests += 1;
  state.bytes += bytes;
  if (state.cluster != kUnclustered) {
    StreamCluster& cluster = clusters_[state.cluster];
    cluster.requests += 1;
    cluster.bytes += bytes;
    cluster.urls.insert(url_id);
  }
}

template <class Table>
Clustering AssignmentState<Table>::Merge(
    std::string approach, std::string log_name,
    const std::vector<const AssignmentState*>& shards) {
  Clustering out;
  out.approach = std::move(approach);
  out.log_name = std::move(log_name);

  // Clients in canonical (ascending address) order. Shards are disjoint,
  // so no address appears twice.
  std::vector<std::pair<net::IpAddress, const ClientState*>> clients;
  std::size_t total_clients = 0;
  for (const AssignmentState* shard : shards) {
    total_clients += shard->clients_.size();
    out.total_requests += shard->requests_;
  }
  clients.reserve(total_clients);
  for (const AssignmentState* shard : shards) {
    for (const auto& [address, state] : shard->clients_) {
      clients.emplace_back(address, &state);
    }
  }
  std::sort(clients.begin(), clients.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::unordered_map<net::IpAddress, std::uint32_t> client_ids;
  client_ids.reserve(clients.size());
  out.clients.reserve(clients.size());
  for (const auto& [address, state] : clients) {
    const auto id = static_cast<std::uint32_t>(out.clients.size());
    client_ids.emplace(address, id);
    out.clients.push_back(
        ClientStats{address, state->requests, state->bytes});
  }

  // Clusters merged by key, in canonical (ascending key) order. The same
  // prefix may be populated in several shards; tallies sum, URL sets union,
  // and from_dump flags agree whenever the prefix's source kind was stable
  // during the cluster's lifetime (OR resolves the pathological case).
  std::map<net::Prefix, std::vector<const StreamCluster*>> by_key;
  for (const AssignmentState* shard : shards) {
    for (const StreamCluster& cluster : shard->clusters_) {
      if (cluster.members.empty()) continue;
      by_key[cluster.key].push_back(&cluster);
    }
  }
  for (const auto& [key, parts] : by_key) {
    Cluster merged;
    merged.key = key;
    for (const StreamCluster* part : parts) {
      merged.from_network_dump |= part->from_dump;
      merged.requests += part->requests;
      merged.bytes += part->bytes;
      for (const net::IpAddress member : part->members) {
        merged.members.push_back(client_ids.at(member));
      }
    }
    if (parts.size() == 1) {
      merged.unique_urls = parts.front()->urls.size();
    } else {
      std::unordered_set<std::uint32_t> urls;
      for (const StreamCluster* part : parts) {
        urls.insert(part->urls.begin(), part->urls.end());
      }
      merged.unique_urls = urls.size();
    }
    std::sort(merged.members.begin(), merged.members.end());
    out.clusters.push_back(std::move(merged));
  }

  for (const AssignmentState* shard : shards) {
    for (const net::IpAddress client : shard->unclustered_) {
      out.unclustered.push_back(client_ids.at(client));
    }
  }
  std::sort(out.unclustered.begin(), out.unclustered.end());
  return out;
}

template class AssignmentState<bgp::PrefixTable>;
template class AssignmentState<bgp::PrefixTable::Flat>;

}  // namespace netclust::core
