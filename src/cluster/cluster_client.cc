#include "cluster/cluster_client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "cluster/partitioner.h"
#include "engine/metrics.h"

namespace netclust::cluster {

namespace {

/// Quantile bound over a merged wire-format histogram — same contract as
/// server::HistogramQuantileNs, but on the bucket array a rollup sums.
std::uint64_t MergedQuantileNs(
    const std::array<std::uint64_t, server::kStatsLatencyBuckets>& buckets,
    std::uint64_t count, double q) {
  if (count == 0) return 0;
  const auto rank =
      static_cast<std::uint64_t>(q * static_cast<double>(count) + 0.5);
  const std::uint64_t target = rank == 0 ? 1 : rank;
  std::uint64_t cumulative = 0;
  constexpr std::size_t finite = server::kStatsLatencyBuckets - 1;
  for (std::size_t i = 0; i < finite; ++i) {
    cumulative += buckets[i];
    if (cumulative >= target) {
      return engine::LatencyHistogram::BucketBound(i);
    }
  }
  return engine::LatencyHistogram::BucketBound(finite - 1);
}

}  // namespace

Result<ClusterClient> ClusterClient::Create(server::Topology initial,
                                            ClusterClientConfig config) {
  // The creating thread is the owner until the instance is handed to its
  // driving thread (single-owner contract in the header).
  base::AssumeThreadRole owner(owner_role_);
  auto valid = server::ValidateTopology(initial);
  if (!valid.ok()) return Fail(valid.error());
  ClusterClient client;
  client.config_ = config;
  client.Adopt(std::move(initial));
  return client;
}

void ClusterClient::Adopt(server::Topology topo) {
  std::vector<server::Client> conns(topo.nodes.size());
  for (std::size_t i = 0; i < topo.nodes.size(); ++i) {
    const int old_index = server::NodeIndexOf(topo_, topo.nodes[i].id);
    if (old_index >= 0) {
      conns[i] = std::move(conns_[static_cast<std::size_t>(old_index)]);
    }
  }
  // Departed nodes' connections die here; keep their retry accounting.
  for (server::Client& conn : conns_) {
    busy_absorbed_closed_ += conn.busy_absorbed();
  }
  conns_ = std::move(conns);
  owner_ = server::CompileOwners(topo);
  topo_ = std::move(topo);
}

Result<server::Client*> ClusterClient::Conn(std::size_t i) {
  if (!conns_[i].connected()) {
    // A dead connection is replaced wholesale; fold its absorbed-BUSY
    // count into the closed tally first so busy_absorbed() stays exact.
    busy_absorbed_closed_ += conns_[i].busy_absorbed();
    const server::NodeInfo& node = topo_.nodes[i];
    auto dialed = server::Client::Connect(node.host.ToString(), node.port,
                                          config_.timeout_ms);
    if (!dialed.ok()) return Fail(dialed.error());
    conns_[i] = std::move(dialed).value();
    conns_[i].set_retry_policy(config_.retry_policy);
  }
  return &conns_[i];
}

std::uint64_t ClusterClient::busy_absorbed() const {
  base::AssumeThreadRole owner(owner_role_);
  std::uint64_t total = busy_absorbed_closed_;
  for (const server::Client& conn : conns_) total += conn.busy_absorbed();
  return total;
}

Result<bool> ClusterClient::RefreshTopology() {
  base::AssumeThreadRole owner(owner_role_);
  std::string last_error = "fleet is empty";
  for (std::size_t k = 0; k < topo_.nodes.size(); ++k) {
    const std::size_t i = (refresh_cursor_ + k) % topo_.nodes.size();
    auto conn = Conn(i);
    if (!conn.ok()) {
      last_error = conn.error();
      continue;
    }
    auto fetched = conn.value()->FetchTopology();
    if (!fetched.ok()) {
      last_error = fetched.error();
      continue;
    }
    refresh_cursor_ = i + 1;
    if (fetched.value().epoch > topo_.epoch) {
      Adopt(std::move(fetched).value());
      return true;
    }
    return false;  // reachable, but nothing newer than what we hold
  }
  return Fail("no node answered a topology probe: " + last_error);
}

void ClusterClient::FollowRedirect(const server::RedirectReply& redirect,
                                   std::size_t from_idx) {
  ++redirects_followed_;
  if (redirect.epoch > topo_.epoch) {
    // The redirecting node is ahead: it has the topology we need.
    auto conn = Conn(from_idx);
    if (conn.ok()) {
      auto fetched = conn.value()->FetchTopology();
      if (fetched.ok() && fetched.value().epoch > topo_.epoch) {
        Adopt(std::move(fetched).value());
        return;
      }
    }
  }
  // The node is behind us (mid-push straggler) or the fetch raced a
  // close: poll the rest of the fleet after a short pause.
  BackoffAndRefresh();
}

void ClusterClient::BackoffAndRefresh() {
  if (config_.retry_backoff_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config_.retry_backoff_ms));
  }
  (void)RefreshTopology();  // best effort; the caller's loop re-routes
}

Result<server::LookupRecord> ClusterClient::Lookup(net::IpAddress address) {
  auto records = BatchLookup({address});
  if (!records.ok()) return Fail(records.error());
  return records.value().front();
}

Result<std::vector<server::LookupRecord>> ClusterClient::BatchLookup(
    const std::vector<net::IpAddress>& addresses) {
  base::AssumeThreadRole owner(owner_role_);
  std::vector<server::LookupRecord> records(addresses.size());
  if (addresses.empty()) return records;
  std::string last_error;
  for (int attempt = 0; attempt < config_.max_attempts; ++attempt) {
    // Scatter: group request indices by owning shard under the current
    // topology. Regrouped from scratch every attempt — the topology may
    // have changed under us.
    std::vector<std::vector<std::size_t>> groups(topo_.nodes.size());
    for (std::size_t i = 0; i < addresses.size(); ++i) {
      groups[OwnerOf(addresses[i])].push_back(i);
    }
    bool retry = false;
    for (std::size_t shard = 0; shard < groups.size() && !retry; ++shard) {
      const std::vector<std::size_t>& group = groups[shard];
      for (std::size_t offset = 0; offset < group.size();) {
        const std::size_t chunk =
            std::min<std::size_t>(server::kMaxBatch, group.size() - offset);
        std::vector<net::IpAddress> slice;
        slice.reserve(chunk);
        for (std::size_t j = 0; j < chunk; ++j) {
          slice.push_back(addresses[group[offset + j]]);
        }
        auto conn = Conn(shard);
        if (!conn.ok()) {
          last_error = conn.error();
          BackoffAndRefresh();
          retry = true;
          break;
        }
        auto reply = conn.value()->ClusterLookup(topo_.epoch, slice);
        if (!reply.ok()) {
          last_error = reply.error();
          BackoffAndRefresh();
          retry = true;
          break;
        }
        if (reply.value().redirect.has_value()) {
          last_error = "redirected";
          FollowRedirect(*reply.value().redirect, shard);
          retry = true;
          break;
        }
        // Gather: chunk answers land at their original request indices,
        // so the assembled vector is in request order by construction.
        for (std::size_t j = 0; j < chunk; ++j) {
          records[group[offset + j]] = reply.value().records[j];
        }
        offset += chunk;
      }
    }
    if (!retry) return records;
  }
  return Fail("cluster batch lookup failed after " +
              std::to_string(config_.max_attempts) +
              " attempts: " + last_error);
}

Result<server::RankReply> ClusterClient::Rank(net::IpAddress address) {
  base::AssumeThreadRole owner(owner_role_);
  std::string last_error;
  for (int attempt = 0; attempt < config_.max_attempts; ++attempt) {
    const std::uint16_t shard = OwnerOf(address);
    auto conn = Conn(shard);
    if (!conn.ok()) {
      last_error = conn.error();
      BackoffAndRefresh();
      continue;
    }
    auto reply = conn.value()->Rank(topo_.epoch, address);
    if (!reply.ok()) {
      last_error = reply.error();
      BackoffAndRefresh();
      continue;
    }
    if (reply.value().redirect.has_value()) {
      last_error = "redirected";
      FollowRedirect(*reply.value().redirect, shard);
      continue;
    }
    return reply.value().reply;
  }
  return Fail("cluster rank failed after " +
              std::to_string(config_.max_attempts) +
              " attempts: " + last_error);
}

Result<std::uint64_t> ClusterClient::IngestUpdate(
    std::uint32_t source_id, const bgp::UpdateMessage& update) {
  base::AssumeThreadRole owner(owner_role_);
  // Replication, not routing: every node applies every update so any node
  // can answer for any range the moment ownership flips to it.
  std::uint64_t min_version = 0;
  bool first = true;
  for (std::size_t i = 0; i < topo_.nodes.size(); ++i) {
    auto conn = Conn(i);
    if (!conn.ok()) {
      return Fail("replicating to node " + std::to_string(topo_.nodes[i].id) +
                  " failed: " + conn.error());
    }
    auto ack = conn.value()->IngestUpdate(source_id, update);
    if (!ack.ok()) {
      return Fail("replicating to node " + std::to_string(topo_.nodes[i].id) +
                  " failed: " + ack.error());
    }
    if (first || ack.value().table_version < min_version) {
      min_version = ack.value().table_version;
      first = false;
    }
  }
  return min_version;
}

Result<StatsRollup> ClusterClient::Stats() {
  base::AssumeThreadRole owner(owner_role_);
  StatsRollup rollup;
  rollup.epoch = topo_.epoch;
  std::string last_error = "fleet is empty";
  for (std::size_t i = 0; i < topo_.nodes.size(); ++i) {
    auto conn = Conn(i);
    if (!conn.ok()) {
      last_error = conn.error();
      continue;
    }
    auto record = conn.value()->ClusterStats();
    if (!record.ok()) {
      last_error = record.error();
      continue;
    }
    const server::ClusterStatsRecord& r = record.value();
    ++rollup.nodes_reporting;
    rollup.frames_decoded += r.frames_decoded;
    rollup.lookups_served += r.lookups_served;
    rollup.cluster_lookups_served += r.cluster_lookups_served;
    rollup.ingests_applied += r.ingests_applied;
    rollup.busy_replies += r.busy_replies;
    rollup.errors_sent += r.errors_sent;
    rollup.redirects_sent += r.redirects_sent;
    rollup.connections_active += r.connections_active;
    rollup.latency_sum_ns += r.latency_sum_ns;
    for (std::size_t b = 0; b < server::kStatsLatencyBuckets; ++b) {
      rollup.latency_buckets[b] += r.latency_buckets[b];
      rollup.latency_count += r.latency_buckets[b];
    }
    rollup.per_node.push_back(r);
  }
  if (rollup.nodes_reporting == 0) {
    return Fail("no node answered a stats probe: " + last_error);
  }
  rollup.latency_p50_ns =
      MergedQuantileNs(rollup.latency_buckets, rollup.latency_count, 0.50);
  rollup.latency_p99_ns =
      MergedQuantileNs(rollup.latency_buckets, rollup.latency_count, 0.99);
  return rollup;
}

Result<bool> ClusterClient::PushTopology(const server::Topology& topo) {
  base::AssumeThreadRole owner(owner_role_);
  auto valid = server::ValidateTopology(topo);
  if (!valid.ok()) return Fail(valid.error());
  if (topo.epoch <= topo_.epoch) {
    return Fail("pushed topology must advance the epoch");
  }
  const server::Topology departing = topo_;
  // Adopt first so conns_ has a slot (and an address) for every NEW
  // member; the push below goes through those connections.
  Adopt(topo);
  for (std::size_t i = 0; i < topo_.nodes.size(); ++i) {
    auto conn = Conn(i);
    if (!conn.ok()) {
      return Fail("pushing topology to node " +
                  std::to_string(topo_.nodes[i].id) +
                  " failed: " + conn.error());
    }
    auto acked = conn.value()->PushTopology(topo_);
    if (!acked.ok()) {
      return Fail("pushing topology to node " +
                  std::to_string(topo_.nodes[i].id) +
                  " failed: " + acked.error());
    }
  }
  // Best-effort push to departing members so a still-alive drained node
  // learns the new epoch and redirects stragglers instead of answering.
  for (const server::NodeInfo& node : departing.nodes) {
    if (server::NodeIndexOf(topo_, node.id) >= 0) continue;
    auto dialed = server::Client::Connect(node.host.ToString(), node.port,
                                          config_.timeout_ms);
    if (!dialed.ok()) continue;  // likely dead — that is why it departed
    server::Client client = std::move(dialed).value();
    client.set_retry_policy(config_.retry_policy);
    (void)client.PushTopology(topo_);
  }
  return true;
}

Result<bool> ClusterClient::RemoveNode(std::uint32_t node_id) {
  base::AssumeThreadRole owner(owner_role_);
  auto rebalanced = RebalanceAfterLeave(topo_, node_id);
  if (!rebalanced.ok()) return Fail(rebalanced.error());
  return PushTopology(rebalanced.value());
}

Result<bool> ClusterClient::AddNode(const server::NodeInfo& node) {
  base::AssumeThreadRole owner(owner_role_);
  auto rebalanced = RebalanceAfterJoin(topo_, node);
  if (!rebalanced.ok()) return Fail(rebalanced.error());
  return PushTopology(rebalanced.value());
}

}  // namespace netclust::cluster
