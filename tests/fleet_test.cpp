// Cluster-mode integration tests: a real 3-node netclustd fleet on
// ephemeral loopback ports, all nodes carrying the same replicated table,
// driven through ClusterClient. The acceptance contract:
//
//   * fleet answers are bit-identical to a single-node oracle engine,
//     for single lookups and for scatter/gathered batches;
//   * a stale topology epoch draws a retryable REDIRECT, never a wrong
//     answer, and clients recover from it transparently;
//   * replication (INGEST_UPDATE fan-out) makes an update visible on
//     every shard before the call returns;
//   * the cluster-wide STATS rollup sums counters across nodes;
//   * killing a node mid-run and rebalancing loses zero lookups and
//     keeps bit-identity to the oracle — including for a client still
//     holding the pre-kill topology.
//
// Run under TSan in CI (cluster-integration job): reader threads, the
// ingest threads and topology installs all cross here.
#include "cluster/cluster_client.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bgp/update.h"
#include "cluster/partitioner.h"
#include "engine/engine.h"
#include "loadgen.h"
#include "net/ip_address.h"
#include "net/prefix.h"
#include "server/client.h"
#include "server/proto.h"
#include "server/server.h"

namespace netclust::cluster {
namespace {

using net::IpAddress;
using net::Prefix;

Prefix P(const char* text) { return Prefix::Parse(text).value(); }

/// Deterministic probe set spread across many /16 blocks (so every shard
/// serves some of them), mixing hits on the seeded prefixes with misses.
std::vector<IpAddress> Probes(std::size_t count) {
  std::vector<IpAddress> probes;
  probes.reserve(count);
  std::uint32_t x = 0x9E3779B9u;
  for (std::size_t i = 0; i < count; ++i) {
    x = x * 1664525u + 1013904223u;  // LCG: full-period, block-spreading
    switch (i % 4) {
      case 0:  // inside 10.0.0.0/8
        probes.emplace_back((10u << 24) | (x & 0x00FFFFFFu));
        break;
      case 1:  // inside 151.198.0.0/16 (half land in the /18)
        probes.emplace_back((151u << 24) | (198u << 16) | (x & 0xFFFFu));
        break;
      default:  // anywhere: mostly misses, occasionally a hit
        probes.emplace_back(x);
        break;
    }
  }
  return probes;
}

/// Three cluster-mode daemons plus a single-node oracle engine, all seeded
/// with the identical table. Shards are carved by the routing-aware
/// partitioner from the seeded prefixes.
class FleetTest : public ::testing::Test {
 protected:
  static constexpr int kNodes = 3;

  void SetUp() override {
    seeded_ = {P("10.0.0.0/8"), P("151.198.0.0/16"), P("151.198.192.0/18")};
    oracle_ = SeedEngine("oracle");
    for (int n = 0; n < kNodes; ++n) {
      engines_.push_back(SeedEngine("node" + std::to_string(n + 1)));

      server::ServerConfig config;
      config.port = 0;
      // Two reactors per node: fleet behavior (redirects, kill-one-node
      // bit-identity, rebalance) must hold on the multi-reactor data
      // plane, not just the single-loop degenerate case.
      config.reactors = 2;
      config.source_count = 2;
      config.cluster_node_id = n + 1;
      servers_.push_back(std::make_unique<server::Server>(
          engines_.back().get(), config));
      const Result<std::uint16_t> port = servers_.back()->Serve();
      ASSERT_TRUE(port.ok()) << port.error();
      members_.push_back(server::NodeInfo{static_cast<std::uint32_t>(n + 1),
                                          IpAddress(127, 0, 0, 1),
                                          port.value()});
    }
    const Result<server::Topology> topo =
        BuildTopology(1, members_, seeded_);
    ASSERT_TRUE(topo.ok()) << topo.error();
    topo_ = topo.value();
    for (const auto& daemon : servers_) {
      const Result<bool> installed = daemon->SetTopology(topo_);
      ASSERT_TRUE(installed.ok()) << installed.error();
    }
  }

  void TearDown() override {
    for (const auto& daemon : servers_) daemon->Stop();
    for (const auto& engine : engines_) engine->Stop();
    if (oracle_) oracle_->Stop();
  }

  std::unique_ptr<engine::Engine> SeedEngine(const std::string& name) {
    engine::EngineConfig config;
    config.shards = 1;
    config.log_name = name;
    auto engine = std::make_unique<engine::Engine>(config);
    const int seed = engine->AddSource(
        {"SEED", "1/1/2000", bgp::SourceKind::kBgpTable, ""});
    const int live = engine->AddSource(
        {"LIVE", "1/1/2000", bgp::SourceKind::kBgpTable, ""});
    EXPECT_EQ(live, 1);
    engine->Announce(P("10.0.0.0/8"), seed, 65000);
    engine->Announce(P("151.198.0.0/16"), seed, 7018);
    engine->Announce(P("151.198.192.0/18"), seed, 1742);
    engine->Start();
    return engine;
  }

  ClusterClient MakeClient(ClusterClientConfig config = {}) {
    config.timeout_ms = 2'000;
    config.retry_backoff_ms = 1;  // keep recovery retries fast under test
    Result<ClusterClient> client = ClusterClient::Create(topo_, config);
    EXPECT_TRUE(client.ok()) << (client.ok() ? "" : client.error());
    return std::move(client).value();
  }

  server::LookupRecord OracleRecord(IpAddress address) {
    return server::LookupRecord::FromMatch(oracle_->Lookup(address));
  }

  std::vector<Prefix> seeded_;
  std::unique_ptr<engine::Engine> oracle_;
  std::vector<std::unique_ptr<engine::Engine>> engines_;
  std::vector<std::unique_ptr<server::Server>> servers_;
  std::vector<server::NodeInfo> members_;
  server::Topology topo_;
};

TEST_F(FleetTest, FleetAnswersAreBitIdenticalToSingleNodeOracle) {
  ClusterClient client = MakeClient();
  const std::vector<IpAddress> probes = Probes(512);

  for (const IpAddress probe : probes) {
    const Result<server::LookupRecord> got = client.Lookup(probe);
    ASSERT_TRUE(got.ok()) << got.error();
    EXPECT_EQ(got.value(), OracleRecord(probe))
        << "fleet diverged from oracle for " << probe.bits();
  }

  // One scatter/gathered batch answers exactly like N singles, in order.
  const Result<std::vector<server::LookupRecord>> batch =
      client.BatchLookup(probes);
  ASSERT_TRUE(batch.ok()) << batch.error();
  ASSERT_EQ(batch.value().size(), probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(batch.value()[i], OracleRecord(probes[i]));
  }
  EXPECT_EQ(client.redirects_followed(), 0u)
      << "a settled topology should route first try";
}

TEST_F(FleetTest, BatchWithDuplicatesAndEmptyInputKeepsRequestOrder) {
  ClusterClient client = MakeClient();
  const Result<std::vector<server::LookupRecord>> none =
      client.BatchLookup({});
  ASSERT_TRUE(none.ok()) << none.error();
  EXPECT_TRUE(none.value().empty());

  // The same address repeated across a batch comes back at every position
  // it was asked for, interleaved with other shards' keys.
  const IpAddress dup(151, 198, 200, 40);
  std::vector<IpAddress> addresses;
  for (const IpAddress probe : Probes(64)) {
    addresses.push_back(dup);
    addresses.push_back(probe);
  }
  const Result<std::vector<server::LookupRecord>> got =
      client.BatchLookup(addresses);
  ASSERT_TRUE(got.ok()) << got.error();
  ASSERT_EQ(got.value().size(), addresses.size());
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    EXPECT_EQ(got.value()[i], OracleRecord(addresses[i])) << "position " << i;
  }
}

TEST_F(FleetTest, ReplicatedIngestIsVisibleOnEveryShardWhenAcked) {
  ClusterClient client = MakeClient();
  const IpAddress probe(192, 0, 2, 55);
  ASSERT_FALSE(OracleRecord(probe).found);

  bgp::UpdateMessage update;
  update.announced = {P("192.0.2.0/24")};
  update.as_path = {4969};
  const Result<std::uint64_t> version = client.IngestUpdate(1, update);
  ASSERT_TRUE(version.ok()) << version.error();
  EXPECT_GT(version.value(), 0u);
  oracle_->ApplyUpdate(update, 1);

  // The ack means every node published the update: ask each one directly,
  // bypassing routing, and all three must answer identically.
  for (const server::NodeInfo& node : members_) {
    Result<server::Client> direct =
        server::Client::Connect("127.0.0.1", node.port, 2'000);
    ASSERT_TRUE(direct.ok()) << direct.error();
    const Result<server::LookupRecord> got = direct.value().Lookup(probe);
    ASSERT_TRUE(got.ok()) << got.error();
    ASSERT_TRUE(got.value().found) << "node " << node.id << " missed the "
                                   << "replicated update";
    EXPECT_EQ(got.value(), OracleRecord(probe));
  }
  // And the routed path agrees.
  const Result<server::LookupRecord> routed = client.Lookup(probe);
  ASSERT_TRUE(routed.ok()) << routed.error();
  EXPECT_EQ(routed.value(), OracleRecord(probe));
}

TEST_F(FleetTest, StatsRollupSumsCountersAcrossTheFleet) {
  ClusterClient client = MakeClient();
  const std::vector<IpAddress> probes = Probes(256);
  for (const IpAddress probe : probes) {
    ASSERT_TRUE(client.Lookup(probe).ok());
  }

  const Result<StatsRollup> rollup = client.Stats();
  ASSERT_TRUE(rollup.ok()) << rollup.error();
  EXPECT_EQ(rollup.value().nodes_reporting, 3u);
  EXPECT_EQ(rollup.value().epoch, topo_.epoch);
  EXPECT_EQ(rollup.value().per_node.size(), 3u);
  // Every probe was served by exactly one shard; the rollup sums them.
  EXPECT_EQ(rollup.value().cluster_lookups_served, probes.size());
  // Routed lookups are lookups: the global and per-reactor lookups_served
  // count them exactly like cluster_lookups_served does.
  std::uint64_t reactor_lookups = 0;
  std::uint64_t cluster_lookups = 0;
  for (const auto& daemon : servers_) {
    cluster_lookups += daemon->metrics().cluster_lookups_served.value();
    for (std::size_t i = 0; i < daemon->reactor_count(); ++i) {
      reactor_lookups += daemon->reactor_metrics(i).lookups_served.value();
    }
  }
  EXPECT_EQ(reactor_lookups, probes.size());
  EXPECT_EQ(cluster_lookups, probes.size());
  EXPECT_EQ(rollup.value().lookups_served, probes.size());
  std::uint64_t per_node_sum = 0;
  bool multiple_shards_served = false;
  for (const server::ClusterStatsRecord& node : rollup.value().per_node) {
    per_node_sum += node.cluster_lookups_served;
    if (node.cluster_lookups_served > 0 &&
        node.node_id != rollup.value().per_node.front().node_id) {
      multiple_shards_served = true;
    }
  }
  EXPECT_EQ(per_node_sum, rollup.value().cluster_lookups_served);
  EXPECT_TRUE(multiple_shards_served)
      << "probe spread failed to exercise more than one shard";
  // The merged histogram is consistent with the summed service count.
  std::uint64_t bucket_sum = 0;
  for (const std::uint64_t b : rollup.value().latency_buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, rollup.value().latency_count);
  EXPECT_GT(rollup.value().latency_count, 0u);
  EXPECT_GE(rollup.value().latency_p99_ns, rollup.value().latency_p50_ns);
}

TEST_F(FleetTest, TopologyPushesTravelTheWireAndEpochNeverRegresses) {
  Result<server::Client> raw =
      server::Client::Connect("127.0.0.1", members_[1].port, 2'000);
  ASSERT_TRUE(raw.ok()) << raw.error();

  // Fetch returns exactly what SetUp installed.
  const Result<server::Topology> fetched = raw.value().FetchTopology();
  ASSERT_TRUE(fetched.ok()) << fetched.error();
  EXPECT_EQ(fetched.value(), topo_);

  // Re-pushing the identical epoch is idempotent, not an error.
  const Result<std::uint64_t> again = raw.value().PushTopology(topo_);
  ASSERT_TRUE(again.ok()) << again.error();
  EXPECT_EQ(again.value(), topo_.epoch);

  // A newer epoch installs and is visible to a subsequent fetch.
  const Result<server::Topology> next =
      RebalanceAfterLeave(topo_, members_[2].id);
  ASSERT_TRUE(next.ok()) << next.error();
  const Result<std::uint64_t> pushed = raw.value().PushTopology(next.value());
  ASSERT_TRUE(pushed.ok()) << pushed.error();
  EXPECT_EQ(pushed.value(), next.value().epoch);

  // The old epoch can no longer be installed: regressions are rejected.
  const Result<std::uint64_t> regress = raw.value().PushTopology(topo_);
  EXPECT_FALSE(regress.ok());
  const Result<server::Topology> current = raw.value().FetchTopology();
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(current.value().epoch, next.value().epoch);
}

TEST_F(FleetTest, DrainedNodeRedirectsEverythingItNoLongerOwns) {
  ClusterClient client = MakeClient();
  // Rebalance node 3 out while it is still alive: it keeps serving, but
  // owns nothing and must redirect rather than answer.
  const Result<bool> removed = client.RemoveNode(members_[2].id);
  ASSERT_TRUE(removed.ok()) << removed.error();
  EXPECT_EQ(client.topology().epoch, topo_.epoch + 1);
  EXPECT_EQ(client.topology().nodes.size(), 2u);

  Result<server::Client> raw =
      server::Client::Connect("127.0.0.1", members_[2].port, 2'000);
  ASSERT_TRUE(raw.ok()) << raw.error();
  const Result<server::ClusterLookupReply> reply =
      raw.value().ClusterLookup(client.topology().epoch,
                                {IpAddress(10, 0, 0, 1)});
  ASSERT_TRUE(reply.ok()) << reply.error();
  ASSERT_TRUE(reply.value().redirect.has_value())
      << "drained node answered a cluster lookup it no longer owns";

  // The surviving pair still covers the whole space, bit-identically.
  for (const IpAddress probe : Probes(128)) {
    const Result<server::LookupRecord> got = client.Lookup(probe);
    ASSERT_TRUE(got.ok()) << got.error();
    EXPECT_EQ(got.value(), OracleRecord(probe));
  }
}

TEST_F(FleetTest, KillingANodeMidRunLosesNothingAfterRebalance) {
  ClusterClient primary = MakeClient();
  // A second client that will still hold the pre-kill topology: it has to
  // recover through redirects/refreshes, not through shared state.
  ClusterClient straggler = MakeClient();
  const std::vector<IpAddress> probes = Probes(384);

  // Mid-run: half the probes land before the kill...
  for (std::size_t i = 0; i < probes.size() / 2; ++i) {
    const Result<server::LookupRecord> got = primary.Lookup(probes[i]);
    ASSERT_TRUE(got.ok()) << got.error();
    ASSERT_EQ(got.value(), OracleRecord(probes[i]));
  }

  // ...then node 2 dies and the operator rebalances it out.
  servers_[1]->Stop();
  const Result<bool> removed = primary.RemoveNode(members_[1].id);
  ASSERT_TRUE(removed.ok()) << removed.error();
  EXPECT_EQ(primary.topology().nodes.size(), 2u);

  // Zero lost, zero misrouted: every remaining probe answers and matches
  // the oracle bit-for-bit.
  for (std::size_t i = probes.size() / 2; i < probes.size(); ++i) {
    const Result<server::LookupRecord> got = primary.Lookup(probes[i]);
    ASSERT_TRUE(got.ok()) << got.error();
    ASSERT_EQ(got.value(), OracleRecord(probes[i]))
        << "post-rebalance divergence for " << probes[i].bits();
  }

  // The straggler, still on the dead topology, self-heals: lookups routed
  // at the old epoch draw redirects (or dead-connection refreshes) until
  // it adopts the new map — and none of them fail or misroute.
  for (const IpAddress probe : probes) {
    const Result<server::LookupRecord> got = straggler.Lookup(probe);
    ASSERT_TRUE(got.ok()) << got.error();
    ASSERT_EQ(got.value(), OracleRecord(probe));
  }
  EXPECT_EQ(straggler.topology().epoch, primary.topology().epoch)
      << "straggler never adopted the rebalanced topology";

  // Batches scatter/gather correctly over the shrunken fleet too.
  const Result<std::vector<server::LookupRecord>> batch =
      primary.BatchLookup(probes);
  ASSERT_TRUE(batch.ok()) << batch.error();
  for (std::size_t i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(batch.value()[i], OracleRecord(probes[i]));
  }
}

TEST_F(FleetTest, JoiningANodeRebalancesAndServesItsShare) {
  // Stand up a fourth node, seeded identically.
  engines_.push_back(SeedEngine("node4"));
  server::ServerConfig config;
  config.port = 0;
  config.reactors = 2;
  config.source_count = 2;
  config.cluster_node_id = 4;
  servers_.push_back(std::make_unique<server::Server>(
      engines_.back().get(), config));
  const Result<std::uint16_t> port = servers_.back()->Serve();
  ASSERT_TRUE(port.ok()) << port.error();

  ClusterClient client = MakeClient();
  const Result<bool> added = client.AddNode(server::NodeInfo{
      4, IpAddress(127, 0, 0, 1), port.value()});
  ASSERT_TRUE(added.ok()) << added.error();
  EXPECT_EQ(client.topology().nodes.size(), 4u);
  EXPECT_EQ(client.topology().epoch, topo_.epoch + 1);

  // The joiner owns a real share and the whole space still answers
  // bit-identically to the oracle.
  const auto owner = server::CompileOwners(client.topology());
  const int joined = server::NodeIndexOf(client.topology(), 4);
  ASSERT_GE(joined, 0);
  std::size_t owned = 0;
  for (const std::uint16_t o : owner) {
    if (static_cast<int>(o) == joined) ++owned;
  }
  EXPECT_GT(owned, 0u) << "joined node owns nothing";
  for (const IpAddress probe : Probes(256)) {
    const Result<server::LookupRecord> got = client.Lookup(probe);
    ASSERT_TRUE(got.ok()) << got.error();
    EXPECT_EQ(got.value(), OracleRecord(probe));
  }
}

TEST_F(FleetTest, LoadGeneratorFleetModeSmokes) {
  loadgen::Options options;
  for (const server::NodeInfo& node : members_) {
    options.endpoints.push_back(node.host.ToString() + ":" +
                                std::to_string(node.port));
  }
  options.connections = 2;
  options.total_frames = 400;
  options.batch_size = 4;
  options.addresses = Probes(512);
  const Result<loadgen::Report> report = loadgen::Run(options);
  ASSERT_TRUE(report.ok()) << report.error();
  EXPECT_EQ(report.value().errors, 0u) << report.value().first_error;
  EXPECT_EQ(report.value().frames_sent, 400u);
  EXPECT_EQ(report.value().lookups_done, 1'600u);
  EXPECT_GT(report.value().qps, 0.0);
  const std::string json = report.value().ToJson();
  EXPECT_NE(json.find("\"redirects\""), std::string::npos);
}

}  // namespace
}  // namespace netclust::cluster
