// End-to-end tests for the mapping tier behind a live netclustd: the
// RANK dispatch path with a per-reactor cache enabled, and the staleness
// contract the cache must honor across snapshot publishes.
//
// The acceptance bar from the mapping-tier work:
//
//   * an INGEST_UPDATE that moves a client prefix to a different cluster
//     is visible to the very next RANK — a cached pre-move answer must
//     never leak across the epoch flip (plain and under TSan, where a
//     hammering client races the ingest thread);
//   * ClusterClient::Rank routes across a fleet and resolves redirects
//     transparently (the epoch rule itself is server_test's
//     RankAndClusterLookupShareOneEpochRule).
//
// Runs in CI's TSan matrix alongside server_test/fleet_test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bgp/update.h"
#include "cluster/cluster_client.h"
#include "cluster/partitioner.h"
#include "engine/engine.h"
#include "mapping/rank_table.h"
#include "net/ip_address.h"
#include "net/prefix.h"
#include "server/client.h"
#include "server/proto.h"
#include "server/server.h"

namespace netclust::server {
namespace {

using net::IpAddress;
using net::Prefix;

Prefix P(const char* text) { return Prefix::Parse(text).value(); }

/// The CDN ranking installed on every server under test. Cluster ASes
/// match the seeded table (65000 / 7018 / 1742) plus the two clusters the
/// moving-prefix tests flip between (65001 / 65002).
std::shared_ptr<const mapping::RankTable> TestRankTable() {
  auto table = std::make_shared<mapping::RankTable>();
  table->SetDefault({9, 8});
  table->SetRanking(65000, {1, 2});
  table->SetRanking(7018, {3, 1});
  table->SetRanking(1742, {4, 3});
  table->SetRanking(65001, {5});
  table->SetRanking(65002, {6});
  return table;
}

/// ServerTest's engine-plus-daemon fixture, with the mapping cache ON and
/// a rank table installed — the configuration the tier actually ships in.
class MappingServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_.emplace();
    seed_source_ = engine_->AddSource(
        {"SEED", "1/1/2000", bgp::SourceKind::kBgpTable, ""});
    live_source_ = engine_->AddSource(
        {"LIVE", "1/1/2000", bgp::SourceKind::kBgpTable, ""});
    engine_->Announce(P("10.0.0.0/8"), seed_source_, 65000);
    engine_->Announce(P("151.198.0.0/16"), seed_source_, 7018);
    engine_->Announce(P("151.198.192.0/18"), seed_source_, 1742);
    engine_->Start();
  }

  void TearDown() override {
    if (server_) server_->Stop();
    engine_->Stop();
  }

  std::uint16_t Serve(ServerConfig config = {}) {
    config.port = 0;
    config.source_count = 2;
    config.mapping_cache_capacity = 64;
    config.rank_table = TestRankTable();
    server_.emplace(&*engine_, config);
    const Result<std::uint16_t> port = server_->Serve();
    EXPECT_TRUE(port.ok()) << (port.ok() ? "" : port.error());
    return port.value_or(0);
  }

  Client ConnectOrDie(std::uint16_t port) {
    Result<Client> client = Client::Connect("127.0.0.1", port, 2'000);
    EXPECT_TRUE(client.ok()) << (client.ok() ? "" : client.error());
    return std::move(client).value();
  }

  /// Moves `prefix` to cluster `as` through the wire ingest path (one
  /// UPDATE withdrawing and re-announcing it — withdrawals apply first,
  /// and a plain re-announce keeps the old origin) and waits for the ack
  /// (the snapshot is published when it returns).
  void AnnounceLive(Client& client, Prefix prefix, std::uint32_t as) {
    bgp::UpdateMessage update;
    update.withdrawn = {prefix};
    update.announced = {prefix};
    update.as_path = {as};
    const Result<IngestAck> ack = client.IngestUpdate(
        static_cast<std::uint32_t>(live_source_), update);
    ASSERT_TRUE(ack.ok()) << ack.error();
  }

  std::uint64_t TotalInvalidations() const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < server_->reactor_count(); ++i) {
      total += server_->mapping_counters(i).invalidations.value();
    }
    return total;
  }

  std::uint64_t TotalHits() const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < server_->reactor_count(); ++i) {
      total += server_->mapping_counters(i).hits.value();
    }
    return total;
  }

  std::optional<engine::Engine> engine_;
  std::optional<Server> server_;
  int seed_source_ = -1;
  int live_source_ = -1;
};

TEST_F(MappingServerTest, RankFollowsTheClusterRanking) {
  const std::uint16_t port = Serve();
  Client client = ConnectOrDie(port);

  // Longest match wins the cluster: 151.198.200.x is inside the /18
  // (cluster 1742), not just the covering /16 (7018).
  const Result<RankRoundTrip> rank = client.Rank(0, IpAddress(151, 198, 200, 40));
  ASSERT_TRUE(rank.ok()) << rank.error();
  ASSERT_FALSE(rank.value().redirect.has_value());
  EXPECT_EQ(rank.value().reply.epoch, 0u);
  EXPECT_EQ(rank.value().reply.cluster_as, 1742u);
  EXPECT_EQ(rank.value().reply.servers,
            (std::vector<std::uint16_t>{4, 3}));

  const Result<RankRoundTrip> covering =
      client.Rank(0, IpAddress(10, 1, 2, 3));
  ASSERT_TRUE(covering.ok()) << covering.error();
  ASSERT_FALSE(covering.value().redirect.has_value());
  EXPECT_EQ(covering.value().reply.cluster_as, 65000u);
  EXPECT_EQ(covering.value().reply.servers.front(), 1);

  // A client outside every announced prefix has no cluster: the default
  // ranking answers, and the reply says so.
  const Result<RankRoundTrip> unknown =
      client.Rank(0, IpAddress(192, 0, 2, 55));
  ASSERT_TRUE(unknown.ok()) << unknown.error();
  EXPECT_EQ(unknown.value().reply.cluster_as, 0u);
  EXPECT_EQ(unknown.value().reply.servers, (std::vector<std::uint16_t>{9, 8}));
}

TEST_F(MappingServerTest, NoRankTableMeansNoServer) {
  ServerConfig config;
  config.port = 0;
  config.source_count = 2;
  config.mapping_cache_capacity = 64;
  server_.emplace(&*engine_, config);  // rank_table deliberately null
  const Result<std::uint16_t> port = server_->Serve();
  ASSERT_TRUE(port.ok()) << port.error();
  Client client = ConnectOrDie(port.value());

  const Result<RankRoundTrip> rank = client.Rank(0, IpAddress(10, 0, 0, 1));
  ASSERT_TRUE(rank.ok()) << rank.error();
  EXPECT_EQ(rank.value().reply.cluster_as, 65000u);  // lookup still works
  EXPECT_TRUE(rank.value().reply.servers.empty());
}

// The satellite's core staleness check: ingest moves a /24 from cluster
// 65001 to 65002, and the very next RANK must see the move — a cached
// pre-move ranking crossing the epoch flip is the bug under test.
TEST_F(MappingServerTest, IngestMoveIsVisibleToTheNextRankNoStaleCache) {
  const std::uint16_t port = Serve();
  Client client = ConnectOrDie(port);
  const Prefix moving = P("192.0.2.0/24");

  AnnounceLive(client, moving, 65001);
  // Hammer one /24 so the answer is resident in the reactor's cache.
  for (int i = 0; i < 32; ++i) {
    const Result<RankRoundTrip> warm =
        client.Rank(0, IpAddress(192, 0, 2, static_cast<std::uint8_t>(i)));
    ASSERT_TRUE(warm.ok()) << warm.error();
    ASSERT_EQ(warm.value().reply.servers.front(), 5) << "cluster 65001 ranks 5";
  }
  const std::uint64_t flushes_before = TotalInvalidations();

  // The move: same prefix, new origin AS. The ack means the snapshot is
  // published, so no later RANK may answer from the 65001 epoch.
  AnnounceLive(client, moving, 65002);
  const Result<RankRoundTrip> after = client.Rank(0, IpAddress(192, 0, 2, 99));
  ASSERT_TRUE(after.ok()) << after.error();
  EXPECT_EQ(after.value().reply.cluster_as, 65002u)
      << "stale cluster served across the epoch flip";
  EXPECT_EQ(after.value().reply.servers, (std::vector<std::uint16_t>{6}));
  EXPECT_GT(TotalInvalidations(), flushes_before)
      << "the move must have flushed the serving reactor's cache";
}

// The flip side of the staleness contract: an ingest whose delta is EMPTY
// (duplicate announce, withdraw of an absent prefix) must not publish at
// all — no version bump, no recompile, and no mapping-cache flush. The
// warmed entries keep serving hits across the no-op.
TEST_F(MappingServerTest, DuplicateAnnounceDoesNotFlushWarmCaches) {
  const std::uint16_t port = Serve();
  Client client = ConnectOrDie(port);
  const Prefix stable = P("198.51.100.0/24");

  bgp::UpdateMessage announce;
  announce.announced = {stable};
  announce.as_path = {65001};
  const Result<IngestAck> first = client.IngestUpdate(
      static_cast<std::uint32_t>(live_source_), announce);
  ASSERT_TRUE(first.ok()) << first.error();

  // Warm the serving reactor's cache on the /24.
  for (int i = 0; i < 32; ++i) {
    const Result<RankRoundTrip> warm = client.Rank(
        0, IpAddress(198, 51, 100, static_cast<std::uint8_t>(i)));
    ASSERT_TRUE(warm.ok()) << warm.error();
    ASSERT_EQ(warm.value().reply.servers.front(), 5) << "cluster 65001 ranks 5";
  }
  const std::uint64_t hits_before = TotalHits();
  const std::uint64_t flushes_before = TotalInvalidations();

  // Byte-identical re-announce: the lookup-visible table is unchanged,
  // so the ack must carry the same RCU version as the first announce.
  const Result<IngestAck> duplicate = client.IngestUpdate(
      static_cast<std::uint32_t>(live_source_), announce);
  ASSERT_TRUE(duplicate.ok()) << duplicate.error();
  EXPECT_EQ(duplicate.value().table_version, first.value().table_version)
      << "a no-op ingest bumped the RCU version";

  // Withdraw of a prefix nobody announced: the other empty-delta shape.
  bgp::UpdateMessage spurious;
  spurious.withdrawn = {P("203.0.113.0/24")};
  const Result<IngestAck> ghost = client.IngestUpdate(
      static_cast<std::uint32_t>(live_source_), spurious);
  ASSERT_TRUE(ghost.ok()) << ghost.error();
  EXPECT_EQ(ghost.value().table_version, first.value().table_version);

  EXPECT_EQ(TotalInvalidations(), flushes_before)
      << "an empty delta flushed a mapping cache";
  const Result<RankRoundTrip> again = client.Rank(0, IpAddress(198, 51, 100, 7));
  ASSERT_TRUE(again.ok()) << again.error();
  EXPECT_EQ(again.value().reply.servers.front(), 5);
  EXPECT_GT(TotalHits(), hits_before)
      << "the warmed entry stopped serving hits after the no-op ingest";
}

// Same contract with the race made real: reader connections hammer RANK
// on the moving /24 while ingest flips its cluster. Every observed answer
// must be one of the two legal servers, and each client must see the
// final cluster once the last flip is acked. TSan runs this file in CI,
// so the cache's reactor-confinement is checked as well as the answers.
TEST_F(MappingServerTest, ConcurrentRanksNeverSeeAnIllegalServer) {
  const std::uint16_t port = Serve();
  Client ingest = ConnectOrDie(port);
  const Prefix moving = P("192.0.2.0/24");
  AnnounceLive(ingest, moving, 65001);

  std::atomic<bool> stop{false};
  std::atomic<int> illegal{0};
  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([this, port, t, &stop, &illegal] {
      Client client = ConnectOrDie(port);
      std::uint8_t host = static_cast<std::uint8_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const Result<RankRoundTrip> got =
            client.Rank(0, IpAddress(192, 0, 2, host++));
        if (!got.ok()) continue;  // BUSY under load is legal; retried
        const std::vector<std::uint16_t>& servers = got.value().reply.servers;
        if (servers != std::vector<std::uint16_t>{5} &&
            servers != std::vector<std::uint16_t>{6}) {
          illegal.fetch_add(1);
        }
      }
    });
  }

  for (int flip = 0; flip < 24; ++flip) {
    AnnounceLive(ingest, moving, flip % 2 == 0 ? 65002 : 65001);
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(illegal.load(), 0)
      << "a RANK answered with a ranking neither cluster has";

  // The last flip (65001, flip=23) is acked: the steady state must show.
  Client check = ConnectOrDie(port);
  const Result<RankRoundTrip> settled =
      check.Rank(0, IpAddress(192, 0, 2, 200));
  ASSERT_TRUE(settled.ok()) << settled.error();
  EXPECT_EQ(settled.value().reply.cluster_as, 65001u);
  EXPECT_EQ(settled.value().reply.servers.front(), 5);
}

TEST_F(MappingServerTest, ClusterModeWithoutTopologyRejectsMappingOps) {
  ServerConfig config;
  config.cluster_node_id = 1;
  const std::uint16_t port = Serve(config);
  Client client = ConnectOrDie(port);
  const Result<RankRoundTrip> rank = client.Rank(1, IpAddress(10, 0, 0, 1));
  EXPECT_FALSE(rank.ok());
  const Result<ClusterLookupReply> lookup =
      client.ClusterLookup(1, {IpAddress(10, 0, 0, 1)});
  EXPECT_FALSE(lookup.ok());
}

// ---------------------------------------------------------------------------
// Cluster mode: redirect semantics and the routed ClusterClient path.

/// FleetTest's 3-node fixture with the mapping tier and rank table on.
class MappingFleetTest : public ::testing::Test {
 protected:
  static constexpr int kNodes = 3;

  void SetUp() override {
    seeded_ = {P("10.0.0.0/8"), P("151.198.0.0/16"), P("151.198.192.0/18")};
    for (int n = 0; n < kNodes; ++n) {
      engines_.push_back(SeedEngine("mapnode" + std::to_string(n + 1)));
      ServerConfig config;
      config.port = 0;
      config.reactors = 2;
      config.source_count = 2;
      config.cluster_node_id = n + 1;
      config.mapping_cache_capacity = 64;
      config.rank_table = TestRankTable();
      servers_.push_back(
          std::make_unique<Server>(engines_.back().get(), config));
      const Result<std::uint16_t> port = servers_.back()->Serve();
      ASSERT_TRUE(port.ok()) << port.error();
      members_.push_back(NodeInfo{static_cast<std::uint32_t>(n + 1),
                                  IpAddress(127, 0, 0, 1), port.value()});
    }
    const Result<Topology> topo = cluster::BuildTopology(1, members_, seeded_);
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
  }

  std::unique_ptr<engine::Engine> SeedEngine(const std::string& name) {
    engine::EngineConfig config;
    config.shards = 1;
    config.log_name = name;
    auto engine = std::make_unique<engine::Engine>(config);
    const int seed = engine->AddSource(
        {"SEED", "1/1/2000", bgp::SourceKind::kBgpTable, ""});
    [[maybe_unused]] const int live = engine->AddSource(
        {"LIVE", "1/1/2000", bgp::SourceKind::kBgpTable, ""});
    engine->Announce(P("10.0.0.0/8"), seed, 65000);
    engine->Announce(P("151.198.0.0/16"), seed, 7018);
    engine->Announce(P("151.198.192.0/18"), seed, 1742);
    engine->Start();
    return engine;
  }

  std::vector<Prefix> seeded_;
  std::vector<std::unique_ptr<engine::Engine>> engines_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::vector<NodeInfo> members_;
  Topology topo_;
};

TEST_F(MappingFleetTest, ClusterClientRankRoutesAcrossTheFleet) {
  cluster::ClusterClientConfig config;
  config.timeout_ms = 2'000;
  config.retry_backoff_ms = 1;
  Result<cluster::ClusterClient> fleet =
      cluster::ClusterClient::Create(topo_, config);
  ASSERT_TRUE(fleet.ok()) << fleet.error();

  // Probes spread across blocks so every shard serves some: each answer
  // must match what the (replicated) table + rank table dictate.
  std::uint32_t x = 0x9E3779B9u;
  for (int i = 0; i < 256; ++i) {
    x = x * 1664525u + 1013904223u;
    const IpAddress probe((10u << 24) | (x & 0x00FFFFFFu));
    const Result<RankReply> got = fleet.value().Rank(probe);
    ASSERT_TRUE(got.ok()) << got.error();
    EXPECT_EQ(got.value().cluster_as, 65000u);
    EXPECT_EQ(got.value().servers, (std::vector<std::uint16_t>{1, 2}));
    EXPECT_EQ(got.value().epoch, topo_.epoch);
  }

  // The /18's clients rank differently from the covering /16's: routing
  // plus longest-match must agree end to end through the fleet.
  const Result<RankReply> deep =
      fleet.value().Rank(IpAddress(151, 198, 200, 40));
  ASSERT_TRUE(deep.ok()) << deep.error();
  EXPECT_EQ(deep.value().cluster_as, 1742u);
  EXPECT_EQ(deep.value().servers.front(), 4);
}

}  // namespace
}  // namespace netclust::server
