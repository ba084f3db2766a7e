#include "engine/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sys/time.h>

#include "base/sync.h"
#include "bgp/table_handle.h"
#include "core/streaming.h"
#include "engine/spsc_ring.h"
#include "synth/vantage.h"
#include "test_fixtures.h"

namespace netclust::engine {
namespace {

using net::IpAddress;
using net::Prefix;

Prefix P(const char* text) { return Prefix::Parse(text).value(); }

// ---------------------------------------------------------------------------
// Building blocks: the SPSC ring and the RCU table slot.

TEST(SpscRing, FifoOrderAndCapacity) {
  SpscRing<int> ring(6);  // rounds up to 8
  // Single-threaded test: this thread legitimately plays both SPSC roles.
  base::AssumeThreadRole producer(ring.producer_role());
  base::AssumeThreadRole consumer(ring.consumer_role());
  EXPECT_EQ(ring.capacity(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.TryPush(int{i}));
  EXPECT_FALSE(ring.TryPush(99));  // full
  int out = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ring.TryPop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.TryPop(out));  // empty
  // Wraps around.
  EXPECT_TRUE(ring.TryPush(42));
  ASSERT_TRUE(ring.TryPop(out));
  EXPECT_EQ(out, 42);
}

TEST(SpscRing, ZeroCapacityGetsUsableFloor) {
  // Capacity 0 used to round up to a single slot, which the full/empty
  // index arithmetic treats as permanently full.
  SpscRing<int> ring(0);
  base::AssumeThreadRole producer(ring.producer_role());
  base::AssumeThreadRole consumer(ring.consumer_role());
  EXPECT_EQ(ring.capacity(), 2u);
  EXPECT_TRUE(ring.TryPush(1));
  EXPECT_TRUE(ring.TryPush(2));
  EXPECT_FALSE(ring.TryPush(3));
  int out = -1;
  ASSERT_TRUE(ring.TryPop(out));
  EXPECT_EQ(out, 1);
}

TEST(RcuTableSlot, PublishedSnapshotsAreImmutableAndRefcounted) {
  bgp::RcuTableSlot slot;
  // This test thread is the slot's single publisher.
  base::AssumeThreadRole publisher(slot.publisher_role());
  EXPECT_EQ(slot.version(), 1u);
  EXPECT_EQ(slot.Acquire().flat().size(), 0u);

  bgp::PrefixTable table;
  const int source = table.AddSource({"T", "1/1/2000",
                                      bgp::SourceKind::kBgpTable, ""});
  const IpAddress client(12, 65, 147, 94);
  const auto answer = [&client](const bgp::TableHandle& handle) {
    const auto match = handle.flat().LongestMatch(client);
    return match.has_value() ? match->prefix : P("0.0.0.0/32");
  };

  // Each publish nests a more specific prefix over the client. Every
  // handle acquired along the way keeps resolving its own version's
  // answer after the later publishes.
  std::vector<bgp::TableHandle> handles = {slot.Acquire()};
  const std::vector<Prefix> nested = {P("12.0.0.0/8"), P("12.65.0.0/16"),
                                      P("12.65.128.0/19")};
  for (const Prefix& prefix : nested) {
    table.Insert(prefix, source);
    const std::vector<Prefix> changed = {prefix};
    slot.Publish(table.CompileFlatDelta(slot.Acquire().flat(), changed));
    handles.push_back(slot.Acquire());
  }
  ASSERT_EQ(handles.size(), 4u);
  EXPECT_FALSE(handles[0].flat().LongestMatch(client).has_value());
  for (std::size_t v = 1; v < handles.size(); ++v) {
    EXPECT_EQ(handles[v].version(), v + 1);
    EXPECT_EQ(answer(handles[v]), nested[v - 1]) << v;
  }
  // Superseded snapshots live on through their readers alone; the current
  // one is shared with the slot.
  EXPECT_EQ(handles[1].use_count(), 1);
  EXPECT_EQ(handles[3].use_count(), 2);

  // Mutating the writer's table after a publish leaks into no snapshot.
  table.Insert(P("12.65.147.0/24"), source);
  ASSERT_TRUE(table.Remove(P("12.65.128.0/19")));
  EXPECT_EQ(answer(handles[3]), P("12.65.128.0/19"));
  EXPECT_EQ(answer(slot.Acquire()), P("12.65.128.0/19"));
  EXPECT_EQ(slot.version(), 4u);
}

// ---------------------------------------------------------------------------
// The determinism contract: Engine::Snapshot() after a fixed interleaved
// request/update script is bit-identical to a sequential StreamingClusterer
// replay of the same script, for 1, 2 and 8 shards.

// Fixed interleaving: the update feed ticks every kBurst requests and
// delivers a burst of one to three updates per tick (the rest at the end).
template <typename OnRequest, typename OnBurst>
void ReplayScript(const std::vector<weblog::CompactRequest>& requests,
                  const std::vector<bgp::UpdateMessage>& updates,
                  OnRequest&& on_request, OnBurst&& on_burst) {
  constexpr std::size_t kBurst = 256;
  std::size_t next_update = 0;
  std::size_t tick = 0;
  const auto burst = [&](std::size_t size) {
    size = std::min(size, updates.size() - next_update);
    on_burst(std::span(updates).subspan(next_update, size));
    next_update += size;
  };
  for (std::size_t i = 0; i < requests.size(); ++i) {
    on_request(requests[i]);
    if ((i + 1) % kBurst == 0 && next_update < updates.size()) {
      burst(1 + tick++ % 3);
    }
  }
  if (next_update < updates.size()) burst(updates.size() - next_update);
}

TEST(Engine, SnapshotBitIdenticalToSequentialReplay) {
  const auto& world = netclust::testing::GetSmallWorld();
  const synth::VantageGenerator vantages(world.internet,
                                         synth::DefaultVantageProfiles());
  const bgp::Snapshot seed = vantages.MakeSnapshot(0, 0);
  const auto updates = vantages.MakeUpdateStream(0, 0, 0, 1, 0);
  const auto& requests = world.generated.log.requests();
  ASSERT_GT(updates.size(), 0u);

  core::StreamingClusterer sequential("script");
  const int source = sequential.SeedSnapshot(seed);
  ReplayScript(
      requests, updates,
      [&](const weblog::CompactRequest& r) {
        sequential.Observe(r.client, r.url_id, r.response_bytes, r.timestamp);
      },
      [&](std::span<const bgp::UpdateMessage> burst) {
        for (const bgp::UpdateMessage& u : burst) {
          sequential.ApplyUpdate(u, source);
        }
      });
  const core::Clustering reference = sequential.ToClustering();
  ASSERT_GT(reference.cluster_count(), 0u);
  ASSERT_GT(sequential.stats().reassignments, 0u);
  // The sequential clusterer's trie is built independently of the engine.
  const bgp::PrefixTable::Flat reference_flat =
      sequential.table().CompileFlat();

  for (const int shards : {1, 2, 8}) {
    EngineConfig config;
    config.shards = shards;
    config.log_name = "script";
    Engine engine(config);
    const int engine_source = engine.SeedSnapshot(seed);
    engine.Start();
    // Every write entry point in rotation; all of them must end in the
    // same absorb-and-publish path.
    std::size_t tick = 0;
    ReplayScript(
        requests, updates,
        [&](const weblog::CompactRequest& r) {
          engine.Observe(r.client, r.url_id, r.response_bytes, r.timestamp);
        },
        [&](std::span<const bgp::UpdateMessage> burst) {
          switch (tick++ % 3) {
            case 0:
              engine.ApplyUpdateBatch(burst, engine_source);
              break;
            case 1:
              for (const bgp::UpdateMessage& u : burst) {
                engine.ApplyUpdate(u, engine_source);
              }
              break;
            default:
              for (const bgp::UpdateMessage& u : burst) {
                for (const Prefix& prefix : u.withdrawn) {
                  engine.Withdraw(prefix);
                }
                for (const Prefix& prefix : u.announced) {
                  engine.Announce(prefix, engine_source,
                                  u.as_path.empty() ? 0 : u.as_path.back());
                }
              }
          }
        });
    const core::Clustering live = engine.Snapshot();
    engine.Stop();
    EXPECT_TRUE(engine.AcquireTable().flat().ResolvesIdentically(
        reference_flat))
        << "engine with " << shards
        << " shard(s) published a directory unlike the sequential table";

    EXPECT_EQ(live.client_count(), reference.client_count()) << shards;
    EXPECT_EQ(live.cluster_count(), reference.cluster_count()) << shards;
    EXPECT_EQ(live.unclustered.size(), reference.unclustered.size())
        << shards;
    EXPECT_TRUE(live == reference)
        << "engine with " << shards
        << " shard(s) diverged from the sequential replay";
  }
}

// ---------------------------------------------------------------------------
// Churn under load: heavy interleaving with small rings, so the blocking
// backpressure path and the swap path run concurrently with lookups.

TEST(Engine, ChurnUnderLoadStaysConsistent) {
  const auto& world = netclust::testing::GetSmallWorld();
  const synth::VantageGenerator vantages(world.internet,
                                         synth::DefaultVantageProfiles());
  const auto updates = vantages.MakeUpdateStream(0, 0, 0, 1, 0);
  const auto& requests = world.generated.log.requests();

  EngineConfig config;
  config.shards = 8;
  config.ring_capacity = 64;  // forces the blocking path under load
  config.log_name = "churny";
  Engine engine(config);
  const int source = engine.SeedSnapshot(vantages.MakeSnapshot(0, 0));
  engine.Start();
  ReplayScript(
      requests, updates,
      [&](const weblog::CompactRequest& r) {
        engine.Observe(r.client, r.url_id, r.response_bytes, r.timestamp);
      },
      [&](std::span<const bgp::UpdateMessage> burst) {
        engine.ApplyUpdateBatch(burst, source);
      });
  const core::Clustering live = engine.Snapshot();
  engine.Stop();

  const EngineMetrics& metrics = engine.metrics();
  EXPECT_EQ(metrics.requests_ingested.value(), requests.size());
  EXPECT_EQ(metrics.requests_processed.value(), requests.size());
  EXPECT_EQ(metrics.requests_dropped.value(), 0u);
  EXPECT_GT(metrics.reassignments.value(), 0u);
  // Every publication bumps the slot version once (seed included).
  EXPECT_EQ(engine.table_version(),
            1 + metrics.swaps_published.value());
  EXPECT_EQ(live.total_requests, requests.size());
  EXPECT_EQ(live.client_count(),
            live.unclustered.size() +
                [&] {
                  std::size_t members = 0;
                  for (const auto& cluster : live.clusters) {
                    members += cluster.members.size();
                  }
                  return members;
                }());
}

// ---------------------------------------------------------------------------
// Backpressure: with the drop policy and stopped workers, the ring fills
// deterministically and every rejected request is accounted.

TEST(Engine, DropBackpressureAccountsRejectedRequests) {
  EngineConfig config;
  config.shards = 1;
  config.ring_capacity = 16;
  config.backpressure = BackpressurePolicy::kDrop;
  Engine engine(config);

  std::size_t accepted = 0;
  for (int i = 0; i < 100; ++i) {
    accepted += engine.Observe(IpAddress(10, 0, 0, static_cast<uint8_t>(i)),
                               1, 10, i)
                    ? 1
                    : 0;
  }
  EXPECT_EQ(accepted, 16u);
  EXPECT_EQ(engine.metrics().requests_ingested.value(), 16u);
  EXPECT_EQ(engine.metrics().requests_dropped.value(), 84u);

  engine.Start();
  const core::Clustering snapshot = engine.Snapshot();
  EXPECT_EQ(engine.metrics().requests_processed.value(), 16u);
  EXPECT_EQ(snapshot.total_requests, 16u);
  // No table was ever seeded: everything is unclustered.
  EXPECT_EQ(snapshot.unclustered.size(), snapshot.client_count());
}

TEST(Engine, ZeroRingCapacityFallsBackToDefault) {
  // ring_capacity = 0 used to degenerate into a 1-slot ring that rejected
  // every burst; it must select the default capacity instead, like
  // shards <= 0 does.
  EngineConfig config;
  config.shards = 1;
  config.ring_capacity = 0;
  config.backpressure = BackpressurePolicy::kDrop;
  Engine engine(config);

  const std::size_t default_capacity = EngineConfig{}.ring_capacity;
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < default_capacity; ++i) {
    accepted += engine.Observe(IpAddress(10, 0,
                                         static_cast<uint8_t>(i >> 8),
                                         static_cast<uint8_t>(i)),
                               1, 10, static_cast<std::int64_t>(i))
                    ? 1
                    : 0;
  }
  EXPECT_EQ(accepted, default_capacity);
  engine.Start();
  engine.Drain();
  EXPECT_EQ(engine.metrics().requests_processed.value(), default_capacity);
}

// An idle shard worker parks on its empty ring, so an engine with nothing
// to do costs (almost) no CPU.
TEST(Engine, IdleShardWorkersSleep) {
  const auto cpu_ms = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto ms = [](const timeval& t) {
      return static_cast<double>(t.tv_sec) * 1e3 +
             static_cast<double>(t.tv_usec) / 1e3;
    };
    return ms(usage.ru_utime) + ms(usage.ru_stime);
  };
  EngineConfig config;
  config.shards = 2;
  Engine engine(config);
  engine.Start();
  const double before = cpu_ms();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double used = cpu_ms() - before;
  // Two spinning workers would burn about 2 x 300 ms here.
  EXPECT_LT(used, 50.0) << "idle shard workers burned " << used << " ms CPU";

  // Parked workers still wake for work, and Stop() wakes them to exit.
  engine.Observe(IpAddress(10, 0, 0, 1), 1, 10, 0);
  EXPECT_EQ(engine.Snapshot().total_requests, 1u);
  engine.Stop();
}

TEST(Engine, ShardAssignmentSpreadsHashCollidingClients) {
  // Pre-finalizer ShardOf reduced the raw std::hash value with
  // (hash >> 33) % shards, so clients colliding in those bits all landed on
  // one shard. Pick clients that collide under that reduction and verify,
  // via drop-policy ring occupancy, that they now spread across shards.
  constexpr int kShards = 8;
  constexpr std::size_t kRing = 2;  // SpscRing floor; kept tiny on purpose
  EngineConfig config;
  config.shards = kShards;
  config.ring_capacity = kRing;
  config.backpressure = BackpressurePolicy::kDrop;
  Engine engine(config);

  std::size_t accepted = 0;
  std::size_t fed = 0;
  for (std::uint32_t i = 0; i < 1 << 16 && fed < 256; ++i) {
    const IpAddress client(10, 1, static_cast<uint8_t>(i >> 8),
                           static_cast<uint8_t>(i));
    const std::uint64_t hash = std::hash<IpAddress>{}(client);
    if ((hash >> 33) % kShards != 0) continue;  // old-scheme collider
    ++fed;
    accepted += engine.Observe(client, 1, 10, 0) ? 1 : 0;
  }
  ASSERT_EQ(fed, 256u);
  // Under the old scheme all 256 land on shard 0 and only its ring's 2
  // slots accept. A finalized hash fills every shard's ring.
  EXPECT_EQ(accepted, kShards * kRing);
  engine.Start();
}

// ---------------------------------------------------------------------------
// Serving plane: Lookup() is the documented any-thread lock-free API. This
// test is the TSan witness for that contract (the tsan CI job runs it):
// reader threads hammer Lookup()/AcquireTable() while the ingest thread
// churns announces and withdrawals through RCU swaps. Any lock or unhappy
// memory ordering on the serving path shows up as a race or a deadlock.

TEST(Engine, ConcurrentLookupVsIngestIsRaceFree) {
  EngineConfig config;
  config.shards = 2;
  config.log_name = "tsan-serving";
  Engine engine(config);
  const int source =
      engine.AddSource({"FEED", "1/1/2000", bgp::SourceKind::kBgpTable, ""});
  engine.Announce(P("10.0.0.0/8"), source, 65000);  // always-on fallback
  engine.Start();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> lookups{0};
  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&engine, &stop, &lookups, r] {
      std::uint32_t x = 0x9E3779B9u * static_cast<std::uint32_t>(r + 1);
      std::uint64_t served = 0;
      while (!stop.load()) {
        x = x * 1664525u + 1013904223u;
        // Half the probes land under the churned /16, half under the
        // stable /8 fallback.
        const IpAddress address(0x0A000000u | (x & 0x0001FFFFu));
        const auto match = engine.Lookup(address);
        ASSERT_TRUE(match.has_value());  // the /8 always covers it
        // Snapshot handles may be held across churn; the prefix in the
        // match must come from a coherent table, never a torn one.
        ASSERT_GE(match->prefix.length(), 8);
        if ((served & 0xFF) == 0) {
          const bgp::TableHandle table = engine.AcquireTable();
          ASSERT_GE(table.flat().size(), 1u);
        }
        ++served;
        lookups.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Ingest thread (this one): churn a /16 and a more-specific /24 under
  // the readers' probe range, forcing RCU swaps and origin flips.
  for (int round = 0; round < 200; ++round) {
    engine.Announce(P("10.0.0.0/16"), source,
                    static_cast<bgp::AsNumber>(100 + round));
    engine.Announce(P("10.0.1.0/24"), source,
                    static_cast<bgp::AsNumber>(200 + round));
    engine.Withdraw(P("10.0.1.0/24"));
    engine.Withdraw(P("10.0.0.0/16"));
  }
  // On a single-CPU host the churn loop can finish before the readers are
  // ever scheduled; hold the stop flag until every reader has demonstrably
  // served lookups against the churned table.
  while (lookups.load(std::memory_order_relaxed) <
         static_cast<std::uint64_t>(kReaders) * 256) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_GT(lookups.load(), 0u);
  EXPECT_EQ(engine.metrics().lookups_served.value(), lookups.load());
  // 200 rounds x 4 events, plus the pre-Start announce.
  EXPECT_EQ(engine.metrics().swaps_published.value(), 801u);
  engine.Drain();
  engine.Stop();
}

// ---------------------------------------------------------------------------
// Batched serving: LookupBatch must agree with per-address Lookup answer
// for answer, including across table churn, and count its own metrics.

TEST(Engine, LookupBatchMatchesSingleLookups) {
  EngineConfig config;
  config.shards = 1;
  config.log_name = "batch";
  Engine engine(config);
  const int source =
      engine.AddSource({"FEED", "1/1/2000", bgp::SourceKind::kBgpTable, ""});
  ASSERT_GE(source, 0);
  engine.Announce(P("10.0.0.0/8"), source, 65000);
  engine.Announce(P("10.1.0.0/16"), source, 65001);
  engine.Announce(P("10.1.2.0/24"), source, 65002);

  const auto probe_all = [&](std::size_t expected_found) {
    std::vector<IpAddress> addresses;
    for (std::uint32_t i = 0; i < 300; ++i) {
      // Mix of /24, /16, /8 coverage plus uncovered space.
      addresses.push_back(IpAddress(0x0A010200u + (i & 0xFF)));
      addresses.push_back(IpAddress(0x0A010000u + (i * 257u & 0xFFFFu)));
      addresses.push_back(IpAddress(0x0A000000u + (i * 65537u & 0xFFFFFFu)));
      addresses.push_back(IpAddress(0x63000000u + i));  // 99/8: no match
    }
    std::vector<std::optional<bgp::PrefixTable::Match>> batched(
        addresses.size());
    const std::size_t found = engine.LookupBatch(addresses, batched);
    std::size_t single_found = 0;
    for (std::size_t i = 0; i < addresses.size(); ++i) {
      const auto single = engine.Lookup(addresses[i]);
      ASSERT_EQ(batched[i].has_value(), single.has_value()) << i;
      if (!single.has_value()) continue;
      ++single_found;
      EXPECT_EQ(batched[i]->prefix, single->prefix) << i;
      EXPECT_EQ(batched[i]->kind, single->kind) << i;
      EXPECT_EQ(batched[i]->source_mask, single->source_mask) << i;
      EXPECT_EQ(batched[i]->origin_as, single->origin_as) << i;
    }
    EXPECT_EQ(found, single_found);
    EXPECT_EQ(found, expected_found);
  };
  probe_all(900);  // all but the 99/8 probes resolve

  // Withdraw the /24: batched answers must follow the new snapshot.
  engine.Withdraw(P("10.1.2.0/24"));
  probe_all(900);  // still covered by /16 and /8, different prefixes

  // A short output span bounds the batch; the extra addresses are ignored.
  std::vector<IpAddress> addresses(10, IpAddress(10, 1, 2, 3));
  std::vector<std::optional<bgp::PrefixTable::Match>> small(4);
  EXPECT_EQ(engine.LookupBatch(addresses, small), 4u);
  EXPECT_GT(engine.metrics().batch_lookups.value(), 0u);
}

// ---------------------------------------------------------------------------
// The live-feed ingest contract: a burst of UPDATEs publishes ONCE, and
// updates that change nothing publish NOT AT ALL (counted no-ops).

TEST(Engine, UpdateBatchPublishesOnceAndCountsNoops) {
  EngineConfig config;
  config.shards = 1;
  config.log_name = "burst";
  Engine engine(config);
  const int source =
      engine.AddSource({"FEED", "1/1/2000", bgp::SourceKind::kBgpTable, ""});
  ASSERT_GE(source, 0);
  engine.Start();

  std::vector<bgp::UpdateMessage> burst(4);
  burst[0].announced = {P("10.0.0.0/8")};
  burst[0].as_path = {65000};
  burst[1].announced = {P("10.1.0.0/16")};
  burst[1].as_path = {65001};
  burst[2].announced = {P("10.1.0.0/16")};  // duplicate: counted no-op
  burst[2].as_path = {65001};
  burst[3].withdrawn = {P("172.16.0.0/12")};  // absent: counted no-op
  const std::uint64_t version_before = engine.table_version();
  EXPECT_EQ(engine.ApplyUpdateBatch(burst, source), 2u);
  EXPECT_EQ(engine.metrics().update_batches.value(), 1u);
  EXPECT_EQ(engine.metrics().updates_ingested.value(), 4u);
  EXPECT_EQ(engine.metrics().updates_noop.value(), 2u);
  // One burst, one swap: the version moved exactly once for 4 updates.
  EXPECT_EQ(engine.table_version(), version_before + 1);
  EXPECT_EQ(engine.metrics().swaps_published.value(), 1u);

  // An all-no-op burst must not publish at all — no recompile, no version
  // bump, nothing for the mapping tier to invalidate.
  std::vector<bgp::UpdateMessage> idle(2);
  idle[0].announced = {P("10.0.0.0/8")};
  idle[0].as_path = {65000};
  idle[1].withdrawn = {P("192.0.2.0/24")};
  EXPECT_EQ(engine.ApplyUpdateBatch(idle, source), 0u);
  EXPECT_EQ(engine.table_version(), version_before + 1);
  EXPECT_EQ(engine.metrics().swaps_published.value(), 1u);
  EXPECT_EQ(engine.metrics().updates_noop.value(), 4u);

  // Serving reflects the burst's net effect.
  const auto match = engine.Lookup(IpAddress(10, 1, 2, 3));
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->prefix, P("10.1.0.0/16"));
  engine.Stop();
}

// ---------------------------------------------------------------------------
// Metrics: counters and histograms are wired and exposed as plain text.

TEST(Engine, MetricsExpositionCoversAllPaths) {
  EngineConfig config;
  config.shards = 2;
  config.log_name = "metrics";
  Engine engine(config);
  const int source = engine.AddSource(
      {"FEED", "1/1/2000", bgp::SourceKind::kBgpTable, ""});
  engine.Start();
  engine.Announce(P("12.0.0.0/8"), source);
  for (int i = 0; i < 5; ++i) {
    engine.Observe(IpAddress(12, 0, 0, static_cast<uint8_t>(i)), 7, 100, i);
  }
  engine.Announce(P("12.0.0.0/9"), source);  // splits all five clients
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(engine.Lookup(IpAddress(12, 0, 0, 1)).has_value());
  }
  engine.Drain();

  const EngineMetrics& metrics = engine.metrics();
  EXPECT_EQ(metrics.requests_ingested.value(), 5u);
  EXPECT_EQ(metrics.requests_processed.value(), 5u);
  EXPECT_EQ(metrics.updates_ingested.value(), 2u);
  EXPECT_EQ(metrics.swaps_published.value(), 2u);
  EXPECT_EQ(metrics.lookups_served.value(), 3u);
  EXPECT_EQ(metrics.reassignments.value(), 5u);
  EXPECT_EQ(metrics.lookup_ns.count(), 5u);
  EXPECT_GT(metrics.swap_build_ns.count(), 0u);
  EXPECT_GT(metrics.swap_apply_ns.count(), 0u);

  const std::string text = engine.MetricsText();
  EXPECT_NE(text.find("netclust_engine_requests_ingested_total 5"),
            std::string::npos);
  EXPECT_NE(text.find("netclust_engine_swaps_published_total 2"),
            std::string::npos);
  EXPECT_NE(text.find("netclust_engine_reassignments_total 5"),
            std::string::npos);
  EXPECT_NE(text.find("netclust_engine_lookup_ns_count 5"),
            std::string::npos);
  EXPECT_NE(text.find("netclust_engine_lookup_ns_bucket{le=\"+Inf\"} 5"),
            std::string::npos);

  const core::Clustering snapshot = engine.Snapshot();
  engine.Stop();
  ASSERT_EQ(snapshot.cluster_count(), 1u);
  EXPECT_EQ(snapshot.clusters[0].key, P("12.0.0.0/9"));
  EXPECT_EQ(snapshot.clusters[0].members.size(), 5u);
}

}  // namespace
}  // namespace netclust::engine
