// Concurrent real-time clustering engine (§3.5 at production scale).
//
// The sequential StreamingClusterer proves the semantics; this engine runs
// the same semantics across N worker shards so a CDN-style deployment can
// sustain concurrent request ingestion while BGP churn mutates the table:
//
//   * clients are sharded by IP hash; each shard is fed through a bounded
//     lock-free SPSC ring with a configurable backpressure policy
//     (block vs. drop-with-accounting);
//   * routing updates are applied to the ingest thread's one working trie,
//     compiled into an immutable flat directory and published via
//     RCU-style atomic swap (bgp::RcuTableSlot) — lookups never take a
//     lock, and workers re-resolve only the clients under changed
//     prefixes;
//   * an embedded metrics layer (engine/metrics.h) counts and times the
//     ingest, lookup, swap and reassignment paths;
//   * Drain()/Snapshot() quiesce the shards and merge their states into a
//     canonical Clustering that is bit-identical to a sequential
//     StreamingClusterer replay of the same event sequence.
//
// Threading contract: the routing- and data-plane ingest methods (Observe,
// Announce, Withdraw, ApplyUpdate, Seed*) and the lifecycle/quiescence
// methods (Start, Stop, Drain, Snapshot) must be called from one thread
// at a time (the "ingest thread"); Lookup() and metrics reads are safe
// from any thread at any time. On Clang builds the contract is
// machine-checked (base/sync.h thread roles): ingest-side state is
// ONLY_THREAD(ingest_role_)-guarded, and each public entry point asserts
// the role — new code touching that state from an unannotated path is a
// compile error under -Werror=thread-safety.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "base/sync.h"
#include "bgp/prefix_table.h"
#include "bgp/table_handle.h"
#include "bgp/update.h"
#include "core/cluster.h"
#include "engine/config.h"
#include "engine/metrics.h"
#include "engine/shard.h"
#include "weblog/log.h"

namespace netclust::engine {

class Engine {
 public:
  explicit Engine(EngineConfig config = {});
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- lifecycle ---

  /// Spawns the shard workers. Events enqueued before Start() are buffered
  /// in the rings (subject to backpressure) and processed on start.
  void Start();

  /// Lets workers drain their rings, then joins them. Ingest must have
  /// stopped. Idempotent; the destructor calls it.
  void Stop();

  // --- routing plane (ingest thread) ---

  /// Registers a source (mirrors bgp::PrefixTable::AddSource). Returns
  /// bgp::PrefixTable::kInvalidSource once kMaxSources are registered;
  /// ingest attributed to an invalid id is dropped, never applied.
  [[nodiscard]] int AddSource(const bgp::SnapshotInfo& info);

  /// Seeds the table from a full snapshot, intended before any traffic (no
  /// client re-resolution — same contract as StreamingClusterer).
  /// Returns the source id.
  int SeedSnapshot(const bgp::Snapshot& snapshot);

  /// Announces one prefix: ApplyUpdate() of a one-prefix UPDATE.
  void Announce(const net::Prefix& prefix, int source_id,
                bgp::AsNumber origin_as = 0);

  /// Withdraws one prefix: ApplyUpdate() of a one-prefix UPDATE.
  void Withdraw(const net::Prefix& prefix);

  /// Applies one BGP UPDATE: ApplyUpdateBatch() of one update.
  void ApplyUpdate(const bgp::UpdateMessage& update, int source_id);

  /// Applies a burst of UPDATEs as ONE published snapshot: the working
  /// table absorbs every message, then a single incremental recompile +
  /// RCU swap + shard broadcast covers them all. Every routing-plane
  /// write goes through here; the live feed (netclustd --live-bgp4mp)
  /// batches to amortize the publish cost across the burst. An update
  /// that changes nothing (duplicate announce, withdraw of an absent
  /// prefix) is a counted no-op, and a burst of only those publishes
  /// nothing: no recompile, no version bump, no cache invalidation.
  /// Returns how many updates changed the table.
  std::size_t ApplyUpdateBatch(std::span<const bgp::UpdateMessage> updates,
                               int source_id);

  // --- data plane (ingest thread) ---

  /// Routes one request to its shard. Returns false when the drop
  /// backpressure policy rejected it (accounted in requests_dropped).
  bool Observe(net::IpAddress client, std::uint32_t url_id,
               std::uint32_t bytes, std::int64_t timestamp);

  /// Feeds a whole log; returns the number of accepted requests.
  std::size_t ObserveLog(const weblog::ServerLog& log);

  // --- serving plane (any thread, lock-free) ---

  /// Longest-prefix match against the current published snapshot.
  ///
  /// This is the engine's public serving API: safe to call from ANY thread
  /// at ANY time, concurrently with ingest — it takes no lock and blocks
  /// on nothing (one acquire-load of the RCU slot plus at most three
  /// array reads in the snapshot's immutable flat directory, compiled at
  /// publish time and bit-identical to a trie walk, property-tested).
  /// netclustd's reader threads call it directly per request frame; the
  /// contract is witnessed under TSan by
  /// Engine.ConcurrentLookupVsIngestIsRaceFree (tests/engine_test.cpp).
  /// A lookup races only with the *publication* of a new snapshot, never
  /// with its construction: it sees the old directory or the new one,
  /// complete either way.
  [[nodiscard]] std::optional<bgp::PrefixTable::Match> Lookup(
      net::IpAddress address) const;

  /// Batched serving-plane lookup: resolves
  /// min(addresses.size(), out.size()) addresses against ONE snapshot
  /// (single RCU acquire for the whole batch, software prefetch across
  /// the directory levels) and returns how many matched. Same thread
  /// contract as Lookup(): any thread, any time, lock-free. All answers
  /// come from the same table version — a guarantee per-address Lookup()
  /// calls cannot make across a concurrent publish.
  std::size_t LookupBatch(
      std::span<const net::IpAddress> addresses,
      std::span<std::optional<bgp::PrefixTable::Match>> out) const;

  /// The current published snapshot (refcounted; callers may hold it as
  /// long as they like).
  [[nodiscard]] bgp::TableHandle AcquireTable() const {
    return slot_.Acquire();
  }

  // --- quiescence & views (ingest thread) ---

  /// Blocks until every shard has applied every event enqueued so far.
  void Drain();

  /// Drain() + canonical merge of all shard states. Bit-identical to
  /// StreamingClusterer::ToClustering() after a sequential replay of the
  /// same event sequence (same log_name).
  [[nodiscard]] core::Clustering Snapshot();

  [[nodiscard]] int shard_count() const {
    return static_cast<int>(shards_.size());
  }
  /// Shard owning `client` (stable hash of the address).
  [[nodiscard]] int ShardOf(net::IpAddress client) const;
  [[nodiscard]] std::uint64_t table_version() const {
    return slot_.version();
  }
  [[nodiscard]] const EngineMetrics& metrics() const { return metrics_; }
  /// Plain-text metrics exposition.
  [[nodiscard]] std::string MetricsText() const {
    return metrics_.Exposition();
  }

 private:
  /// Compiles the working table's flat directory, publishes it, and
  /// broadcasts the delta to every shard (control events always block —
  /// they are never dropped). No trie is copied: `touched` drives the
  /// incremental recompile against the published directory (every prefix
  /// whose painted range must be redone — withdrawn, announced, AND
  /// refreshed); `withdrawn`/`announced` drive shard-side client
  /// re-resolution only. An empty `touched` means "everything" (the seed
  /// path) and compiles from scratch.
  void PublishDelta(std::vector<net::Prefix> withdrawn,
                    std::vector<net::Prefix> announced,
                    std::vector<net::Prefix> touched)
      REQUIRES(ingest_role_);

  /// Applies one UPDATE to the working table, appending what it removed /
  /// newly added / changed-at-all to the three accumulators. The engine's
  /// only decision between new, refresh and no-op.
  void AbsorbUpdate(const bgp::UpdateMessage& update, int source_id,
                    std::vector<net::Prefix>* withdrawn,
                    std::vector<net::Prefix>* announced,
                    std::vector<net::Prefix>* touched)
      REQUIRES(ingest_role_);

  // The single ingest/control thread's role; every public ingest-side
  // entry point asserts it (base::AssumeThreadRole) before touching the
  // guarded members below.
  base::ThreadRole ingest_role_;
  EngineConfig config_ ONLY_THREAD(ingest_role_);
  bgp::PrefixTable master_
      ONLY_THREAD(ingest_role_);  // the one trie; never published
  bgp::RcuTableSlot slot_;        // published immutable directories
  mutable EngineMetrics metrics_;
  std::vector<std::unique_ptr<ShardWorker>> shards_;
  bool running_ ONLY_THREAD(ingest_role_) = false;
};

}  // namespace netclust::engine
