// Real-time (streaming) client clustering.
//
// §3.5: "Self-correction and adaptation is also very important to generate
// client clusters using real-time routing information and producing
// real-time client cluster identification results. By real-time cluster
// identifying we mean application of cluster identifying techniques to
// very recent server log data (within the last few minutes)."
//
// StreamingClusterer consumes two event streams incrementally:
//   * data plane — one Observe() per request, as the server logs it;
//   * routing plane — Announce/Withdraw (or whole BGP UPDATE messages),
//     as a route collector feeds them.
// Cluster membership is kept consistent with the *current* table: a route
// change re-resolves exactly the clients it can affect (those under the
// changed prefix), not the whole population. The assignment machinery
// itself lives in core/assignment.h, shared with the sharded concurrent
// engine (src/engine), which runs the same state machine per shard against
// RCU-published table snapshots.
//
// Accounting semantics under routing churn: per-client request/byte
// tallies are exact and move with the client; per-cluster unique-URL sets
// are not split on reassignment (they remain a property of the traffic the
// cluster actually absorbed while it existed).
//
// Thread safety: every public method is safe to call concurrently — a
// route-collector thread may feed the routing plane while a log-tailing
// thread feeds the data plane. One base::Mutex guards the table, the
// assignment state and the stats (annotated GUARDED_BY, enforced at
// compile time on Clang builds); the sharded engine (src/engine) is the
// lock-free path for workloads where this coarse lock would contend.
// table() returns a reference and is the exception: it is only meaningful
// once mutators have quiesced.
#pragma once

#include <cstdint>
#include <string>

#include "base/sync.h"
#include "bgp/prefix_table.h"
#include "bgp/update.h"
#include "core/assignment.h"
#include "core/cluster.h"
#include "weblog/log.h"

namespace netclust::core {

class StreamingClusterer {
 public:
  struct Stats {
    std::uint64_t requests = 0;
    std::size_t announce_events = 0;
    std::size_t withdraw_events = 0;
    /// Clients moved between clusters by routing churn.
    std::size_t reassignments = 0;
  };

  explicit StreamingClusterer(std::string log_name);

  // --- routing plane ---

  /// Registers a source (mirrors bgp::PrefixTable::AddSource).
  int AddSource(const bgp::SnapshotInfo& info);

  /// Seeds the table from a full snapshot before any traffic (no
  /// reassignment needed). Returns the source id.
  int SeedSnapshot(const bgp::Snapshot& snapshot);

  /// Announces `prefix`: clients inside it whose current match is shorter
  /// are re-resolved.
  void Announce(const net::Prefix& prefix, int source_id,
                bgp::AsNumber origin_as = 0);

  /// Withdraws `prefix`: its cluster's members are re-resolved to the
  /// next-best match (possibly unclustered).
  void Withdraw(const net::Prefix& prefix);

  /// Applies a decoded BGP UPDATE (withdrawals then announcements).
  void ApplyUpdate(const bgp::UpdateMessage& update, int source_id);

  // --- data plane ---

  /// Feeds one request.
  void Observe(net::IpAddress client, std::uint32_t url_id,
               std::uint32_t bytes, std::int64_t timestamp);

  /// Feeds a whole log (convenience for replay).
  void ObserveLog(const weblog::ServerLog& log);

  // --- views (each takes the lock; consistent point-in-time reads) ---

  [[nodiscard]] std::size_t cluster_count() const {
    base::MutexLock lock(&mu_);
    return state_.live_cluster_count();
  }
  [[nodiscard]] std::size_t client_count() const {
    base::MutexLock lock(&mu_);
    return state_.client_count();
  }
  [[nodiscard]] std::size_t unclustered_count() const {
    base::MutexLock lock(&mu_);
    return state_.unclustered_count();
  }
  /// Snapshot of the event/reassignment counters (by value: the caller's
  /// copy stays consistent even while mutators keep running).
  [[nodiscard]] Stats stats() const {
    base::MutexLock lock(&mu_);
    return stats_;
  }
  /// Direct reference to the live table. Only meaningful once mutators
  /// have quiesced; concurrent Announce/Withdraw invalidate the view.
  [[nodiscard]] const bgp::PrefixTable& table() const {
    base::MutexLock lock(&mu_);
    return table_;
  }

  /// Materializes the current state as a batch-compatible Clustering, in
  /// the canonical order of AssignmentState::Merge — so it compares
  /// bit-identically against engine::Engine::Snapshot() of the same event
  /// sequence.
  [[nodiscard]] Clustering ToClustering() const;

 private:
  /// Announce/Withdraw logic shared by the public routing-plane methods;
  /// ApplyUpdate batches both under one lock acquisition.
  void AnnounceLocked(const net::Prefix& prefix, int source_id,
                      bgp::AsNumber origin_as) REQUIRES(mu_);
  void WithdrawLocked(const net::Prefix& prefix) REQUIRES(mu_);

  mutable base::Mutex mu_;
  bgp::PrefixTable table_ GUARDED_BY(mu_);
  AssignmentState<bgp::PrefixTable> state_ GUARDED_BY(mu_);
  Stats stats_ GUARDED_BY(mu_);
  std::string log_name_;  // immutable after construction
};

}  // namespace netclust::core
