// Server-side observability: counters and service-time histograms for the
// netclustd daemon, alongside (and in the same exposition format as) the
// engine's EngineMetrics. Everything is wait-free and bumpable from any
// reader thread; the STATS frame returns the concatenation of this set and
// the engine's.
#pragma once

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>

#include "engine/metrics.h"

namespace netclust::server {

/// Upper bound (ns) of the bucket containing the q-quantile of `histogram`
/// (0 < q <= 1), computed from the fixed geometric buckets — the scrape
/// contract: a bound, not an interpolation. 0 when the histogram is empty.
[[nodiscard]] inline std::uint64_t HistogramQuantileNs(
    const engine::LatencyHistogram& histogram, double q) {
  const std::uint64_t count = histogram.count();
  if (count == 0) return 0;
  const auto rank =
      static_cast<std::uint64_t>(q * static_cast<double>(count) + 0.5);
  const std::uint64_t target = rank == 0 ? 1 : rank;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < engine::LatencyHistogram::kFiniteBuckets; ++i) {
    cumulative += histogram.bucket(i);
    if (cumulative >= target) {
      return engine::LatencyHistogram::BucketBound(i);
    }
  }
  // Overflow bucket: report the largest finite bound (the histogram's
  // resolution limit, ~1s).
  return engine::LatencyHistogram::BucketBound(
      engine::LatencyHistogram::kFiniteBuckets - 1);
}

/// Per-reactor observability. Each reactor owns one of these; only its
/// own thread bumps the counters, but STATS scrapes read them from
/// whichever reactor serves the frame, so they stay atomics. The summed
/// view (and the per-reactor breakdown) is appended to the STATS body by
/// Server::StatsText.
struct ReactorMetrics {
  engine::Counter connections_accepted;  // accepts landed on this listener
  engine::Counter frames_decoded;
  engine::Counter lookups_served;  // addresses answered (batch expanded)
  engine::Counter busy_replies;
  engine::Counter short_writes;  // replies parked behind EPOLLOUT
  /// Reply frames queued on this reactor's connections but not yet fully
  /// flushed — the per-reactor backpressure gauge that max_inflight_frames
  /// bounds. A gauge, not a Counter: it goes down as flushes complete.
  std::atomic<std::int64_t> inflight_frames{0};
};

/// The daemon's metric set. A gauge for active connections plus monotonic
/// counters for every accept/decode/serve outcome.
struct ServerMetrics {
  engine::Counter connections_accepted;
  engine::Counter connections_closed;    // orderly close or error
  engine::Counter connections_reaped;    // idle-timeout reaper
  engine::Counter connections_rejected;  // over max_connections (BUSY+close)
  engine::Counter frames_decoded;        // well-formed request frames
  engine::Counter frames_rejected;       // framing/payload violations
  engine::Counter busy_replies;          // explicit backpressure responses
  engine::Counter errors_sent;
  /// Addresses answered by BATCH_LOOKUP and CLUSTER_LOOKUP (batch
  /// expanded).
  engine::Counter lookups_served;
  engine::Counter ingests_applied;     // INGEST_UPDATE frames acked
  engine::Counter live_updates;        // UPDATEs absorbed from --live-bgp4mp
  engine::Counter live_batches;        // live-feed bursts published
  engine::Counter live_state_changes;  // peer FSM transitions in the feed
  engine::Counter live_decode_errors;  // malformed/truncated live records
  engine::Counter stats_served;
  engine::Counter pings_served;
  engine::Counter redirects_sent;          // cluster REDIRECT responses
  /// The CLUSTER_LOOKUP share of lookups_served.
  engine::Counter cluster_lookups_served;
  engine::Counter topology_installs;       // SET_TOPOLOGY frames adopted
  engine::Counter topologies_served;       // TOPOLOGY fetches answered
  engine::Counter cluster_stats_served;    // CLUSTER_STATS frames answered
  engine::Counter ranks_served;            // RANK frames answered
  engine::Counter bytes_read;
  engine::Counter bytes_written;
  /// Frame service time: last payload byte decoded -> response queued on
  /// the connection (BATCH_LOOKUP, CLUSTER_LOOKUP and RANK frames only —
  /// the serving path; wire flush time is the client-side round-trip's
  /// share).
  engine::LatencyHistogram lookup_service_ns;

  /// Live connection count. A gauge, not a Counter: it goes down.
  std::atomic<std::int64_t> connections_active{0};

  [[nodiscard]] std::string Exposition() const {
    std::ostringstream out;
    const auto counter = [&out](const char* name, const engine::Counter& c) {
      out << "netclust_server_" << name << "_total " << c.value() << "\n";
    };
    counter("connections_accepted", connections_accepted);
    counter("connections_closed", connections_closed);
    counter("connections_reaped", connections_reaped);
    counter("connections_rejected", connections_rejected);
    counter("frames_decoded", frames_decoded);
    counter("frames_rejected", frames_rejected);
    counter("busy_replies", busy_replies);
    counter("errors_sent", errors_sent);
    counter("lookups_served", lookups_served);
    counter("ingests_applied", ingests_applied);
    counter("live_updates", live_updates);
    counter("live_batches", live_batches);
    counter("live_state_changes", live_state_changes);
    counter("live_decode_errors", live_decode_errors);
    counter("stats_served", stats_served);
    counter("pings_served", pings_served);
    counter("redirects_sent", redirects_sent);
    counter("cluster_lookups_served", cluster_lookups_served);
    counter("topology_installs", topology_installs);
    counter("topologies_served", topologies_served);
    counter("cluster_stats_served", cluster_stats_served);
    counter("ranks_served", ranks_served);
    counter("bytes_read", bytes_read);
    counter("bytes_written", bytes_written);
    // order: relaxed — scrape-style read, same contract as the counters.
    out << "netclust_server_connections_active "
        << connections_active.load(std::memory_order_relaxed) << "\n";

    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < engine::LatencyHistogram::kFiniteBuckets;
         ++i) {
      cumulative += lookup_service_ns.bucket(i);
      out << "netclust_server_lookup_service_ns_bucket{le=\""
          << engine::LatencyHistogram::BucketBound(i) << "\"} " << cumulative
          << "\n";
    }
    cumulative +=
        lookup_service_ns.bucket(engine::LatencyHistogram::kFiniteBuckets);
    out << "netclust_server_lookup_service_ns_bucket{le=\"+Inf\"} "
        << cumulative << "\n";
    out << "netclust_server_lookup_service_ns_sum " << lookup_service_ns.sum()
        << "\n";
    out << "netclust_server_lookup_service_ns_count "
        << lookup_service_ns.count() << "\n";
    out << "netclust_server_lookup_service_p50_ns "
        << HistogramQuantileNs(lookup_service_ns, 0.50) << "\n";
    out << "netclust_server_lookup_service_p99_ns "
        << HistogramQuantileNs(lookup_service_ns, 0.99) << "\n";
    return out.str();
  }
};

}  // namespace netclust::server
