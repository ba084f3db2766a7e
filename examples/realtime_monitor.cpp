// Real-time cluster monitoring (§3.5's "real-time client cluster
// identification results").
//
//   $ ./realtime_monitor
//
// Simulates a live deployment on the concurrent engine: shard workers are
// seeded from a RIB dump, then consume the server's request stream in
// half-hour windows while a BGP feed delivers UPDATE messages between
// windows (each one an RCU snapshot swap). Per-window demand is attributed
// with the lock-free serving-plane Lookup() — the path a production
// front-end would call from any thread. After each window it prints the
// operator's view — top clusters by demand in that window — the "global
// view of where their customers are located and how their demands change
// from time to time" the paper promises providers.
#include <cstdio>
#include <map>
#include <sstream>
#include <string>

#include "bgp/update.h"
#include "engine/engine.h"
#include "synth/internet.h"
#include "synth/vantage.h"
#include "synth/workload.h"

int main() {
  using namespace netclust;

  synth::InternetConfig net_config;
  net_config.seed = 47;
  net_config.allocation_count = 3000;
  const synth::Internet internet = synth::GenerateInternet(net_config);
  const synth::VantageGenerator vantages(internet,
                                         synth::DefaultVantageProfiles());

  synth::WorkloadConfig workload;
  workload.seed = 48;
  workload.target_clients = 4000;
  workload.target_requests = 120000;
  workload.url_count = 3000;
  workload.duration_seconds = 4 * 3600;  // a busy four-hour event window
  const weblog::ServerLog log = synth::GenerateLog(internet, workload).log;

  engine::EngineConfig config;
  config.shards = 4;
  config.log_name = "event-live";
  engine::Engine engine(config);
  int feed_source = -1;
  for (std::size_t s = 0; s < vantages.profiles().size(); ++s) {
    const int id = engine.SeedSnapshot(vantages.MakeSnapshot(s, 0));
    if (vantages.profiles()[s].info.name == "OREGON") feed_source = id;
  }
  engine.Start();
  const auto feed = vantages.MakeUpdateStream(9 /*OREGON*/, 0, 0, 0, 4);
  std::printf("seeded %zu-prefix table (version %llu) across %d shards; "
              "live feed carries %zu UPDATEs\n",
              engine.AcquireTable().flat().size(),
              static_cast<unsigned long long>(engine.table_version()),
              engine.shard_count(), feed.size());

  // Replay in 30-minute windows.
  const auto& requests = log.requests();
  const std::int64_t window_len = 1800;
  std::size_t cursor = 0;
  std::size_t feed_cursor = 0;
  int window = 0;
  for (std::int64_t window_start = log.start_time();
       window_start <= log.end_time(); window_start += window_len, ++window) {
    const std::int64_t window_end = window_start + window_len;
    // Per-window demand, attributed by the currently published snapshot
    // via the lock-free serving plane.
    std::map<net::Prefix, std::uint64_t> demand;
    while (cursor < requests.size() &&
           requests[cursor].timestamp < window_end) {
      const auto& request = requests[cursor++];
      engine.Observe(request.client, request.url_id, request.response_bytes,
                     request.timestamp);
      const auto match = engine.Lookup(request.client);
      if (match.has_value()) ++demand[match->prefix];
    }

    // The busiest communities this window.
    const net::Prefix* top_prefix = nullptr;
    std::uint64_t top_requests = 0;
    std::uint64_t window_total = 0;
    for (const auto& [prefix, count] : demand) {
      window_total += count;
      if (count > top_requests) {
        top_requests = count;
        top_prefix = &prefix;
      }
    }
    std::printf("window %2d: %7llu requests, %4zu active clusters, "
                "hottest %-18s (%llu requests)\n",
                window, static_cast<unsigned long long>(window_total),
                demand.size(),
                top_prefix ? top_prefix->ToString().c_str() : "-",
                static_cast<unsigned long long>(top_requests));

    // Between windows, the routing feed ticks; each UPDATE is one RCU
    // table swap broadcast to the shards.
    const std::size_t until =
        static_cast<std::size_t>(window + 1) * feed.size() / 8;
    for (; feed_cursor < std::min(until, feed.size()); ++feed_cursor) {
      engine.ApplyUpdate(feed[feed_cursor], feed_source);
    }
  }

  const core::Clustering view = engine.Snapshot();
  const engine::EngineMetrics& metrics = engine.metrics();
  std::printf("\ntotals: %llu requests into %zu clusters; churn moved %llu "
              "clients across clusters; %zu clients currently "
              "unclustered\n",
              static_cast<unsigned long long>(
                  metrics.requests_processed.value()),
              view.cluster_count(),
              static_cast<unsigned long long>(metrics.reassignments.value()),
              view.unclustered.size());
  std::printf("table version %llu after %llu swaps; %llu lock-free lookups "
              "served\n",
              static_cast<unsigned long long>(engine.table_version()),
              static_cast<unsigned long long>(
                  metrics.swaps_published.value()),
              static_cast<unsigned long long>(metrics.lookups_served.value()));
  engine.Stop();

  // The counter section of the embedded exposition, as a scrape would see
  // it (histogram buckets elided for brevity).
  std::printf("\nmetrics exposition (counters):\n");
  std::istringstream exposition(engine.MetricsText());
  for (std::string line; std::getline(exposition, line);) {
    if (line.find("_total ") != std::string::npos) {
      std::printf("  %s\n", line.c_str());
    }
  }
  return 0;
}
