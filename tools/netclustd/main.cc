// netclustd: the cluster-lookup daemon.
//
//   $ netclustd --snapshot rib.txt --port 4730
//
// Owns one engine::Engine, seeds its prefix table from routing-table
// snapshot files (text or MRT, auto-detected), then serves the binary
// wire protocol (src/server/proto.h) on loopback: lock-free BATCH_LOOKUP
// and RANK on N shared-nothing reactors (one epoll + SO_REUSEPORT
// listener + connection arena each), INGEST_UPDATE through the single
// ingest thread, STATS and PING. SIGTERM/SIGINT trigger a graceful
// drain — stop accepting, finish in-flight frames, exit 0.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "bgp/io.h"
#include "cluster/partitioner.h"
#include "engine/engine.h"
#include "mapping/rank_table.h"
#include "net/prefix.h"
#include "server/io_util.h"
#include "server/server.h"

namespace {

// Self-pipe for async-signal-safe shutdown: the handler only write()s one
// byte; main blocks reading the other end.
int g_signal_pipe[2] = {-1, -1};

void OnTermSignal(int) {
  const char byte = 1;
  // A failed wake (full pipe) is fine: one byte is already in flight.
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --port N              listen port on 127.0.0.1 (default 4730; 0 = ephemeral)\n"
      "  --snapshot FILE       seed the table from FILE (repeatable; one source each)\n"
      "  --live-sources N      extra empty ingest sources for live feeds (default 1)\n"
      "  --live-bgp4mp FILE    replay FILE (MRT BGP4MP) as a live churn feed:\n"
      "                        decoded UPDATE bursts flow through the ingest\n"
      "                        thread, one incremental publish per burst\n"
      "  --live-batch N        updates per live-feed publish (default 64)\n"
      "  --reactors N          shared-nothing reactors (default 2;\n"
      "                        --readers is accepted as an alias)\n"
      "  --shards N            engine worker shards (default 1)\n"
      "  --max-connections N   connection ceiling (default 64)\n"
      "  --max-inflight N      in-flight frame ceiling (default 128)\n"
      "  --idle-timeout-ms N   reap idle connections after N ms (default 30000)\n"
      "  --mapping-cache N     per-reactor /24 mapping-cache entries\n"
      "                        (default 0 = disabled)\n"
      "  --rank-default LIST   comma-separated server ids installed as the\n"
      "                        default CDN ranking for RANK\n"
      "  --print-port          print only the bound port on stdout (for scripts)\n"
      "  --cluster-node N      enable cluster mode with this node id\n"
      "  --peer ID:HOST:PORT   fleet member (repeatable, include this node);\n"
      "                        with peers given, an epoch-1 topology aligned\n"
      "                        to the seeded prefixes is installed at boot —\n"
      "                        without, the node waits for SET_TOPOLOGY\n",
      argv0);
}

// "ID:HOST:PORT" -> NodeInfo; HOST must be a dotted quad.
netclust::Result<netclust::server::NodeInfo> ParsePeer(
    const std::string& text) {
  using netclust::Fail;
  const std::size_t first = text.find(':');
  const std::size_t second =
      first == std::string::npos ? std::string::npos
                                 : text.find(':', first + 1);
  if (second == std::string::npos) {
    return Fail("--peer wants ID:HOST:PORT, got '" + text + "'");
  }
  netclust::server::NodeInfo node;
  node.id = static_cast<std::uint32_t>(
      std::atoll(text.substr(0, first).c_str()));
  auto host = netclust::net::IpAddress::Parse(
      text.substr(first + 1, second - first - 1));
  if (!host.ok()) return Fail("--peer host: " + host.error());
  node.host = host.value();
  node.port =
      static_cast<std::uint16_t>(std::atoi(text.substr(second + 1).c_str()));
  return node;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace netclust;

  server::ServerConfig config;
  config.port = 4730;
  engine::EngineConfig engine_config;
  engine_config.shards = 1;
  engine_config.log_name = "netclustd";
  std::vector<std::string> snapshot_paths;
  std::string live_bgp4mp_path;
  int live_sources = 1;
  bool print_port = false;
  std::vector<std::string> peer_specs;
  std::string rank_default;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--port" && has_value) {
      config.port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    } else if (arg == "--snapshot" && has_value) {
      snapshot_paths.emplace_back(argv[++i]);
    } else if (arg == "--live-sources" && has_value) {
      live_sources = std::atoi(argv[++i]);
    } else if (arg == "--live-bgp4mp" && has_value) {
      live_bgp4mp_path = argv[++i];
    } else if (arg == "--live-batch" && has_value) {
      config.live_batch_size = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if ((arg == "--reactors" || arg == "--readers") && has_value) {
      // --readers predates the reactor model; kept as an alias so older
      // scripts keep working.
      config.reactors = std::atoi(argv[++i]);
    } else if (arg == "--shards" && has_value) {
      engine_config.shards = std::atoi(argv[++i]);
    } else if (arg == "--max-connections" && has_value) {
      config.max_connections = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--max-inflight" && has_value) {
      config.max_inflight_frames =
          static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--idle-timeout-ms" && has_value) {
      config.idle_timeout_ms = std::atoi(argv[++i]);
    } else if (arg == "--mapping-cache" && has_value) {
      config.mapping_cache_capacity =
          static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--rank-default" && has_value) {
      rank_default = argv[++i];
    } else if (arg == "--print-port") {
      print_port = true;
    } else if (arg == "--cluster-node" && has_value) {
      config.cluster_node_id = std::atoll(argv[++i]);
    } else if (arg == "--peer" && has_value) {
      peer_specs.emplace_back(argv[++i]);
    } else {
      Usage(argv[0]);
      return 2;
    }
  }

  // Install signal handling before any long-running work (snapshot
  // loading, engine start, serving): a SIGTERM/SIGINT landing at any point
  // after this must take the graceful-drain path, never the default
  // action, and writes to dead sockets must never raise SIGPIPE.
  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "netclustd: pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction action {};
  action.sa_handler = OnTermSignal;
  ::sigemptyset(&action.sa_mask);
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  if (!peer_specs.empty() && config.cluster_node_id < 0) {
    std::fprintf(stderr, "netclustd: --peer requires --cluster-node\n");
    return 2;
  }

  engine::Engine engine(engine_config);
  int sources = 0;
  std::size_t seeded_prefixes = 0;
  std::vector<net::Prefix> seeded_prefix_list;
  for (const std::string& path : snapshot_paths) {
    auto loaded = bgp::LoadSnapshotFile(path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "netclustd: %s: %s\n", path.c_str(),
                   loaded.error().c_str());
      return 1;
    }
    if (config.cluster_node_id >= 0) {
      for (const bgp::RouteEntry& entry : loaded.value().snapshot.entries) {
        seeded_prefix_list.push_back(entry.prefix);
      }
    }
    const int id = engine.SeedSnapshot(loaded.value().snapshot);
    if (id == bgp::PrefixTable::kInvalidSource) {
      std::fprintf(stderr, "netclustd: %s: source limit (%d) exhausted\n",
                   path.c_str(), bgp::PrefixTable::kMaxSources);
      return 1;
    }
    std::fprintf(stderr,
                 "netclustd: source %d <- %s (%zu entries, %zu skipped)\n", id,
                 path.c_str(), loaded.value().snapshot.entries.size(),
                 loaded.value().skipped);
    seeded_prefixes += loaded.value().snapshot.entries.size();
    ++sources;
  }
  for (int i = 0; i < live_sources; ++i) {
    bgp::SnapshotInfo info;
    info.name = "live" + std::to_string(i);
    info.kind = bgp::SourceKind::kBgpTable;
    info.comment = "runtime INGEST_UPDATE feed";
    const int id = engine.AddSource(info);
    if (id == bgp::PrefixTable::kInvalidSource) {
      std::fprintf(stderr, "netclustd: live source limit (%d) exhausted\n",
                   bgp::PrefixTable::kMaxSources);
      return 1;
    }
    std::fprintf(stderr, "netclustd: source %d <- %s (live)\n", id,
                 info.name.c_str());
    ++sources;
  }
  if (!live_bgp4mp_path.empty()) {
    // The churn feed gets its own attributed source, so STATS can tell
    // replayed-feed prefixes apart from wire INGEST_UPDATE traffic.
    bgp::SnapshotInfo info;
    info.name = "live-bgp4mp";
    info.kind = bgp::SourceKind::kBgpTable;
    info.comment = live_bgp4mp_path;
    const int id = engine.AddSource(info);
    if (id == bgp::PrefixTable::kInvalidSource) {
      std::fprintf(stderr, "netclustd: live source limit (%d) exhausted\n",
                   bgp::PrefixTable::kMaxSources);
      return 1;
    }
    config.live_bgp4mp_path = live_bgp4mp_path;
    config.live_source_id = id;
    std::fprintf(stderr, "netclustd: source %d <- %s (live BGP4MP feed)\n",
                 id, live_bgp4mp_path.c_str());
    ++sources;
  }
  config.source_count = sources;

  if (!rank_default.empty()) {
    // "1,2,3" -> default ranking. Per-cluster rankings arrive via future
    // tooling; the default gives RANK a server on every daemon today.
    std::vector<std::uint16_t> servers;
    std::size_t start = 0;
    while (start <= rank_default.size()) {
      const std::size_t comma = rank_default.find(',', start);
      const std::size_t end =
          comma == std::string::npos ? rank_default.size() : comma;
      if (end > start) {
        servers.push_back(static_cast<std::uint16_t>(
            std::atoi(rank_default.substr(start, end - start).c_str())));
      }
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    if (servers.empty()) {
      std::fprintf(stderr, "netclustd: --rank-default has no server ids\n");
      return 2;
    }
    auto ranks = std::make_shared<mapping::RankTable>();
    ranks->SetDefault(std::move(servers));
    config.rank_table = std::move(ranks);
    std::fprintf(stderr,
                 "netclustd: default CDN ranking installed (%zu servers)\n",
                 config.rank_table->default_ranking().size());
  }

  engine.Start();
  server::Server daemon(&engine, config);
  if (!peer_specs.empty()) {
    // Shard the address space across the declared fleet, aligned to the
    // seeded prefixes so no routing cluster straddles a shard edge. Every
    // peer computes the identical epoch-1 topology from the same flags.
    std::vector<server::NodeInfo> peers;
    for (const std::string& spec : peer_specs) {
      auto node = ParsePeer(spec);
      if (!node.ok()) {
        std::fprintf(stderr, "netclustd: %s\n", node.error().c_str());
        return 2;
      }
      peers.push_back(node.value());
    }
    auto topo = cluster::BuildTopology(1, std::move(peers),
                                       seeded_prefix_list);
    if (!topo.ok()) {
      std::fprintf(stderr, "netclustd: %s\n", topo.error().c_str());
      return 1;
    }
    auto installed = daemon.SetTopology(topo.value());
    if (!installed.ok()) {
      std::fprintf(stderr, "netclustd: %s\n", installed.error().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "netclustd: cluster node %lld, epoch 1 topology over %zu "
                 "peers (%zu shard ranges)\n",
                 static_cast<long long>(config.cluster_node_id),
                 topo.value().nodes.size(), topo.value().ranges.size());
  }
  auto port = daemon.Serve();
  if (!port.ok()) {
    std::fprintf(stderr, "netclustd: %s\n", port.error().c_str());
    return 1;
  }
  if (print_port) {
    std::printf("%u\n", port.value());
    std::fflush(stdout);
  }
  std::fprintf(stderr,
               "netclustd: listening on 127.0.0.1:%u (%zu seeded entries, "
               "table %zu prefixes, %d sources)\n",
               port.value(), seeded_prefixes,
               engine.AcquireTable().flat().size(), sources);

  // Block until a termination signal lands (EINTR-safe).
  char byte = 0;
  (void)server::RetryRead(g_signal_pipe[0], &byte, 1);

  std::fprintf(stderr, "netclustd: draining...\n");
  daemon.Stop();
  engine.Stop();
  std::fprintf(stderr, "netclustd: drained, exiting\n");
  return 0;
}
