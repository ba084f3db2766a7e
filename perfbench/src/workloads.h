// The three workloads: seeded inputs, set-up of the system under test, and
// the measured phases of the untraced run.
//
//   paper_cdn      merged 14-vantage table (NETCLUST_SCALE), Nagano client
//                  stream in log order, one address per frame, 2 reactors
//                  with the /24 mapping tier on.
//   dfz_batch      seeded ~1M-prefix full-DFZ table, uniform addresses over
//                  the covered space in 256-address frames, same server.
//   dfz_churn      the same table; single-prefix INGEST_UPDATEs sent
//                  closed-loop while an open-loop reader on the updater's
//                  reactor keeps looking up addresses outside the churned
//                  /24s; then the whole table is checked after the last ack.
//
// Every workload publishes: the contract asks each run for every
// end-to-end metric, so the other two send their updates in slices
// between lookup rounds, with no reader running. Updates never touch a /24
// the lookup stream asks for, so every lookup answer is checked live.
// The fleet path (cluster module) is measured by the traced ladder only.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bgp/prefix_table.h"
#include "bgp/update.h"
#include "common.h"
#include "dfz.h"
#include "engine/engine.h"
#include "server/server.h"

namespace perfbench {

/// Per-reactor /24 mapping-cache capacity (the tier is on everywhere).
inline constexpr std::size_t kMappingCapacity = 1024;
/// Cluster nodes of the traced ladder's fleet rung.
inline constexpr std::size_t kFleetNodes = 3;

enum class Kind { kPaperCdn, kDfzBatch, kDfzChurn };

struct Options {
  Kind kind = Kind::kPaperCdn;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool corrupt_oracle = false;
};

/// Fixed knobs of one workload.
struct Params {
  std::size_t frame_size = 1;        // addresses per lookup frame
  std::size_t conns_per_reactor = 2;
  double open_rate = 0;              // open-loop frames per second
  std::size_t window = 16;           // closed-loop frames in flight per conn
  std::size_t updates = 0;           // INGEST_UPDATEs per run
  int setup_repeats = 3;
};
Params ParamsFor(Kind kind);

/// One single-prefix route change (withdraw an existing prefix, or
/// announce a new one) and its effect on the oracle.
struct RouteChange {
  netclust::net::Prefix prefix;
  bool announce = false;
  std::uint32_t origin_as = 0;
};

/// Everything generated from the seed before the system sees it.
struct Inputs {
  std::vector<netclust::bgp::Snapshot> snapshots;  // engine seed, in order
  netclust::bgp::PrefixTable oracle;               // built independently
  Stream stream;                                   // lookups + expected
  std::vector<RouteChange> changes;                // the run's updates
  std::optional<DfzTable> dfz;                     // dfz_* only
  std::size_t table_prefixes = 0;
};

Inputs MakeInputs(const Options& options, const Params& params);

/// The single-prefix BGP UPDATE for one change.
netclust::bgp::UpdateMessage ToUpdate(const RouteChange& change);

/// Applies `change` to the oracle exactly as the engine's ingest path
/// applies it to its table (source 0).
void ApplyToOracle(const RouteChange& change, netclust::bgp::PrefixTable* oracle);

/// One engine + one standalone server on loopback.
struct Node {
  std::unique_ptr<netclust::engine::Engine> engine;
  std::unique_ptr<netclust::server::Server> server;
  std::uint16_t port = 0;
  ~Node();
};

netclust::server::ServerConfig StandaloneConfig(const Inputs& inputs);
/// Seeds and starts an engine (1 shard, like netclustd's default);
/// `workers`, if given, receives the thread ids of its shard workers.
std::unique_ptr<netclust::engine::Engine> SeedEngine(
    const Inputs& inputs, std::vector<pid_t>* workers = nullptr);

/// Runs the untraced workload: repeated set-up, the measured phases and
/// the oracle checks. Fills the end-to-end metrics; returns the tally.
Tally RunWorkload(const Options& options, Inputs* inputs, Metrics* metrics);

/// Threads that may be busy at once during the workload (generator +
/// reactors + busy ingest + shard workers); must not exceed nproc.
int ThreadBudget(Kind kind);

/// Share of one CPU the engine's shard workers used over a measured span:
/// they poll their rings with sched_yield() even when idle.
inline constexpr const char* kShardCpuShare = "engine.shard_cpu_share";

}  // namespace perfbench
