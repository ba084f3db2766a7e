#include "workloads.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <unordered_set>

#include "driver.h"
#include "server/proto.h"
#include "synth/internet.h"
#include "synth/rng.h"
#include "synth/vantage.h"
#include "synth/workload.h"

namespace perfbench {

namespace bgp = netclust::bgp;
namespace net = netclust::net;
namespace proto = netclust::server;
namespace synth = netclust::synth;

namespace {

constexpr std::size_t kDfzPrefixes = 1'000'000;
constexpr std::uint64_t kPaperWorldSeed = 1999;
// Addresses in the dfz_* lookup streams (uniform over the covered space).
constexpr std::size_t kDfzStreamAddresses = 1u << 18;

bool IsDfz(Kind kind) {
  return kind == Kind::kDfzBatch || kind == Kind::kDfzChurn;
}

/// Picks `count` route changes: even ones withdraw an existing /24, odd
/// ones announce a /24 the table does not hold, inside a covering prefix.
/// No change touches a /24 in `stream24s`, so the lookup stream's answers
/// hold before, during and after the updates.
std::vector<RouteChange> PickChanges(const std::vector<net::Prefix>& prefixes,
                                     const bgp::PrefixTable& oracle,
                                     const std::unordered_set<std::uint32_t>& stream24s,
                                     std::size_t count, synth::Rng& rng) {
  std::vector<net::Prefix> slash24;
  std::vector<net::Prefix> covering;
  for (const net::Prefix& prefix : prefixes) {
    if (prefix.length() == 24) slash24.push_back(prefix);
    if (prefix.length() >= 8 && prefix.length() <= 22) covering.push_back(prefix);
  }
  std::vector<RouteChange> changes;
  std::unordered_set<std::uint32_t> used = stream24s;  // /24 network >> 8
  while (changes.size() < count) {
    RouteChange change;
    if (changes.size() % 2 == 0) {
      change.prefix = slash24[rng.Uniform(slash24.size())];
    } else {
      const net::Prefix& parent = covering[rng.Uniform(covering.size())];
      const std::uint32_t bits =
          parent.network().bits() +
          static_cast<std::uint32_t>(rng.Uniform(parent.size()));
      change.prefix = net::Prefix(net::IpAddress(bits), 24);
      if (oracle.Contains(change.prefix)) continue;
      change.announce = true;
      change.origin_as = 64'512 + static_cast<std::uint32_t>(changes.size());
    }
    if (!used.insert(change.prefix.network().bits() >> 8).second) continue;
    changes.push_back(change);
  }
  return changes;
}

/// One address inside each prefix, at a seeded offset, for checking what
/// the table answers across all of it.
std::vector<net::IpAddress> ProbeAddresses(
    const std::vector<net::Prefix>& prefixes, std::uint64_t seed) {
  std::vector<net::IpAddress> out;
  out.reserve(prefixes.size());
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    const net::Prefix& prefix = prefixes[i];
    const std::uint64_t offset = synth::Mix64(seed ^ i) % prefix.size();
    out.emplace_back(prefix.network().bits() + static_cast<std::uint32_t>(offset));
  }
  return out;
}

std::vector<net::Prefix> ChangedPrefixes(const std::vector<RouteChange>& changes) {
  std::vector<net::Prefix> out;
  for (const RouteChange& change : changes) out.push_back(change.prefix);
  return out;
}

constexpr std::int64_t kUpdateTimeoutNs = 30'000'000'000;

/// Closed-loop INGEST_UPDATEs on `fd` for plan frames
/// [first, first + count): send, wait for the ack, repeat. One sample of
/// send->ack time per update; the time spent adds to plan->elapsed_s and
/// the slice's rate to plan->slice_rates.
void SendUpdates(int fd, UpdatePlan* plan, std::size_t first, std::size_t count,
                 Tally* tally) {
  if (count == 0) return;
  const std::int64_t start = NowNs();
  const std::size_t acked = plan->visible_ms.size();
  proto::FrameDecoder decoder;
  std::vector<std::uint8_t> buffer(4096);
  for (std::size_t i = first; i < first + count; ++i) {
    const std::vector<std::uint8_t>& frame = plan->frames[i];
    ++tally->attempted;
    const std::int64_t sent = NowNs();
    if (write(fd, frame.data(), frame.size()) !=
        static_cast<ssize_t>(frame.size())) {
      tally->Fail("update write failed");
      continue;
    }
    // Polls for the ack like the epoll driver does (see driver.h); a
    // server that never acks fails the update after kUpdateTimeoutNs.
    std::optional<proto::Frame> reply;
    while (!reply.has_value() && NowNs() - sent < kUpdateTimeoutNs) {
      const ssize_t n = recv(fd, buffer.data(), buffer.size(), MSG_DONTWAIT);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
        continue;
      }
      if (n <= 0) break;
      decoder.Feed(buffer.data(), static_cast<std::size_t>(n));
      auto next = decoder.Next();
      if (!next.ok()) break;
      reply = std::move(next).value();
    }
    if (!reply.has_value() || reply->header.opcode != proto::Opcode::kIngestAck) {
      tally->Fail("update not acked");
      continue;
    }
    plan->visible_ms.push_back(static_cast<double>(NowNs() - sent) / 1e6);
  }
  const double elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  plan->elapsed_s += elapsed_s;
  plan->slice_rates.push_back(
      static_cast<double>(plan->visible_ms.size() - acked) / elapsed_s);
}

/// The INGEST_UPDATE wire frame for one change (source 0).
std::vector<std::uint8_t> IngestFrame(const RouteChange& change) {
  proto::IngestRequest request;
  request.source_id = 0;
  request.update = ToUpdate(change);
  return proto::EncodeFrame(proto::Opcode::kIngestUpdate,
                            proto::EncodeIngest(request));
}

std::vector<int> Fds(const std::vector<Connection>& connections) {
  std::vector<int> fds;
  for (const Connection& c : connections) fds.push_back(c.fd);
  return fds;
}

/// Window statistics gathered over every lookup phase of a run.
struct LookupSummary {
  std::vector<double> p50_us, p99_us, rates, late_us, driver_busy;
  std::size_t samples = 0;
  std::uint64_t closed_addresses = 0;

  void AddOpen(const PhaseResult& open) {
    for (double v : open.WindowQuantiles(0.5)) p50_us.push_back(v);
    for (double v : open.WindowQuantiles(0.99)) p99_us.push_back(v);
    for (double v : open.WindowLateQuantiles(0.99)) late_us.push_back(v);
    samples += open.latency_us.size();
  }
  void AddClosed(const PhaseResult& closed) {
    for (double v : closed.WindowRates()) rates.push_back(v);
    driver_busy.push_back(closed.driver_busy_share);
    closed_addresses += closed.addresses;
  }

  /// Prints the figures with their sample counts and sets the metrics:
  /// medians over windows of open-loop latency and generator lateness, and
  /// the 90th percentile over windows of the closed-loop rate. Interference
  /// from other tenants of a shared host only ever slows a window (on a
  /// shared 4-vCPU virtual machine, busy periods took 25-45 % off the
  /// median window of whole DFZ runs), so the upper windows estimate the
  /// program's own rate; a stall that recurs in more than one window in
  /// ten still lowers the figure.
  void Report(Metrics* metrics) {
    const double p50 = Median(p50_us);
    const double p99 = Median(p99_us);
    std::vector<double> sorted_rates = rates;  // Quantile reorders
    const double qps = Quantile(sorted_rates, 0.9);
    const double late = Median(late_us);
    std::printf("open-loop %zu samples in %zu windows: p50 %.2f us, p99 %.2f us; "
                "generator late p99 %.2f us\n",
                samples, p99_us.size(), p50, p99, late);
    const double busy = Median(driver_busy);
    std::printf("closed    %llu addresses in %zu windows: %.0f lookups/s (p90 window); "
                "driver busy %.0f%%\n",
                static_cast<unsigned long long>(closed_addresses), rates.size(), qps,
                busy * 100);
    std::printf("windows   lookups/s in run order:");
    for (const double rate : rates) std::printf(" %.0f", rate);
    std::printf("\n");
    metrics->Set("lookup_p50_us", p50, "us");
    metrics->Set("lookup_p99_us", p99, "us");
    metrics->Set("lookup_qps", qps, "1/s");
    metrics->Set("bench.late_p99_us", late, "us");
    metrics->Set("bench.driver_busy_share", busy, "ratio");
  }
};

// Lookup phases alternate open and closed loop this many times, so slow
// drift in the machine's state reaches both figures alike.
constexpr int kRounds = 5;

/// update_visible_p50_ms is the median over every update; updates_per_s
/// the median over slices of each slice's rate (a slice's rate includes
/// any full-compile fallback inside it), or the overall rate when the
/// updates ran as one slice beside a reader.
void SetUpdateMetrics(const UpdatePlan& plan, Metrics* metrics) {
  std::vector<double> visible = plan.visible_ms;
  const double rate =
      plan.slice_rates.empty()
          ? static_cast<double>(plan.visible_ms.size()) / plan.elapsed_s
          : Median(plan.slice_rates);
  std::printf("updates   %zu acked in %.3f s over %zu slices: visible p10 %.3f, "
              "p50 %.3f, p90 %.3f, max %.3f ms; %.2f updates/s\n",
              visible.size(), plan.elapsed_s, std::max<std::size_t>(1, plan.slice_rates.size()),
              Quantile(visible, 0.1), Quantile(visible, 0.5),
              Quantile(visible, 0.9), Quantile(visible, 1.0), rate);
  metrics->Set("update_visible_p50_ms", Median(plan.visible_ms), "ms");
  metrics->Set("updates_per_s", rate, "1/s");
}

/// Stream + expected answers for one probe address per changed prefix,
/// against the post-change oracle.
Stream ChangeProbes(const Inputs& inputs, std::uint64_t seed) {
  return MakeStream(ProbeAddresses(ChangedPrefixes(inputs.changes), seed), 1,
                    inputs.oracle);
}

Tally RunStandalone(const Options& options, const Params& params,
                    Inputs* inputs, Metrics* metrics) {
  Tally tally;
  std::vector<double> setup_s;
  std::unique_ptr<Node> node;
  std::vector<Connection> conns;
  std::unique_ptr<LoopbackDriver> driver;
  std::vector<pid_t> workers;
  const bool churn = options.kind == Kind::kDfzChurn;
  for (int rep = 0; rep < params.setup_repeats; ++rep) {
    driver.reset();
    CloseAll(&conns);
    node.reset();
    const std::int64_t t0 = NowNs();
    PinSystem();
    node = std::make_unique<Node>();
    node->engine = SeedEngine(*inputs, &workers);
    node->server = std::make_unique<proto::Server>(node->engine.get(),
                                                   StandaloneConfig(*inputs));
    const auto port = node->server->Serve();
    PinGenerator();
    if (!port.ok()) {
      tally.Fail("serve: " + port.error());
      return tally;
    }
    node->port = port.value();
    conns = ConnectBalanced(*node->server, node->port, params.conns_per_reactor);
    if (conns.empty()) {
      tally.Fail("could not spread connections over the reactors");
      return tally;
    }
    // dfz_churn reads on conns[0] only; its updater shares that reactor.
    driver = std::make_unique<LoopbackDriver>(
        &inputs->stream,
        churn ? std::vector<int>{conns[0].fd} : Fds(conns), nullptr);
    Tally first;
    driver->CheckOne(0, &first);
    tally.AddCheck(first);
    if (first.failed + first.mismatches > 0) return tally;
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  metrics->Set("setup_s", Median(setup_s), "s");
  std::printf("setup     %d set-ups, median %.4f s\n", params.setup_repeats,
              Median(setup_s));

  UpdatePlan plan;
  for (const RouteChange& change : inputs->changes) {
    plan.frames.push_back(IngestFrame(change));
  }
  LookupSummary summary;
  const std::int64_t measure_start = NowNs();
  const double shard_cpu_start = CpuSeconds(workers);
  if (churn) {
    for (std::size_t i = 1; i < conns.size() && plan.fd < 0; ++i) {
      if (conns[i].reactor == conns[0].reactor) plan.fd = conns[i].fd;
    }
    const PhaseResult open = driver->OpenLoop(params.open_rate, 0.0, &plan);
    tally.Add(open.tally);
    summary.AddOpen(open);
    // After the last ack the whole table must answer as the oracle does.
    for (const RouteChange& change : inputs->changes) {
      ApplyToOracle(change, &inputs->oracle);
    }
    std::vector<net::Prefix> prefixes = inputs->oracle.AllPrefixes();
    for (const RouteChange& change : inputs->changes) {
      if (!change.announce) prefixes.push_back(change.prefix);
    }
    const Stream whole = MakeStream(ProbeAddresses(prefixes, options.seed),
                                    256, inputs->oracle);
    driver.reset();
    LoopbackDriver checker(&whole, Fds(conns), nullptr);
    const PhaseResult closed =
        checker.ClosedLoop(params.window, options.seconds * 0.5, true);
    tally.AddCheck(closed.tally);
    if (!closed.full_pass) tally.FailCheck("whole-table check did not finish");
    summary.AddClosed(closed);
    std::printf("whole-table check: %zu probes answered, %llu mismatches\n",
                static_cast<std::size_t>(closed.addresses),
                static_cast<unsigned long long>(closed.tally.mismatches));
  } else {
    // Each round: open loop, a slice of the updates, closed loop, another
    // slice (updates closed loop, no reader running), so the updates are
    // spread over the run like the lookups.
    plan.fd = ConnectLoopback(node->port);
    const std::size_t per_slice = plan.frames.size() / (2 * kRounds);
    std::size_t next = 0;
    for (int round = 0; round < kRounds; ++round) {
      const PhaseResult open =
          driver->OpenLoop(params.open_rate, options.seconds * 0.5 / kRounds);
      tally.Add(open.tally);
      summary.AddOpen(open);
      SendUpdates(plan.fd, &plan, next, per_slice, &tally);
      next += per_slice;
      const PhaseResult closed =
          driver->ClosedLoop(params.window, options.seconds * 0.5 / kRounds);
      tally.Add(closed.tally);
      summary.AddClosed(closed);
      SendUpdates(plan.fd, &plan, next, per_slice, &tally);
      next += per_slice;
    }
    close(plan.fd);
    for (const RouteChange& change : inputs->changes) {
      ApplyToOracle(change, &inputs->oracle);
    }
    const Stream probes = ChangeProbes(*inputs, options.seed);
    driver.reset();
    LoopbackDriver checker(&probes, Fds(conns), nullptr);
    const PhaseResult visible = checker.ClosedLoop(1, 0.0, true);
    tally.AddCheck(visible.tally);
    if (!visible.full_pass) tally.FailCheck("changed-prefix probes did not finish");
  }
  metrics->Set(kShardCpuShare,
               (CpuSeconds(workers) - shard_cpu_start) /
                   (static_cast<double>(NowNs() - measure_start) / 1e9),
               "ratio");
  summary.Report(metrics);
  SetUpdateMetrics(plan, metrics);
  CloseAll(&conns);
  return tally;
}

}  // namespace

Params ParamsFor(Kind kind) {
  Params p;
  // Paper-scale set-ups take tens of milliseconds; take more of them.
  p.setup_repeats = kind == Kind::kDfzBatch || kind == Kind::kDfzChurn ? 3 : 9;
  switch (kind) {
    case Kind::kPaperCdn:
      p.frame_size = 1;
      p.conns_per_reactor = 2;
      p.open_rate = 20'000;
      p.window = 16;
      p.updates = 500;
      break;
    case Kind::kDfzBatch:
      p.frame_size = 256;
      p.conns_per_reactor = 2;
      p.open_rate = 2'000;
      p.window = 4;
      p.updates = 10;
      break;
    case Kind::kDfzChurn:
      p.frame_size = 16;
      p.conns_per_reactor = 2;
      p.open_rate = 400;
      p.window = 4;
      p.updates = 8;
      break;
  }
  return p;
}

int ThreadBudget(Kind kind) {
  // The engine's one shard worker never sleeps (it yield-polls its ring),
  // so it always counts. The ingest thread publishes between lookup rounds
  // on paper_cdn and dfz_batch, while the reactors idle; on dfz_churn the
  // reader and the updater share one reactor, so the other one idles while
  // the ingest thread publishes.
  constexpr int kShardWorkers = 1;
  switch (kind) {
    case Kind::kPaperCdn:
    case Kind::kDfzBatch:
      return 1 + 2 + kShardWorkers;  // driver thread, 2 reactors
    case Kind::kDfzChurn:
      return 1 + 1 + 1 + kShardWorkers;  // driver, 1 busy reactor, ingest
  }
  return 4;
}

Inputs MakeInputs(const Options& options, const Params& params) {
  Inputs inputs;
  synth::Rng rng(synth::Mix64(options.seed ^ 0x5EEDu));
  std::vector<net::IpAddress> addresses;
  std::vector<net::Prefix> prefixes;
  if (IsDfz(options.kind)) {
    inputs.dfz = GenerateDfz(options.seed, kDfzPrefixes);
    inputs.snapshots.push_back(DfzSnapshot(*inputs.dfz));
    inputs.oracle.AddSnapshot(inputs.snapshots.front());
    const CoverageMap coverage(*inputs.dfz);
    addresses.reserve(kDfzStreamAddresses);
    while (addresses.size() < kDfzStreamAddresses) {
      const auto bits = static_cast<std::uint32_t>(rng.Uniform(std::uint64_t{1} << 32));
      if (coverage.Covered(bits)) addresses.emplace_back(bits);
    }
    prefixes = inputs.dfz->prefixes;
  } else {
    // The paper's world is the repository's canonical synthetic Internet
    // (the one bench/ uses); the seed picks the client log and the updates.
    const double scale = synth::ScaleFromEnv();
    synth::InternetConfig config;
    config.seed = kPaperWorldSeed;
    config.allocation_count =
        static_cast<std::size_t>(std::max(2000.0, 48000.0 * scale));
    config.bgp_dark_org_fraction = 0.015;
    config.unregistered_fraction = 0.12;
    const synth::Internet internet = synth::GenerateInternet(config);
    const synth::VantageGenerator vantages(internet,
                                           synth::DefaultVantageProfiles());
    inputs.snapshots = vantages.AllSnapshots(0);
    for (const bgp::Snapshot& snapshot : inputs.snapshots) {
      inputs.oracle.AddSnapshot(snapshot);
    }
    synth::WorkloadConfig workload = synth::NaganoConfig(scale);
    workload.seed = options.seed;
    const synth::GeneratedLog log = synth::GenerateLog(internet, workload);
    for (const auto& request : log.log.requests()) {
      addresses.push_back(request.client);
    }
    prefixes = inputs.oracle.AllPrefixes();
  }
  inputs.table_prefixes = inputs.oracle.size();
  // Updates only touch /24s the stream never asks for, so every lookup
  // answer can be checked live while the table changes.
  std::unordered_set<std::uint32_t> stream24s;
  for (const net::IpAddress a : addresses) stream24s.insert(a.bits() >> 8);
  inputs.changes = PickChanges(prefixes, inputs.oracle, stream24s, params.updates, rng);
  inputs.stream = MakeStream(std::move(addresses), params.frame_size, inputs.oracle);
  return inputs;
}

bgp::UpdateMessage ToUpdate(const RouteChange& change) {
  bgp::UpdateMessage update;
  if (change.announce) {
    update.announced = {change.prefix};
    update.as_path = {change.origin_as};
    update.next_hop = net::IpAddress(192, 0, 2, 1);
  } else {
    update.withdrawn = {change.prefix};
  }
  return update;
}

void ApplyToOracle(const RouteChange& change, bgp::PrefixTable* oracle) {
  if (change.announce) {
    oracle->Insert(change.prefix, 0, change.origin_as);
  } else {
    oracle->Remove(change.prefix);
  }
}

Node::~Node() {
  if (server) server->Stop();
  if (engine) engine->Stop();
}

proto::ServerConfig StandaloneConfig(const Inputs& inputs) {
  proto::ServerConfig config;
  config.port = 0;
  config.reactors = 2;
  config.max_inflight_frames = 1024;
  config.mapping_cache_capacity = kMappingCapacity;
  config.source_count = static_cast<int>(inputs.snapshots.size());
  return config;
}

std::unique_ptr<netclust::engine::Engine> SeedEngine(const Inputs& inputs,
                                                     std::vector<pid_t>* workers) {
  netclust::engine::EngineConfig config;
  config.shards = 1;
  config.log_name = "perfbench";
  auto engine = std::make_unique<netclust::engine::Engine>(config);
  for (const bgp::Snapshot& snapshot : inputs.snapshots) {
    engine->SeedSnapshot(snapshot);
  }
  const std::vector<pid_t> before = ThreadIds();
  engine->Start();
  if (workers != nullptr) {
    workers->clear();
    for (const pid_t tid : ThreadIds()) {
      if (std::find(before.begin(), before.end(), tid) == before.end()) {
        workers->push_back(tid);
      }
    }
  }
  return engine;
}

Tally RunWorkload(const Options& options, Inputs* inputs, Metrics* metrics) {
  const Params params = ParamsFor(options.kind);
  Tally tally = RunStandalone(options, params, inputs, metrics);
  metrics->Set("answered_ratio",
               tally.attempted == 0
                   ? 0.0
                   : 1.0 - static_cast<double>(tally.failed) /
                               static_cast<double>(tally.attempted),
               "ratio");
  metrics->Set("peak_rss_mb", PeakRssMb(), "MiB");
  return tally;
}

}  // namespace perfbench
