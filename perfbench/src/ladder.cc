#include "ladder.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "cluster/cluster_client.h"
#include "cluster/partitioner.h"
#include "driver.h"
#include "mapping/coras.h"
#include "mapping/mapping_tier.h"
#include "server/client.h"
#include "server/proto.h"

namespace perfbench {

namespace bgp = netclust::bgp;
namespace net = netclust::net;
namespace proto = netclust::server;

namespace {

using Match = bgp::PrefixTable::Match;

constexpr std::size_t kChunk = 256;           // addresses per batch call
constexpr std::size_t kFleetBatch = 64;       // addresses per fleet call
constexpr double kSweepSeconds = 0.15;        // timed sweep per in-process call

bool SameRecord(const std::optional<Match>& match, const std::uint8_t* want) {
  const std::vector<std::uint8_t> got =
      proto::EncodeLookupRecord(proto::LookupRecord::FromMatch(match));
  return std::memcmp(got.data(), want, 16) == 0;
}

/// Checks `count` answers starting at stream address `first`.
void CheckAnswers(const Stream& stream, std::size_t first,
                  const std::optional<Match>* answers, std::size_t count,
                  const char* layer, Tally* tally) {
  ++tally->attempted;
  for (std::size_t i = 0; i < count; ++i) {
    if (!SameRecord(answers[i], stream.expected.data() + 16 * (first + i))) {
      tally->Mismatch(std::string(layer) + " disagrees with the oracle for " +
                      stream.addresses[first + i].ToString());
      return;
    }
  }
}

/// Runs `body(first, count)` over `items` in `chunk`-sized calls, one span
/// each, until `seconds` have passed. Returns ns per item.
template <typename Body>
double Sweep(Tracer* tracer, std::int32_t parent, const char* name,
             std::size_t items, std::size_t chunk, double seconds, Body body) {
  const std::int64_t end = NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  std::size_t first = 0;
  double ns = 0;
  double done = 0;
  do {
    const std::size_t count = std::min(chunk, items - first);
    const std::int64_t start = NowNs();
    body(first, count);
    const std::int64_t stop = NowNs();
    tracer->Record(name, parent, first, start, stop,
                   static_cast<std::uint32_t>(count));
    ns += static_cast<double>(stop - start);
    done += static_cast<double>(count);
    first += count;
    if (first >= items) first = 0;
  } while (NowNs() < end);
  return ns / done;
}

template <typename Fn>
double TimedMedianMs(Tracer* tracer, std::int32_t parent, const char* name,
                     int repeats, Fn fn) {
  std::vector<double> ms;
  for (int i = 0; i < repeats; ++i) {
    const std::int64_t start = NowNs();
    fn();
    const std::int64_t end = NowNs();
    tracer->Record(name, parent, static_cast<std::uint64_t>(i), start, end);
    ms.push_back(static_cast<double>(end - start) / 1e6);
  }
  return Median(ms);
}

struct ServerTotals {
  double bytes = 0, lookups = 0, busy = 0, short_writes = 0;
  double hits = 0, misses = 0, frames = 0, cluster_lookups = 0;
  std::vector<double> per_reactor;
};

ServerTotals ReadServer(const proto::Server& server) {
  ServerTotals t;
  const proto::ServerMetrics& m = server.metrics();
  t.bytes = static_cast<double>(m.bytes_read.value() + m.bytes_written.value());
  t.lookups = static_cast<double>(m.lookups_served.value());
  t.frames = static_cast<double>(m.frames_decoded.value());
  t.cluster_lookups = static_cast<double>(m.cluster_lookups_served.value());
  for (std::size_t i = 0; i < server.reactor_count(); ++i) {
    const proto::ReactorMetrics& r = server.reactor_metrics(i);
    t.busy += static_cast<double>(r.busy_replies.value());
    t.short_writes += static_cast<double>(r.short_writes.value());
    t.per_reactor.push_back(static_cast<double>(r.lookups_served.value()));
    t.hits += static_cast<double>(server.mapping_counters(i).hits.value());
    t.misses += static_cast<double>(server.mapping_counters(i).misses.value());
  }
  return t;
}

}  // namespace

Tally RunLadder(const Options& options, Inputs* inputs, Metrics* metrics,
                Tracer* tracer) {
  Tally tally;
  const Params params = ParamsFor(options.kind);
  const Stream& stream = inputs->stream;
  const std::size_t n = stream.addresses.size();
  const std::size_t k = stream.frame_size;
  const double budget = options.seconds;

  const std::int32_t setup_span = tracer->Open("rung.setup");
  PinSystem();
  std::vector<pid_t> workers;
  std::unique_ptr<netclust::engine::Engine> engine = SeedEngine(*inputs, &workers);
  PinGenerator();
  tracer->Close(setup_span);
  const std::int64_t ladder_start = NowNs();
  const double shard_cpu_start = CpuSeconds(workers);
  std::vector<std::optional<Match>> answers(kChunk);

  // --- FlatLpm: the compiled directory of the published snapshot ---
  double flat_ns = 0;
  {
    const std::int32_t rung = tracer->Open("rung.trie");
    const bgp::TableHandle handle = engine->AcquireTable();
    const bgp::PrefixTable::Flat& flat = handle.flat();
    std::vector<bgp::PrefixTable::Flat::Match> flat_out(kChunk);
    for (std::size_t first = 0; first < n; first += kChunk) {
      const std::size_t count = std::min(kChunk, n - first);
      flat.LookupBatch({stream.addresses.data() + first, count},
                       {flat_out.data(), count});
      for (std::size_t i = 0; i < count; ++i) {
        answers[i] = flat_out[i].value == nullptr
                         ? std::nullopt
                         : std::optional<Match>(*flat_out[i].value);
      }
      CheckAnswers(stream, first, answers.data(), count, "FlatLpm", &tally);
    }
    std::size_t found = 0;
    metrics->Set("trie.flat_lookup_ns",
                 Sweep(tracer, rung, "trie.flat_lookup", n, kChunk, kSweepSeconds,
                       [&](std::size_t first, std::size_t count) {
                         for (std::size_t i = 0; i < count; ++i) {
                           found += flat.LongestMatch(stream.addresses[first + i])
                                        .has_value();
                         }
                       }),
                 "ns");
    flat_ns = Sweep(tracer, rung, "trie.flat_batch", n, kChunk, kSweepSeconds,
                    [&](std::size_t first, std::size_t count) {
                      flat.LookupBatch({stream.addresses.data() + first, count},
                                       {flat_out.data(), count});
                      found += flat_out[0].value != nullptr;
                    });
    metrics->Set("trie.flat_batch_ns_per_addr", flat_ns, "ns");
    metrics->Set("trie.directory_bytes", static_cast<double>(flat.directory_bytes()),
                 "bytes");
    metrics->Set("trie.block_count", static_cast<double>(flat.block_count()), "count");
    std::printf("trie      %zu matches in the timed sweeps\n", found);

    // Write path pieces, on the oracle's own table: full compile, the
    // snapshot clone, and a one-prefix delta compile.
    std::optional<bgp::PrefixTable::Flat> full;
    metrics->Set("trie.compile_full_ms",
                 TimedMedianMs(tracer, rung, "trie.compile_full", 3,
                               [&] { full.emplace(inputs->oracle.CompileFlat()); }),
                 "ms");
    std::optional<bgp::PrefixTable> clone;
    metrics->Set("bgp.table_clone_ms",
                 TimedMedianMs(tracer, rung, "bgp.table_clone", 3,
                               [&] { clone.emplace(inputs->oracle); }),
                 "ms");
    const RouteChange& change = inputs->changes.at(1);  // an announce
    ApplyToOracle(change, &*clone);
    const std::vector<net::Prefix> changed = {change.prefix};
    std::optional<bgp::PrefixTable::Flat> delta;
    metrics->Set("trie.compile_delta_ms",
                 TimedMedianMs(tracer, rung, "trie.compile_delta", 3, [&] {
                   delta.emplace(clone->CompileFlatDelta(*full, changed));
                 }),
                 "ms");
    ++tally.attempted;
    const net::IpAddress probe = change.prefix.network();
    const auto via_delta = delta->LongestMatch(probe);
    const auto want = clone->LongestMatch(probe);
    if (!via_delta.has_value() || !want.has_value() || !(*via_delta->value == *want)) {
      tally.Mismatch("delta-compiled directory disagrees with the oracle at " +
                     probe.ToString());
    }
    tracer->Close(rung);
  }

  // --- snapshot acquire + Engine serving plane ---
  double engine_ns = 0;
  {
    const std::int32_t rung = tracer->Open("rung.engine");
    std::uint64_t versions = 0;
    metrics->Set("bgp.acquire_ns",
                 Sweep(tracer, rung, "bgp.acquire", 1u << 20, 4096, kSweepSeconds,
                       [&](std::size_t, std::size_t count) {
                         for (std::size_t i = 0; i < count; ++i) {
                           versions += engine->AcquireTable().version();
                         }
                       }),
                 "ns");
    for (std::size_t first = 0; first < n; first += kChunk) {
      const std::size_t count = std::min(kChunk, n - first);
      for (std::size_t i = 0; i < count; ++i) {
        answers[i] = engine->Lookup(stream.addresses[first + i]);
      }
      CheckAnswers(stream, first, answers.data(), count, "Engine::Lookup", &tally);
      engine->LookupBatch({stream.addresses.data() + first, count},
                          {answers.data(), count});
      CheckAnswers(stream, first, answers.data(), count, "Engine::LookupBatch",
                   &tally);
    }
    std::size_t found = 0;
    metrics->Set("engine.lookup_ns",
                 Sweep(tracer, rung, "engine.lookup", n, kChunk, kSweepSeconds,
                       [&](std::size_t first, std::size_t count) {
                         for (std::size_t i = 0; i < count; ++i) {
                           found += engine->Lookup(stream.addresses[first + i])
                                        .has_value();
                         }
                       }),
                 "ns");
    engine_ns = Sweep(tracer, rung, "engine.batch", n, kChunk, kSweepSeconds,
                      [&](std::size_t first, std::size_t count) {
                        found += engine->LookupBatch(
                            {stream.addresses.data() + first, count},
                            {answers.data(), count});
                      });
    metrics->Set("engine.batch_ns_per_addr", engine_ns, "ns");

    // Aggregate Engine::Lookup rate on nproc threads over one thread.
    std::atomic<std::uint64_t> matched{0};
    const auto rate = [&](unsigned threads) {
      std::atomic<std::uint64_t> total{0};
      std::vector<std::thread> pool;
      const std::int64_t start = NowNs();
      const std::int64_t end = start + static_cast<std::int64_t>(kSweepSeconds * 1e9);
      for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
          PinAll();
          std::uint64_t done = 0;
          std::uint64_t hits = 0;
          std::size_t i = n * t / threads;
          while (NowNs() < end) {
            for (int j = 0; j < 256; ++j) {
              hits += engine->Lookup(stream.addresses[i]).has_value();
              if (++i == n) i = 0;
            }
            done += 256;
          }
          total += done;
          matched += hits;
        });
      }
      for (auto& thread : pool) thread.join();
      const std::int64_t stop = NowNs();
      tracer->Record("engine.lookup_threads", rung, threads, start, stop);
      return static_cast<double>(total) / (static_cast<double>(stop - start) / 1e9);
    };
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    const double one = rate(1);
    metrics->Set("engine.lookup_scaling", rate(nproc) / one, "x");
    std::printf("engine    %zu + %llu matches, %llu versions summed\n", found,
                static_cast<unsigned long long>(matched.load()),
                static_cast<unsigned long long>(versions));
    tracer->Close(rung);
  }

  // --- mapping tier (standalone, same capacity as a reactor's) ---
  double mapping_ns = 0;
  {
    const std::int32_t rung = tracer->Open("rung.mapping");
    netclust::mapping::MappingCounters counters;
    netclust::mapping::MappingTier tier(engine.get(), kMappingCapacity, &counters);
    for (std::size_t first = 0; first < n; first += kChunk) {
      const std::size_t count = std::min(kChunk, n - first);
      tier.LookupBatch({stream.addresses.data() + first, count},
                       {answers.data(), count});
      CheckAnswers(stream, first, answers.data(), count, "MappingTier", &tally);
    }
    mapping_ns = Sweep(tracer, rung, "mapping.batch", n, kChunk, kSweepSeconds,
                       [&](std::size_t first, std::size_t count) {
                         tier.LookupBatch({stream.addresses.data() + first, count},
                                          {answers.data(), count});
                       });
    metrics->Set("mapping.lookup_ns_per_addr", mapping_ns, "ns");
    // Coras/Che prediction over the stream's /24 popularity.
    std::unordered_map<std::uint32_t, double> per24;
    for (const net::IpAddress a : stream.addresses) per24[a.bits() >> 8] += 1;
    std::vector<double> popularity;
    popularity.reserve(per24.size());
    for (const auto& [block, count] : per24) popularity.push_back(count);
    std::sort(popularity.begin(), popularity.end());
    metrics->Set("mapping.model_hit_ratio",
                 netclust::mapping::PredictedHitRatio(popularity, kMappingCapacity),
                 "ratio");
    tracer->Close(rung);
  }

  // --- codec: the reactor's decode and encode on the workload's frames ---
  double codec_ns_per_addr = 0;
  {
    const std::int32_t rung = tracer->Open("rung.codec");
    const std::size_t frames = std::min<std::size_t>(stream.frame_count(), 4096);
    std::vector<std::optional<Match>> matches(frames * k);
    for (std::size_t f = 0; f < frames; ++f) {
      engine->LookupBatch({stream.addresses.data() + f * k, k},
                          {matches.data() + f * k, k});
    }
    std::vector<net::IpAddress> decoded;
    std::vector<std::uint8_t> out;
    std::size_t addresses = 0;
    const double decode_ns =
        Sweep(tracer, rung, "codec.decode", frames, 64, kSweepSeconds / 2,
              [&](std::size_t first, std::size_t count) {
                for (std::size_t f = first; f < first + count; ++f) {
                  auto got = proto::DecodeBatchLookupInto(
                      stream.frame(f) + proto::kHeaderSize,
                      stream.frame_wire_bytes() - proto::kHeaderSize, &decoded);
                  addresses += got.ok() ? got.value() : 0;
                }
              });
    const double encode_ns =
        Sweep(tracer, rung, "codec.encode", frames, 64, kSweepSeconds / 2,
              [&](std::size_t first, std::size_t count) {
                for (std::size_t f = first; f < first + count; ++f) {
                  out.clear();
                  proto::AppendBatchResultFrame(matches.data() + f * k, k, &out);
                }
              });
    // One full check: the encoder's records are the oracle's.
    ++tally.attempted;
    out.clear();
    proto::AppendBatchResultFrame(matches.data(), k, &out);
    if (std::memcmp(out.data() + proto::kHeaderSize + 4, stream.expected_frame(0),
                    16 * k) != 0) {
      tally.Mismatch("AppendBatchResultFrame disagrees with the oracle");
    }
    metrics->Set("server.decode_ns", decode_ns, "ns");
    metrics->Set("server.encode_ns", encode_ns, "ns");
    codec_ns_per_addr = (decode_ns + encode_ns) / static_cast<double>(k);
    std::printf("codec     %zu addresses decoded\n", addresses);
    tracer->Close(rung);
  }

  // --- server over loopback ---
  double frame_rtt_us = 0;   // open-loop round trip of one workload frame
  double batch64_us = 0;     // one synchronous 64-address BatchLookup
  {
    const std::int32_t rung = tracer->Open("rung.server");
    PinSystem();
    proto::Server server(engine.get(), StandaloneConfig(*inputs));
    const auto port = server.Serve();
    PinGenerator();
    std::vector<Connection> conns;
    if (port.ok()) conns = ConnectBalanced(server, port.value(), 2);
    if (conns.empty()) {
      tally.Fail("ladder server rung could not start");
    } else {
      std::vector<int> fds;
      for (const Connection& c : conns) fds.push_back(c.fd);
      const ServerTotals before = ReadServer(server);
      PhaseResult traced;
      PhaseResult plain;
      {
        LoopbackDriver driver(&stream, fds, tracer);
        traced = driver.ClosedLoop(params.window, budget * 0.08, false, rung);
      }
      {
        LoopbackDriver driver(&stream, fds, nullptr);
        plain = driver.ClosedLoop(params.window, budget * 0.08);
      }
      const ServerTotals after = ReadServer(server);
      PhaseResult open;
      {
        LoopbackDriver driver(&stream, fds, tracer);
        open = driver.OpenLoop(params.open_rate, budget * 0.1, nullptr, rung);
      }
      tally.Add(traced.tally);
      tally.Add(plain.tally);
      tally.Add(open.tally);
      const double traced_qps = static_cast<double>(traced.addresses) / traced.elapsed_s;
      const double plain_qps = static_cast<double>(plain.addresses) / plain.elapsed_s;
      metrics->Set("bench.trace_overhead_pct", (plain_qps - traced_qps) / plain_qps * 100,
                   "%");
      metrics->Set("bench.driver_busy_share", plain.driver_busy_share, "ratio");
      const double lookups = after.lookups - before.lookups;
      metrics->Set("server.bytes_per_lookup", (after.bytes - before.bytes) / lookups,
                   "bytes");
      metrics->Set("server.busy_replies", after.busy - before.busy, "count");
      metrics->Set("server.short_writes", after.short_writes - before.short_writes,
                   "count");
      double share = 0;
      for (std::size_t i = 0; i < after.per_reactor.size(); ++i) {
        share = std::max(share, (after.per_reactor[i] - before.per_reactor[i]) / lookups);
      }
      metrics->Set("server.reactor_share_max", share, "ratio");
      const double hits = after.hits - before.hits;
      const double misses = after.misses - before.misses;
      metrics->Set("mapping.hit_ratio", hits + misses == 0 ? 0 : hits / (hits + misses),
                   "ratio");
      metrics->Set("bench.late_p99_us", Median(open.WindowLateQuantiles(0.99)), "us");
      frame_rtt_us = Median(open.latency_us);
      metrics->Set("server.lookup_p99_us", Median(open.WindowQuantiles(0.99)), "us");

      // The fleet rung's single-node baseline: the same 64-address
      // batches through one synchronous client.
      auto client = proto::Client::Connect("127.0.0.1", port.value());
      if (client.ok()) {
        std::vector<double> call_us;
        Sweep(tracer, rung, "server.batch64", n, kFleetBatch, budget * 0.03,
              [&](std::size_t first, std::size_t count) {
                const std::vector<net::IpAddress> batch(
                    stream.addresses.begin() + static_cast<std::ptrdiff_t>(first),
                    stream.addresses.begin() + static_cast<std::ptrdiff_t>(first + count));
                const std::int64_t start = NowNs();
                ++tally.attempted;
                auto records = client.value().BatchLookup(batch);
                call_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
                if (!records.ok()) {
                  tally.Fail("batch lookup: " + records.error());
                  return;
                }
                for (std::size_t i = 0; i < count; ++i) {
                  const auto got = proto::EncodeLookupRecord(records.value()[i]);
                  if (std::memcmp(got.data(), stream.expected.data() + 16 * (first + i),
                                  16) != 0) {
                    tally.Mismatch("server disagrees with the oracle for " +
                                   batch[i].ToString());
                    return;
                  }
                }
              });
        batch64_us = Median(call_us);
      } else {
        tally.Fail("ladder client: " + client.error());
      }
      std::printf("server    traced %.0f vs untraced %.0f lookups/s; open-loop "
                  "p50 %.2f us over %zu frames\n",
                  traced_qps, plain_qps, frame_rtt_us, open.latency_us.size());
      CloseAll(&conns);
    }
    server.Stop();
    tracer->Close(rung);
  }

  // --- fleet: 3 cluster-mode nodes serving the same engine ---
  double fleet_call_us = 0;
  {
    const std::int32_t rung = tracer->Open("rung.fleet");
    std::vector<std::unique_ptr<proto::Server>> nodes;
    std::vector<proto::NodeInfo> members;
    PinSystem();
    for (std::size_t i = 0; i < kFleetNodes; ++i) {
      proto::ServerConfig config = StandaloneConfig(*inputs);
      config.reactors = 1;
      config.cluster_node_id = static_cast<std::int64_t>(i + 1);
      nodes.push_back(std::make_unique<proto::Server>(engine.get(), config));
      const auto port = nodes.back()->Serve();
      if (port.ok()) {
        members.push_back(proto::NodeInfo{static_cast<std::uint32_t>(i + 1),
                                          net::IpAddress(127, 0, 0, 1), port.value()});
      }
    }
    PinGenerator();
    auto topo = netclust::cluster::BuildTopology(1, members, inputs->oracle.AllPrefixes());
    bool installed = members.size() == kFleetNodes && topo.ok();
    for (auto& node : nodes) installed = installed && node->SetTopology(topo.value()).ok();
    auto client = installed ? netclust::cluster::ClusterClient::Create(topo.value())
                            : netclust::Result<netclust::cluster::ClusterClient>(
                                  netclust::Fail("fleet did not start"));
    if (!client.ok()) {
      tally.Fail("ladder fleet rung: " + client.error());
    } else {
      std::vector<ServerTotals> before;
      for (auto& node : nodes) before.push_back(ReadServer(*node));
      std::vector<double> call_us;
      Sweep(tracer, rung, "cluster.batch", n, kFleetBatch, budget * 0.1,
            [&](std::size_t first, std::size_t count) {
              const std::vector<net::IpAddress> batch(
                  stream.addresses.begin() + static_cast<std::ptrdiff_t>(first),
                  stream.addresses.begin() + static_cast<std::ptrdiff_t>(first + count));
              ++tally.attempted;
              const std::int64_t start = NowNs();
              auto records = client.value().BatchLookup(batch);
              call_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
              if (!records.ok()) {
                tally.Fail("fleet batch: " + records.error());
                return;
              }
              for (std::size_t i = 0; i < count; ++i) {
                const auto got = proto::EncodeLookupRecord(records.value()[i]);
                if (std::memcmp(got.data(), stream.expected.data() + 16 * (first + i),
                                16) != 0) {
                  tally.Mismatch("fleet disagrees with the oracle for " +
                                 batch[i].ToString());
                  return;
                }
              }
            });
      double frames = 0;
      double total = 0;
      double top = 0;
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        const ServerTotals after = ReadServer(*nodes[i]);
        frames += after.frames - before[i].frames;
        const double served = after.cluster_lookups - before[i].cluster_lookups;
        total += served;
        top = std::max(top, served);
      }
      fleet_call_us = Median(call_us);
      metrics->Set("cluster.batch_call_us", fleet_call_us, "us");
      metrics->Set("cluster.frames_per_batch",
                   frames / static_cast<double>(call_us.size()), "count");
      metrics->Set("cluster.node_share_max", total == 0 ? 0 : top / total, "ratio");
      metrics->Set("cluster.redirects",
                   static_cast<double>(client.value().redirects_followed()), "count");
    }
    for (auto& node : nodes) node->Stop();
    tracer->Close(rung);
  }

  // --- write path through the engine: single-prefix publishes ---
  {
    const std::int32_t rung = tracer->Open("rung.publish");
    const std::size_t updates =
        std::min<std::size_t>(inputs->changes.size(), inputs->dfz ? 3 : 16);
    std::vector<double> ms;
    for (std::size_t i = 0; i < updates; ++i) {
      const RouteChange& change = inputs->changes[i];
      const std::int64_t start = NowNs();
      engine->ApplyUpdate(ToUpdate(change), 0);
      const std::int64_t end = NowNs();
      tracer->Record("engine.apply_update", rung, i, start, end);
      ms.push_back(static_cast<double>(end - start) / 1e6);
      ApplyToOracle(change, &inputs->oracle);
      ++tally.attempted;
      const net::IpAddress probe = change.prefix.network();
      if (engine->Lookup(probe) != inputs->oracle.LongestMatch(probe)) {
        tally.Mismatch("published update not visible at " + probe.ToString());
      }
    }
    metrics->Set("engine.apply_update_ms", Median(ms), "ms");
    metrics->Set("engine.delta_publishes",
                 static_cast<double>(engine->metrics().delta_publishes.value()), "count");
    metrics->Set("engine.full_publishes",
                 static_cast<double>(engine->metrics().full_publishes.value()), "count");
    tracer->Close(rung);
  }
  metrics->Set(kShardCpuShare,
               (CpuSeconds(workers) - shard_cpu_start) /
                   (static_cast<double>(NowNs() - ladder_start) / 1e9),
               "ratio");
  engine->Stop();

  // Self time of each layer per address: the layer's cost minus the cost
  // of the layers it wraps, all on the same stream.
  const double server_ns = frame_rtt_us * 1e3 / static_cast<double>(k);
  metrics->Set("self.trie_ns_per_addr", flat_ns, "ns");
  metrics->Set("self.engine_ns_per_addr", engine_ns - flat_ns, "ns");
  metrics->Set("self.mapping_ns_per_addr", mapping_ns - engine_ns, "ns");
  metrics->Set("self.codec_ns_per_addr", codec_ns_per_addr, "ns");
  metrics->Set("self.server_ns_per_addr", server_ns - codec_ns_per_addr - mapping_ns,
               "ns");
  metrics->Set("self.fleet_ns_per_addr",
               (fleet_call_us - batch64_us) * 1e3 / static_cast<double>(kFleetBatch),
               "ns");
  // Every ladder call is an oracle check: a failed one left its answer
  // unchecked.
  tally.unchecked = tally.failed;
  return tally;
}

}  // namespace perfbench
