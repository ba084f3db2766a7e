// Mapping tier + CDN assignment workload: what does the per-reactor
// /24 cache buy the serving plane, and what does network-aware server
// assignment buy a CDN over the /24-naive baseline?
//
// Spins up netclustd in-process over the synthetic CDN scenario
// (src/synth/cdn.h: clusters homed across regions, a fraction of /24
// blocks deliberately split across regions — the paper's §2.1 resold-/24
// failure case) and measures three things:
//
//   throughput — the same Zipf(0.9) client stream replayed through
//     pipelined BATCH_LOOKUP twice: mapping cache off (every lookup
//     walks the flat directory) and on (uniform /24s answered from the
//     reactor-private LRU). Both land in BENCH_mapping.json; the floor
//     is on the cache-on number.
//   hit ratio — the tier's own counters over the measured pass, printed
//     against the Coras/Che prediction for the same workload (split
//     blocks never cache, so the model runs on the cacheable substream
//     and is scaled by its traffic share).
//   assignment quality — every sampled request RANKed over the wire
//     and sent to the ranking's front server (cluster-aware: longest
//     match -> cluster -> ranking) versus
//     synth::NaiveAssign (one probe speaks for the whole /24). Reported
//     as misassignment rate and server load skew; the floor requires the
//     cluster-aware path to beat the naive baseline.
//
// `--floor-only` (the CI mode) shrinks the request counts, enforces both
// floors, and writes BENCH_mapping.json.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "engine/engine.h"
#include "loadgen.h"
#include "mapping/coras.h"
#include "mapping/rank_table.h"
#include "server/client.h"
#include "server/server.h"
#include "synth/cdn.h"
#include "synth/rng.h"

namespace {

using namespace netclust;

constexpr double kAlpha = 0.9;           // request skew over allocations
constexpr std::size_t kCapacity = 128;   // per-reactor /24 cache entries
constexpr double kFloorQps = 500'000.0;  // pipelined BATCH_LOOKUP floor

struct TierTotals {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

TierTotals ReadTier(const server::Server& daemon) {
  TierTotals totals;
  for (std::size_t i = 0; i < daemon.reactor_count(); ++i) {
    totals.hits += daemon.mapping_counters(i).hits.value();
    totals.misses += daemon.mapping_counters(i).misses.value();
  }
  return totals;
}

/// Coras/Che prediction for the CDN stream. Allocation k draws Zipf(alpha)
/// rank-k traffic, but only unsplit /24 allocations are cacheable; the
/// cache never sees the split blocks, so the model runs on the cacheable
/// substream (Che's T is per cache-visible request) and the resulting hit
/// ratio is scaled back by that substream's share of all traffic.
double PredictStreamHitRatio(const synth::CdnScenario& scenario) {
  const std::vector<double> all =
      mapping::ZipfPopularity(scenario.allocations.size(), kAlpha);
  std::vector<double> cacheable;
  double share = 0.0;
  for (std::size_t i = 0; i < scenario.allocations.size(); ++i) {
    if (scenario.allocations[i].prefix.length() == 24) {
      cacheable.push_back(all[i]);
      share += all[i];
    }
  }
  return share * mapping::PredictedHitRatio(cacheable, kCapacity);
}

}  // namespace

int main(int argc, char** argv) {
  bool floor_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--floor-only") == 0) {
      floor_only = true;
    } else {
      std::fprintf(stderr, "usage: %s [--floor-only]\n", argv[0]);
      return 2;
    }
  }

  bench::PrintHeader(
      "mapping tier + CDN server assignment (RANK workload)",
      "clusters, not /24s, are the unit a CDN should assign by: the "
      "network-aware path beats the /24-naive baseline exactly on the "
      "resold blocks, and a small /24 cache absorbs the Zipf head");

  // The world: the synthetic CDN scenario, announced into an engine, and
  // its per-cluster rankings installed as the daemon's rank table.
  const synth::CdnScenario scenario = synth::GenerateCdn(synth::CdnConfig{});
  engine::EngineConfig engine_config;
  engine_config.shards = 1;
  engine_config.log_name = "cdn";
  engine::Engine engine(engine_config);
  const int source = engine.AddSource(
      {"CDN", "1/1/2000", bgp::SourceKind::kBgpTable, ""});
  for (const synth::CdnAllocation& allocation : scenario.allocations) {
    engine.Announce(allocation.prefix, source, allocation.as);
  }
  engine.Start();

  auto ranks = std::make_shared<mapping::RankTable>();
  ranks->SetDefault(scenario.default_ranking);
  for (const synth::CdnRanking& ranking : scenario.rankings) {
    ranks->SetRanking(ranking.as, ranking.servers);
  }

  // The client stream: Zipf(0.9) over allocations, uniform host bits.
  const std::size_t sample_size = floor_only ? 60'000 : 200'000;
  synth::Rng rng(17);
  const std::vector<synth::CdnRequest> requests =
      synth::SampleCdnRequests(scenario, sample_size, kAlpha, rng);

  loadgen::Options stream;
  stream.connections = 2;
  stream.batch_size = 256;
  stream.pipeline = 4;
  stream.total_frames = floor_only ? 2'000 : 6'000;
  stream.addresses.reserve(requests.size());
  for (const synth::CdnRequest& request : requests) {
    stream.addresses.push_back(request.address);
  }

  std::printf("\nworld: %zu servers / %zu regions, %zu allocations "
              "(%zu /24 blocks split across regions)\n",
              scenario.servers.size(), scenario.config.regions,
              scenario.allocations.size(), scenario.mixed_blocks);
  std::printf("load:  Zipf(%.1f) over allocations, %zu sampled requests, "
              "%d connections x %zu-address batches, pipeline %zu\n",
              kAlpha, requests.size(), stream.connections, stream.batch_size,
              stream.pipeline);

  // Throughput + hit ratio: identical stream, cache off then on.
  double qps_off = 0.0;
  double qps_on = 0.0;
  double hit_ratio = 0.0;
  for (const std::size_t capacity : {std::size_t{0}, kCapacity}) {
    server::ServerConfig config;
    config.port = 0;
    config.reactors = 2;
    config.mapping_cache_capacity = capacity;
    config.rank_table = ranks;
    server::Server daemon(&engine, config);
    const Result<std::uint16_t> port = daemon.Serve();
    if (!port.ok()) {
      std::fprintf(stderr, "bench_mapping: serve: %s\n", port.error().c_str());
      return 1;
    }
    loadgen::Options options = stream;
    options.port = port.value();

    // Warm the caches (and the kernel paths) before the measured pass.
    loadgen::Options warmup = options;
    warmup.total_frames = 400;
    if (const Result<loadgen::Report> run = loadgen::Run(warmup); !run.ok()) {
      std::fprintf(stderr, "bench_mapping: warmup: %s\n",
                   run.error().c_str());
      return 1;
    }
    const TierTotals before = ReadTier(daemon);
    const Result<loadgen::Report> run = loadgen::Run(options);
    if (!run.ok() || run.value().errors != 0) {
      std::fprintf(stderr, "bench_mapping: loadgen: %s\n",
                   run.ok() ? run.value().first_error.c_str()
                            : run.error().c_str());
      return 1;
    }
    const TierTotals after = ReadTier(daemon);
    daemon.Stop();

    const std::uint64_t hits = after.hits - before.hits;
    const std::uint64_t misses = after.misses - before.misses;
    if (capacity == 0) {
      qps_off = run.value().qps;
      std::printf("\n  cache off   %12s lookups/s   (tier counters %llu/%llu"
                  " — disabled tier must not count)\n",
                  bench::Fmt(qps_off).c_str(),
                  static_cast<unsigned long long>(hits),
                  static_cast<unsigned long long>(misses));
    } else {
      qps_on = run.value().qps;
      hit_ratio = hits + misses == 0
                      ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(hits + misses);
      std::printf("  cache %-4zu  %12s lookups/s   hit ratio %.3f\n",
                  capacity, bench::Fmt(qps_on).c_str(), hit_ratio);
    }
  }
  const double predicted = PredictStreamHitRatio(scenario);
  std::printf("  Coras/Che model predicts %.3f for this stream "
              "(observed %.3f)\n", predicted, hit_ratio);

  // Assignment quality: every request RANKed over the wire (the front of
  // the ranking is the assignment) against the /24-naive baseline scored
  // on the same stream.
  server::ServerConfig assign_config;
  assign_config.port = 0;
  assign_config.reactors = 2;
  assign_config.mapping_cache_capacity = kCapacity;
  assign_config.rank_table = ranks;
  server::Server daemon(&engine, assign_config);
  const Result<std::uint16_t> port = daemon.Serve();
  if (!port.ok()) {
    std::fprintf(stderr, "bench_mapping: serve: %s\n", port.error().c_str());
    return 1;
  }
  Result<server::Client> client =
      server::Client::Connect("127.0.0.1", port.value(), 5'000);
  if (!client.ok()) {
    std::fprintf(stderr, "bench_mapping: connect: %s\n",
                 client.error().c_str());
    return 1;
  }
  const std::size_t assign_count =
      floor_only ? 10'000 : std::min<std::size_t>(requests.size(), 40'000);
  std::vector<std::uint16_t> aware;
  std::vector<std::uint16_t> naive;
  aware.reserve(assign_count);
  naive.reserve(assign_count);
  std::vector<synth::CdnRequest> scored(requests.begin(),
                                        requests.begin() + assign_count);
  for (const synth::CdnRequest& request : scored) {
    const Result<server::RankRoundTrip> got =
        client.value().Rank(0, request.address);
    if (!got.ok()) {
      std::fprintf(stderr, "bench_mapping: RANK: %s\n", got.error().c_str());
      return 1;
    }
    const std::vector<std::uint16_t>& ranking = got.value().reply.servers;
    aware.push_back(ranking.empty() ? 0 : ranking.front());
    naive.push_back(synth::NaiveAssign(scenario, request.address));
  }
  daemon.Stop();

  const synth::CdnScore aware_score =
      synth::ScoreAssignments(scenario, scored, aware);
  const synth::CdnScore naive_score =
      synth::ScoreAssignments(scenario, scored, naive);
  std::printf("\n  %-34s %8.4f misassigned, load skew %.3f\n",
              "cluster-aware RANK (wire)", aware_score.misassignment_rate(),
              aware_score.load_skew);
  std::printf("  %-34s %8.4f misassigned, load skew %.3f\n",
              "/24-naive baseline", naive_score.misassignment_rate(),
              naive_score.load_skew);

  engine.Stop();

  char json[640];
  std::snprintf(
      json, sizeof(json),
      "{\"qps_cache_on\": %.1f, \"qps_cache_off\": %.1f, "
      "\"cache_capacity\": %zu, \"hit_ratio\": %.4f, "
      "\"hit_ratio_coras\": %.4f, \"zipf_s\": %.2f, "
      "\"allocations\": %zu, \"mixed_blocks\": %zu, "
      "\"assigns\": %zu, "
      "\"misassign_cluster\": %.5f, \"misassign_naive\": %.5f, "
      "\"load_skew_cluster\": %.4f, \"load_skew_naive\": %.4f}",
      qps_on, qps_off, kCapacity, hit_ratio, predicted, kAlpha,
      scenario.allocations.size(), scenario.mixed_blocks, assign_count,
      aware_score.misassignment_rate(), naive_score.misassignment_rate(),
      aware_score.load_skew, naive_score.load_skew);

  std::FILE* out = std::fopen("BENCH_mapping.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_mapping: cannot write BENCH_mapping.json\n");
    return 1;
  }
  std::fprintf(out, "%s\n", json);
  std::fclose(out);
  std::printf("\nwrote BENCH_mapping.json: %s\n", json);

  if (qps_on < kFloorQps) {
    std::fprintf(stderr, "bench_mapping: %.0f lookups/s (cache on) is below "
                 "the %.0f floor\n", qps_on, kFloorQps);
    return 1;
  }
  if (aware_score.misassignment_rate() >= naive_score.misassignment_rate()) {
    std::fprintf(stderr, "bench_mapping: cluster-aware assignment (%.4f) "
                 "failed to beat the /24-naive baseline (%.4f)\n",
                 aware_score.misassignment_rate(),
                 naive_score.misassignment_rate());
    return 1;
  }
  std::printf("floors: %.0f lookups/s cleared; cluster-aware beats "
              "/24-naive (%.4f < %.4f)\n",
              kFloorQps, aware_score.misassignment_rate(),
              naive_score.misassignment_rate());
  return 0;
}
