// Service-layer latency: what does putting netclustd's wire protocol and
// a real TCP round-trip in front of Engine::Lookup cost?
//
// Spins up the daemon in-process on an ephemeral loopback port and
// replays the Nagano preset log's per-request client stream through the
// loadgen core, two ways:
//
//   throughput — pipelined BATCH_LOOKUP (256 addresses per frame, 8
//     frames in flight per connection, 2 connections), swept across
//     reactor counts {1, 2, 4} to show the shared-nothing data plane's
//     per-core scaling. The winning configuration is the record written
//     to BENCH_server.json.
//   latency probe — one connection, one address per frame (a
//     BATCH_LOOKUP of one), one frame in flight: the unamortized wire
//     round-trip, reported as probe p50/p99.
//
// Floor: the pipelined daemon must clear 1M lookups/s on loopback. The
// old single-reader epoll loop topped out around 800k; the reactor
// rewrite's batch decode -> LookupBatch -> writev path clears 1M on a
// single core purely through amortization, so a failure here means a
// serialization bug on the lookup path, not a slow machine.
//
// `--floor-only` (the CI mode) runs just the default-reactor throughput
// configuration, enforces the floor, and writes BENCH_server.json without
// the probe keys (the probe does not run).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "engine/engine.h"
#include "loadgen.h"
#include "server/server.h"

namespace {

using namespace netclust;

struct SweepPoint {
  int reactors = 0;
  loadgen::Report report;
};

/// Serves `engine` with `reactors` reactors and drives `options` against
/// it. The daemon is torn down before returning so sweep points don't
/// share ports or threads.
Result<loadgen::Report> RunPoint(engine::Engine* engine, int reactors,
                                 loadgen::Options options) {
  server::ServerConfig server_config;
  server_config.port = 0;  // ephemeral
  server_config.reactors = reactors;
  server::Server daemon(engine, server_config);
  const Result<std::uint16_t> port = daemon.Serve();
  if (!port.ok()) return Fail("serve: " + port.error());
  options.port = port.value();
  Result<loadgen::Report> run = loadgen::Run(options);
  daemon.Stop();
  if (!run.ok()) return Fail("loadgen: " + run.error());
  if (run.value().errors != 0) {
    return Fail("request errors (first: " + run.value().first_error + ")");
  }
  return run;
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
      "service layer — netclustd end-to-end lookup latency",
      "shared-nothing reactors put a wire round-trip but no locks in "
      "front of the engine: cluster lookups stay cheap enough to answer "
      "online, per request");

  const auto& scenario = bench::GetScenario();
  const auto generated = bench::MakeLog(bench::LogPreset::kNagano);
  const auto& log = generated.log;
  const bgp::Snapshot seed = scenario.vantages().MakeSnapshot(0, 0);

  engine::EngineConfig config;
  config.shards = 1;
  config.log_name = "nagano";
  engine::Engine engine(config);
  engine.SeedSnapshot(seed);
  engine.Start();

  // The paper's input artifact is a web log; replay its client stream
  // (repeats preserved) exactly as `loadgen --clf` would.
  loadgen::Options throughput;
  throughput.connections = 2;
  throughput.batch_size = 256;
  throughput.pipeline = 8;
  throughput.total_frames = 8'000;  // ~2M lookups per sweep point
  for (const auto& request : log.requests()) {
    throughput.addresses.push_back(request.client);
  }

  constexpr double kFloorQps = 1'000'000.0;
  const std::vector<int> reactor_sweep =
      floor_only ? std::vector<int>{2} : std::vector<int>{1, 2, 4};

  std::printf("\nload:  %zu clients cycled from %zu log requests, "
              "%d connections x %zu-address batches, pipeline %zu, "
              "%zu frames per point\n",
              log.clients().size(), throughput.addresses.size(),
              throughput.connections, throughput.batch_size,
              throughput.pipeline, throughput.total_frames);
  std::printf("table: %zu prefixes\n\n", seed.entries.size());

  SweepPoint best;
  for (const int reactors : reactor_sweep) {
    const Result<loadgen::Report> run =
        RunPoint(&engine, reactors, throughput);
    if (!run.ok()) {
      std::fprintf(stderr, "bench_server_latency: reactors=%d: %s\n",
                   reactors, run.error().c_str());
      engine.Stop();
      return 1;
    }
    const loadgen::Report& report = run.value();
    std::printf("  reactors=%d  %12s lookups/s   frame p50 %8.1f us   "
                "p99 %8.1f us\n",
                reactors, bench::Fmt(report.qps).c_str(),
                static_cast<double>(report.p50_ns) / 1000.0,
                static_cast<double>(report.p99_ns) / 1000.0);
    if (best.reactors == 0 || report.qps > best.report.qps) {
      best = SweepPoint{reactors, report};
    }
  }

  // Unamortized round trip: one address, one frame in flight. This is
  // the number the "single-digit-microsecond localhost p50" claim is
  // about — the pipelined p50 above measures a full 256-address frame.
  std::string probe_keys;  // JSON members, present only when probed
  if (!floor_only) {
    loadgen::Options probe_options;
    probe_options.connections = 1;
    probe_options.batch_size = 1;
    probe_options.pipeline = 1;
    probe_options.total_frames = 20'000;
    probe_options.addresses = throughput.addresses;
    const Result<loadgen::Report> run =
        RunPoint(&engine, best.reactors, probe_options);
    if (!run.ok()) {
      std::fprintf(stderr, "bench_server_latency: probe: %s\n",
                   run.error().c_str());
      engine.Stop();
      return 1;
    }
    const double p50_us = static_cast<double>(run.value().p50_ns) / 1e3;
    const double p99_us = static_cast<double>(run.value().p99_ns) / 1e3;
    std::printf("\n  %-28s %.1f us (p99 %.1f us)\n",
                "single-lookup round-trip p50", p50_us, p99_us);
    char keys[96];
    std::snprintf(keys, sizeof(keys),
                  "\"probe_p50_us\": %.3f, \"probe_p99_us\": %.3f, ", p50_us,
                  p99_us);
    probe_keys = keys;
  }
  engine.Stop();

  std::printf("\n  %-28s %s lookups/s (reactors=%d)\n", "best throughput",
              bench::Fmt(best.report.qps).c_str(), best.reactors);
  std::printf("  %-28s %s (of %s lookups)\n", "covered by a prefix",
              bench::Fmt(static_cast<double>(best.report.found)).c_str(),
              bench::Fmt(static_cast<double>(best.report.lookups_done))
                  .c_str());

  char json[512];
  std::snprintf(
      json, sizeof(json),
      "{\"qps\": %.1f, \"reactors\": %d, \"pipeline\": %zu, "
      "\"batch\": %zu, \"connections\": %d, \"frames\": %zu, "
      "\"lookups\": %zu, \"found\": %zu, "
      "\"frame_p50_us\": %.3f, \"frame_p99_us\": %.3f, %s"
      "\"busy_retries\": %zu, \"errors\": %zu, \"elapsed_ms\": %.1f}",
      best.report.qps, best.reactors, throughput.pipeline,
      throughput.batch_size, throughput.connections,
      best.report.frames_sent, best.report.lookups_done, best.report.found,
      static_cast<double>(best.report.p50_ns) / 1e3,
      static_cast<double>(best.report.p99_ns) / 1e3, probe_keys.c_str(),
      best.report.busy_retries,
      best.report.errors, static_cast<double>(best.report.elapsed_ns) / 1e6);

  std::FILE* out = std::fopen("BENCH_server.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_server_latency: cannot write "
                 "BENCH_server.json\n");
    return 1;
  }
  std::fprintf(out, "%s\n", json);
  std::fclose(out);
  std::printf("\nwrote BENCH_server.json: %s\n", json);

  if (best.report.qps < kFloorQps) {
    std::fprintf(stderr, "bench_server_latency: %.0f lookups/s is below "
                 "the 1M pipelined floor\n",
                 best.report.qps);
    return 1;
  }
  std::printf("pipelined floor (1M lookups/s): cleared\n");
  return 0;
}
