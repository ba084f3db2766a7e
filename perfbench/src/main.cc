// netclust benchmark: one command per workload.
//
//   netclust_perfbench --workload <paper_cdn|dfz_batch|dfz_churn>
//                      --seed <n> --seconds <s> --trace <0|1>
//                      [--trace-dir <dir>] [--corrupt-oracle]
//
// --trace 0 runs the workload end to end and reports the end-to-end
// metrics; --trace 1 walks the traced layer ladder on the same inputs and
// reports the per-layer metrics (spans go to --trace-dir). Every answer
// is checked against a Patricia oracle built here; --corrupt-oracle flips
// one expected answer, which must make the run fail (the self-test).
//
// The last line of stdout is the result:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The line before it is the run context (machine, build, tables, seed).
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "driver.h"
#include "ladder.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

// Metric names per mode; the result line carries exactly these.
const std::vector<std::string> kEndToEnd = {
    "setup_s",        "lookup_qps",            "lookup_p50_us",
    "answered_ratio", "update_visible_p50_ms", "updates_per_s",
    "peak_rss_mb"};

const std::vector<std::string> kPerLayer = {
    "trie.flat_batch_ns_per_addr", "trie.flat_lookup_ns",
    "trie.directory_bytes",        "trie.block_count",
    "trie.compile_full_ms",        "trie.compile_delta_ms",
    "bgp.table_clone_ms",          "bgp.acquire_ns",
    "engine.lookup_ns",            "engine.lookup_scaling",
    "engine.batch_ns_per_addr",    "engine.apply_update_ms",
    "engine.delta_publishes",      "engine.full_publishes",
    "engine.shard_cpu_share",
    "mapping.hit_ratio",           "mapping.lookup_ns_per_addr",
    "mapping.model_hit_ratio",     "server.bytes_per_lookup",
    "server.busy_replies",         "server.short_writes",
    "server.reactor_share_max",    "server.decode_ns",
    "server.encode_ns",            "server.lookup_p99_us",
    "cluster.batch_call_us",
    "cluster.frames_per_batch",    "cluster.node_share_max",
    "cluster.redirects",           "bench.late_p99_us",
    "bench.trace_overhead_pct",    "bench.driver_busy_share",
    "self.trie_ns_per_addr",
    "self.engine_ns_per_addr",     "self.mapping_ns_per_addr",
    "self.codec_ns_per_addr",      "self.server_ns_per_addr",
    "self.fleet_ns_per_addr"};

// A generator late by more than this share of the p99 it reports measured
// itself, not netclust.
constexpr double kMaxLateShare = 0.5;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <paper_cdn|dfz_batch|dfz_churn> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>] "
               "[--corrupt-oracle]\n",
               argv0);
  return 2;
}

bool ParseKind(const std::string& name, Kind* kind) {
  if (name == "paper_cdn") *kind = Kind::kPaperCdn;
  else if (name == "dfz_batch") *kind = Kind::kDfzBatch;
  else if (name == "dfz_churn") *kind = Kind::kDfzChurn;
  else return false;
  return true;
}

/// Sanitizer and assertion builds measure a different program.
const char* RefusedBuild() {
#ifndef NDEBUG
  return "assertions are enabled (Debug build)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
  return "built with a sanitizer";
#endif
#endif
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    return "built with -fsanitize";
  }
  return nullptr;
}

std::string Json(double value) {
  char text[64];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

void PrintContext(const Options& options, const Inputs& inputs, unsigned nproc,
                  int budget, const Metrics& metrics, bool valid) {
  std::string mix = "{";
  if (inputs.dfz) {
    for (std::size_t len = 0; len <= 32; ++len) {
      if (inputs.dfz->length_counts[len] == 0) continue;
      if (mix.size() > 1) mix += ", ";
      mix += "\"/" + std::to_string(len) + "\": " +
             std::to_string(inputs.dfz->length_counts[len]);
    }
  }
  mix += "}";
  std::string extra = "{";
  // Measured but not part of this mode's result line.
  const std::vector<std::string>& reported = options.trace ? kPerLayer : kEndToEnd;
  for (const auto& [name, value] : metrics.values()) {
    if (std::find(reported.begin(), reported.end(), name) != reported.end()) continue;
    if (extra.size() > 1) extra += ", ";
    extra += "\"" + name + "\": " + Json(value.first);
  }
  extra += "}";
  std::printf(
      "context: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"transport\": \"loopback\", \"nproc\": %u, "
      "\"thread_budget\": %d, \"host_steal_share\": %.4f, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", "
      "\"sanitizers\": \"none\", \"table_prefixes\": %zu, "
      "\"engine_sources\": %zu, \"stream_addresses\": %zu, "
      "\"frame_addresses\": %zu, \"updates\": %zu, \"prefix_length_mix\": %s, "
      "\"valid\": %s, \"other\": %s}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, nproc, budget, HostStealShare(),
      __VERSION__,
      PERFBENCH_BUILD_TYPE, inputs.table_prefixes, inputs.snapshots.size(),
      inputs.stream.addresses.size(), inputs.stream.frame_size,
      inputs.changes.size(), mix.c_str(), valid ? "true" : "false",
      extra.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string trace_dir = ".";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
      have_workload = ParseKind(options.workload, &options.kind);
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--trace-dir" && has_value) {
      trace_dir = argv[++i];
    } else if (arg == "--corrupt-oracle") {
      options.corrupt_oracle = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!have_workload || options.seconds <= 0) return Usage(argv[0]);
  if (const char* why = RefusedBuild()) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n", why);
    return 3;
  }
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const int budget = ThreadBudget(options.kind);
  if (static_cast<unsigned>(budget) > nproc) {
    std::fprintf(stderr,
                 "perfbench: %s needs %d busy threads but nproc is %u; the "
                 "figures would measure oversubscription\n",
                 options.workload.c_str(), budget, nproc);
    return 3;
  }

  std::printf("workload  %s, seed %llu, %g s, trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::fflush(stdout);
  HostStealShare();  // counts from here
  const std::int64_t start = NowNs();
  Inputs inputs = MakeInputs(options, ParamsFor(options.kind));
  std::printf("inputs    %zu prefixes, %zu stream addresses, %zu updates, "
              "generated in %.2f s\n",
              inputs.table_prefixes, inputs.stream.addresses.size(),
              inputs.changes.size(), static_cast<double>(NowNs() - start) / 1e9);
  if (options.corrupt_oracle) LoopbackDriver::Corrupt(&inputs.stream);

  Metrics metrics;
  Tally tally;
  if (options.trace) {
    Tracer tracer;
    tally = RunLadder(options, &inputs, &metrics, &tracer);
    mkdir(trace_dir.c_str(), 0755);
    const std::string path = trace_dir + "/" + options.workload + "-seed" +
                             std::to_string(options.seed) + ".spans.tsv";
    if (tracer.WriteTsv(path)) {
      std::printf("spans     %zu written to %s (%zu dropped)\n", tracer.size(),
                  path.c_str(), tracer.dropped());
    }
  } else {
    tally = RunWorkload(options, &inputs, &metrics);
  }

  const auto& values = metrics.values();
  // The open loop is valid only if the generator's own lateness explains
  // less than half of the tail it measured. Both are medians over the
  // same windows, like the figures the run reports.
  const auto late = values.find("bench.late_p99_us");
  const auto tail = values.find(options.trace ? "server.lookup_p99_us" : "lookup_p99_us");
  const bool valid = late == values.end() || tail == values.end() ||
                     late->second.first <= kMaxLateShare * tail->second.first;
  const std::vector<std::string>& names = options.trace ? kPerLayer : kEndToEnd;
  bool complete = true;
  std::string body;
  for (const std::string& name : names) {
    const auto it = values.find(name);
    if (it == values.end()) {
      complete = false;
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", name.c_str());
      continue;
    }
    if (!body.empty()) body += ", ";
    body += "\"" + name + "\": {\"value\": " + Json(it->second.first) +
            ", \"unit\": \"" + it->second.second + "\"}";
    if (!options.trace) {
      std::printf("metric    %-22s %14.6g %s\n", name.c_str(), it->second.first,
                  it->second.second.c_str());
    }
  }
  const bool checked = tally.mismatches == 0 && tally.unchecked == 0 &&
                       tally.attempted > 0;
  std::printf("oracle    %s: %llu operations, %llu failed (%llu unchecked), "
              "%llu mismatched%s%s\n",
              checked ? "PASS" : "FAIL",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.unchecked),
              static_cast<unsigned long long>(tally.mismatches),
              tally.first_problem.empty() ? "" : "; first problem: ",
              tally.first_problem.c_str());
  if (!valid) {
    std::printf("validity  INVALID: generator late p99 %.1f us is over %.0f%% of "
                "the measured p99 %.1f us\n",
                late->second.first, kMaxLateShare * 100, tail->second.first);
  }
  // An invalid run measured its own generator; it fails like a wrong one.
  const bool correct = checked && complete && valid;
  PrintContext(options, inputs, nproc, budget, metrics, valid);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(1, tally.attempted)),
              static_cast<unsigned long long>(tally.failed), body.c_str());
  return correct ? 0 : 1;
}
