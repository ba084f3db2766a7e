// loadgen: replay a client-IP stream against a running netclustd.
//
//   $ loadgen --port 4730 --clf access.log --connections 4 --count 100000
//   $ loadgen --port 4730 --synth 10.0.0.0/8 --batch 64 --json out.json
//
// The IP stream comes from a CLF web log (per-request client addresses,
// repeats preserved) or from --synth (deterministic addresses inside a
// prefix). Exits non-zero on any transport error, and also when the
// measured lookup rate falls below --min-qps (the CI smoke floor).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "loadgen.h"
#include "net/prefix.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --port N [options]\n"
      "       %s --endpoints H1:P1,H2:P2,... [options]   (fleet mode)\n"
      "  --host A.B.C.D       server address (default 127.0.0.1)\n"
      "  --port N             server port (required unless --endpoints)\n"
      "  --endpoints LIST     comma-separated cluster endpoints; drives the\n"
      "                       whole fleet via topology routing and reports\n"
      "                       aggregate qps\n"
      "  --clf FILE           replay client IPs from a CLF web log\n"
      "  --clf-limit N        cap the CLF stream at N requests\n"
      "  --synth P/L          synthesize addresses inside prefix P/L\n"
      "  --synth-count N      how many synthetic addresses (default 4096)\n"
      "  --count N            total request frames (default 10000)\n"
      "  --connections N      concurrent connections (default 1)\n"
      "  --batch N            addresses per BATCH_LOOKUP frame (default 1)\n"
      "  --pipeline N         frames in flight per connection (default 1;\n"
      "                       >1 pipelines — standalone mode only)\n"
      "  --zipf S             reshape the stream to Zipf(S) popularity\n"
      "                       (rank = first appearance; 0 = off)\n"
      "  --assign             send RANK (CDN server selection) instead of\n"
      "                       lookups; batch 1, no pipelining\n"
      "  --churn              send INGEST_UPDATE churn (announce/withdraw\n"
      "                       pairs of /24s from the stream) instead of\n"
      "                       lookups; batch 1, no pipelining, standalone\n"
      "  --churn-source N     source id for churn updates (default 0)\n"
      "  --timeout-ms N       per-call deadline (default 5000)\n"
      "  --json FILE          write the machine-readable report to FILE\n"
      "  --min-qps X          exit 1 if lookups/sec lands below X\n",
      argv0, argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace netclust;

  loadgen::Options options;
  std::string clf_path;
  std::size_t clf_limit = 0;
  std::string synth_prefix;
  std::size_t synth_count = 4096;
  std::string json_path;
  double min_qps = 0.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--host" && has_value) {
      options.host = argv[++i];
    } else if (arg == "--port" && has_value) {
      options.port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    } else if (arg == "--endpoints" && has_value) {
      std::string list = argv[++i];
      std::size_t start = 0;
      while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? list.size() : comma;
        if (end > start) {
          options.endpoints.push_back(list.substr(start, end - start));
        }
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (arg == "--clf" && has_value) {
      clf_path = argv[++i];
    } else if (arg == "--clf-limit" && has_value) {
      clf_limit = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--synth" && has_value) {
      synth_prefix = argv[++i];
    } else if (arg == "--synth-count" && has_value) {
      synth_count = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--count" && has_value) {
      options.total_frames = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--connections" && has_value) {
      options.connections = std::atoi(argv[++i]);
    } else if (arg == "--batch" && has_value) {
      options.batch_size = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--pipeline" && has_value) {
      options.pipeline = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--zipf" && has_value) {
      options.zipf_s = std::atof(argv[++i]);
    } else if (arg == "--assign") {
      options.assign_mode = true;
    } else if (arg == "--churn") {
      options.churn_mode = true;
    } else if (arg == "--churn-source" && has_value) {
      options.churn_source = static_cast<std::uint32_t>(std::atoll(argv[++i]));
    } else if (arg == "--timeout-ms" && has_value) {
      options.timeout_ms = std::atoi(argv[++i]);
    } else if (arg == "--json" && has_value) {
      json_path = argv[++i];
    } else if (arg == "--min-qps" && has_value) {
      min_qps = std::atof(argv[++i]);
    } else {
      Usage(argv[0]);
      return 2;
    }
  }
  if (options.port == 0 && options.endpoints.empty()) {
    Usage(argv[0]);
    return 2;
  }

  if (!clf_path.empty()) {
    auto addresses = loadgen::AddressesFromClf(clf_path, clf_limit);
    if (!addresses.ok()) {
      std::fprintf(stderr, "loadgen: %s\n", addresses.error().c_str());
      return 1;
    }
    options.addresses = std::move(addresses).value();
  } else {
    if (synth_prefix.empty()) synth_prefix = "10.0.0.0/8";
    auto prefix = net::Prefix::Parse(synth_prefix);
    if (!prefix.ok()) {
      std::fprintf(stderr, "loadgen: bad --synth prefix: %s\n",
                   prefix.error().c_str());
      return 2;
    }
    options.addresses = loadgen::SyntheticAddresses(
        synth_count, prefix.value().network(), prefix.value().length());
  }

  if (options.endpoints.empty()) {
    std::printf("loadgen: %zu-address stream -> %s:%u, %zu frames x %zu "
                "addresses over %d connection(s), pipeline %zu\n",
                options.addresses.size(), options.host.c_str(), options.port,
                options.total_frames, options.batch_size, options.connections,
                options.pipeline);
  } else {
    std::printf("loadgen: %zu-address stream -> %zu-node fleet, %zu frames "
                "x %zu addresses over %d connection(s)\n",
                options.addresses.size(), options.endpoints.size(),
                options.total_frames, options.batch_size,
                options.connections);
  }

  auto run = loadgen::Run(options);
  if (!run.ok()) {
    std::fprintf(stderr, "loadgen: %s\n", run.error().c_str());
    return 1;
  }
  const loadgen::Report& report = run.value();
  const std::string json = report.ToJson();
  std::printf("%s\n", json.c_str());
  if (!report.first_error.empty()) {
    std::fprintf(stderr, "loadgen: first error: %s\n",
                 report.first_error.c_str());
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::trunc);
    out << json << "\n";
    if (!out) {
      std::fprintf(stderr, "loadgen: cannot write %s\n", json_path.c_str());
      return 1;
    }
  }
  if (report.errors > 0) return 1;
  if (min_qps > 0.0 && report.qps < min_qps) {
    std::fprintf(stderr, "loadgen: %.1f qps is below the --min-qps floor %.1f\n",
                 report.qps, min_qps);
    return 1;
  }
  return 0;
}
