// Load-generator core for netclustd.
//
// Replays a stream of client IP addresses — taken from a CLF web log (the
// paper's input artifact) or synthesized deterministically — against a
// running daemon as BATCH_LOOKUP frames over N concurrent
// connections, measuring round-trip latency into the engine's fixed-bucket
// histogram. Lives in a small library so bench_server_latency can drive
// the exact same traffic in-process; the `loadgen` binary is a thin CLI
// over Run().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/ip_address.h"
#include "net/result.h"

namespace netclust::loadgen {

struct Options {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Concurrent connections, one thread each.
  int connections = 1;
  /// Total request frames across all connections.
  std::size_t total_frames = 10'000;
  /// Addresses per BATCH_LOOKUP frame (1 is a single-address lookup).
  std::size_t batch_size = 1;
  /// Request frames kept in flight per connection. 1 round-trips each
  /// frame (one request, wait, one response); >1 pipelines: the worker
  /// primes this many frames, then sends a new one for every response it
  /// reads, hiding the per-frame RTT behind the server's reply coalescing.
  /// Pipelining drives a single daemon — incompatible with `endpoints`.
  std::size_t pipeline = 1;
  int timeout_ms = 5'000;
  /// How many times a BUSY response is retried (with 1ms backoff) before
  /// the frame counts as an error.
  int busy_retries = 100;
  /// The IP stream, replayed cyclically (connection i starts at offset i).
  std::vector<net::IpAddress> addresses;
  /// Zipf skew exponent s: when > 0, the stream is resampled so address
  /// rank k (first-appearance order) is drawn with P(k) ∝ 1/(k+1)^s —
  /// the paper's observed client-popularity shape, and what makes the
  /// server-side mapping cache earn its hit ratio. 0 leaves the stream
  /// untouched.
  double zipf_s = 0.0;
  /// CDN assignment mode: send RANK instead of BATCH_LOOKUP (epoch 0
  /// standalone, topology epoch in fleet mode). Requires batch_size 1 and
  /// no pipelining; `found` counts replies that named a server.
  bool assign_mode = false;
  /// Churn mode: each frame is an INGEST_UPDATE instead of a lookup —
  /// frame 2k announces the /24 covering the next stream address, frame
  /// 2k+1 withdraws it, driving the daemon's single ingest thread and the
  /// incremental-recompile publish path. Requires batch_size 1, no
  /// pipelining, no fleet endpoints; `found` counts acks whose published
  /// table version advanced (the rest were counted no-ops server-side).
  bool churn_mode = false;
  /// Registered source id churn updates are attributed to.
  std::uint32_t churn_source = 0;
  /// Fleet mode: "host:port" endpoints of a netclustd cluster. Non-empty
  /// switches every worker to a topology-routed ClusterClient driving the
  /// whole fleet (host/port above are ignored), and the report's qps is
  /// the aggregate across shards.
  std::vector<std::string> endpoints;
};

struct Report {
  std::size_t frames_sent = 0;
  std::size_t pipeline = 1;       // frames in flight per connection
  std::size_t lookups_done = 0;   // addresses answered (batch expanded)
  std::size_t found = 0;          // answers with a covering prefix
  std::size_t busy_retries = 0;   // BUSY responses absorbed by retry
  std::size_t redirects = 0;      // cluster redirects followed (fleet mode)
  std::size_t errors = 0;
  std::uint64_t elapsed_ns = 0;
  double qps = 0.0;               // lookups_done per wall-clock second
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  /// Zipf skew the stream was shaped with (0 = unshaped), echoed into the
  /// JSON so benchmark artifacts carry their workload shape.
  double zipf_s = 0.0;
  std::string first_error;

  /// One-line machine-readable summary (the BENCH_server.json schema).
  [[nodiscard]] std::string ToJson() const;
};

/// Runs the generator to completion. Fails only on setup problems (no
/// addresses, connect failure); per-frame failures are counted in the
/// report instead.
[[nodiscard]] Result<Report> Run(const Options& options);

/// `count` deterministic addresses inside `base_prefix`/`prefix_len`
/// (e.g. 10.0.0.0/8), LCG-scattered so consecutive addresses hit
/// different table subtrees.
[[nodiscard]] std::vector<net::IpAddress> SyntheticAddresses(
    std::size_t count, net::IpAddress base_prefix, int prefix_len,
    std::uint64_t seed = 1);

/// Per-request client addresses from a CLF log file, in log order
/// (repeats preserved — a hot client really is hot); at most `limit`
/// when limit > 0.
[[nodiscard]] Result<std::vector<net::IpAddress>> AddressesFromClf(
    const std::string& path, std::size_t limit = 0);

}  // namespace netclust::loadgen
