// Blocking client for the netclustd wire protocol.
//
// One TCP connection, one request in flight at a time (the protocol is
// strictly request/response per connection). Every call round-trips a
// frame under the configured deadline and surfaces failures as Result
// errors. BUSY responses are retried internally with capped exponential
// backoff + jitter (RetryPolicy); only after the retry budget is spent
// does the call fail with an error whose message starts with kBusyPrefix,
// so callers can still distinguish "overloaded" from "broken, give up".
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bgp/update.h"
#include "net/ip_address.h"
#include "net/result.h"
#include "server/proto.h"

namespace netclust::server {

/// BUSY retry schedule: attempt k backs off for base_backoff_us << k
/// microseconds (capped at max_backoff_us) with uniform jitter in
/// [backoff/2, backoff] so a thundering herd of retriers decorrelates.
struct RetryPolicy {
  /// BUSY responses absorbed per call before surfacing the error;
  /// 0 disables retries.
  int busy_retries = 8;
  std::uint64_t base_backoff_us = 200;
  std::uint64_t max_backoff_us = 50'000;
};

/// Reply to a CLUSTER_LOOKUP: either the answers (in request order) or a
/// redirect telling the caller to refresh its topology and re-route.
struct ClusterLookupReply {
  std::optional<RedirectReply> redirect;
  std::vector<LookupRecord> records;  // meaningful only when !redirect
};

/// Reply to a RANK: the cluster's server ranking, or a redirect (cluster
/// mode only) telling the caller to refresh its topology and re-route.
struct RankRoundTrip {
  std::optional<RedirectReply> redirect;
  RankReply reply;  // meaningful only when !redirect
};

class Client {
 public:
  /// Error-message prefix for BUSY (retryable backpressure) responses.
  static constexpr const char* kBusyPrefix = "BUSY";
  [[nodiscard]] static bool IsBusy(const std::string& error);

  /// Backoff (us) before retry number `attempt` (0-based) under `policy`,
  /// jittered via the caller's xorshift state `rng` (must be nonzero).
  /// Pure function of its inputs — unit-testable without a clock.
  [[nodiscard]] static std::uint64_t BusyBackoffUs(const RetryPolicy& policy,
                                                  int attempt,
                                                  std::uint64_t* rng);

  /// Connects to a dotted-quad `host`:`port`. `timeout_ms` bounds the
  /// handshake and every subsequent per-call read/write.
  [[nodiscard]] static Result<Client> Connect(const std::string& host,
                                              std::uint16_t port,
                                              int timeout_ms = 5'000);

  Client() = default;
  ~Client();
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] bool connected() const { return fd_ >= 0; }
  void Close();

  /// PING with an optional echo payload (<= kMaxPingEcho); returns the
  /// echoed bytes.
  [[nodiscard]] Result<std::vector<std::uint8_t>> Ping(
      const std::vector<std::uint8_t>& echo = {});

  /// Longest-prefix match for one address: a BATCH_LOOKUP of one.
  [[nodiscard]] Result<LookupRecord> Lookup(net::IpAddress address);

  /// Batch longest-prefix match; records come back in request order.
  /// Requests larger than kMaxBatch are split into multiple frames
  /// transparently (each chunk is one round trip on this connection).
  [[nodiscard]] Result<std::vector<LookupRecord>> BatchLookup(
      const std::vector<net::IpAddress>& addresses);

  /// Feeds one BGP UPDATE into the server's ingest path. On success the
  /// returned ack's table_version is already published: lookups issued
  /// after this call observe the update.
  [[nodiscard]] Result<IngestAck> IngestUpdate(std::uint32_t source_id,
                                               const bgp::UpdateMessage& update);

  /// Plain-text metrics exposition (server + engine counters).
  [[nodiscard]] Result<std::string> Stats();

  /// Epoch-stamped batch lookup (up to kMaxBatch addresses). Cluster
  /// nodes may answer with a redirect — a non-error outcome the reply
  /// carries so the caller can refresh routing and retry; standalone
  /// servers require `epoch` 0.
  [[nodiscard]] Result<ClusterLookupReply> ClusterLookup(
      std::uint64_t epoch, const std::vector<net::IpAddress>& addresses);

  /// The node's installed routing topology.
  [[nodiscard]] Result<Topology> FetchTopology();

  /// Installs `topo` on the node; returns the acked epoch.
  [[nodiscard]] Result<std::uint64_t> PushTopology(const Topology& topo);

  /// The node's cluster-stats counter snapshot.
  [[nodiscard]] Result<ClusterStatsRecord> ClusterStats();

  /// Full CDN server ranking for `address`'s cluster (the assignment is
  /// its front entry). Same epoch/redirect contract as ClusterLookup().
  [[nodiscard]] Result<RankRoundTrip> Rank(std::uint64_t epoch,
                                           net::IpAddress address);

  /// BUSY retry schedule for every call on this client.
  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }
  [[nodiscard]] const RetryPolicy& retry_policy() const {
    return retry_policy_;
  }

  /// BUSY responses absorbed by internal retries over this client's
  /// lifetime (for load-generator accounting).
  [[nodiscard]] std::uint64_t busy_absorbed() const { return busy_absorbed_; }

 private:
  /// Writes one request frame and reads exactly one response frame,
  /// retrying BUSY per retry_policy_. Folds exhausted-BUSY and ERROR
  /// responses into Result errors; on any transport error the connection
  /// is closed (the stream may be unsynchronized). A reply matching
  /// `alt_reply` (when set) is returned like the expected one.
  [[nodiscard]] Result<Frame> RoundTrip(Opcode opcode,
                                        const std::vector<std::uint8_t>& payload,
                                        Opcode expected_reply,
                                        std::optional<Opcode> alt_reply =
                                            std::nullopt);

  int fd_ = -1;
  int timeout_ms_ = 5'000;
  RetryPolicy retry_policy_;
  std::uint64_t busy_absorbed_ = 0;
  std::uint64_t backoff_rng_ = 0x9E3779B97F4A7C15ull;
};

}  // namespace netclust::server
