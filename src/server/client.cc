#include "server/client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "server/io_util.h"

namespace netclust::server {

bool Client::IsBusy(const std::string& error) {
  return error.rfind(kBusyPrefix, 0) == 0;
}

std::uint64_t Client::BusyBackoffUs(const RetryPolicy& policy, int attempt,
                                    std::uint64_t* rng) {
  // Capped exponential: base << attempt, saturating well before the shift
  // could overflow.
  std::uint64_t backoff = policy.base_backoff_us;
  for (int i = 0; i < attempt && backoff < policy.max_backoff_us; ++i) {
    backoff *= 2;
  }
  backoff = std::min(backoff, policy.max_backoff_us);
  if (backoff <= 1) return backoff;
  // xorshift64 jitter into [backoff/2, backoff]: retriers that saw the
  // same BUSY burst spread out instead of re-colliding in lockstep.
  std::uint64_t x = *rng == 0 ? 0x9E3779B97F4A7C15ull : *rng;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  *rng = x;
  const std::uint64_t half = backoff / 2;
  return half + x % (backoff - half + 1);
}

Result<Client> Client::Connect(const std::string& host, std::uint16_t port,
                               int timeout_ms) {
  auto fd = ConnectTcp(host, port, timeout_ms);
  if (!fd.ok()) return Fail(fd.error());
  Client client;
  client.fd_ = fd.value();
  client.timeout_ms_ = timeout_ms;
  return client;
}

Client::~Client() { Close(); }

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      timeout_ms_(other.timeout_ms_),
      retry_policy_(other.retry_policy_),
      busy_absorbed_(other.busy_absorbed_),
      backoff_rng_(other.backoff_rng_) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    timeout_ms_ = other.timeout_ms_;
    retry_policy_ = other.retry_policy_;
    busy_absorbed_ = other.busy_absorbed_;
    backoff_rng_ = other.backoff_rng_;
    other.fd_ = -1;
  }
  return *this;
}

void Client::Close() {
  CloseFd(fd_);
  fd_ = -1;
}

Result<Frame> Client::RoundTrip(Opcode opcode,
                                const std::vector<std::uint8_t>& payload,
                                Opcode expected_reply,
                                std::optional<Opcode> alt_reply) {
  // When the server answers BUSY and then drops the connection (the
  // connection-limit rejection), the retry hits a dead socket; the caller
  // should still see the retryable kBusyPrefix error, not the secondary
  // transport failure.
  bool saw_busy = false;
  const auto transport_fail = [&](const std::string& what) {
    Close();
    if (saw_busy) {
      return Fail(std::string(kBusyPrefix) +
                  ": server closed the connection after BUSY");
    }
    return Fail(what);
  };
  for (int attempt = 0;; ++attempt) {
    if (fd_ < 0) return transport_fail("client is not connected");
    const std::vector<std::uint8_t> wire = EncodeFrame(opcode, payload);
    auto written = WriteFull(fd_, wire.data(), wire.size(), timeout_ms_);
    if (!written.ok()) {
      return transport_fail("send failed: " + written.error());
    }
    if (written.value() != IoStatus::kOk) {
      return transport_fail(written.value() == IoStatus::kClosed
                                ? "connection closed by server"
                                : "send timed out");
    }

    std::uint8_t header_bytes[kHeaderSize];
    auto got = ReadFull(fd_, header_bytes, kHeaderSize, timeout_ms_);
    if (!got.ok() || got.value() != IoStatus::kOk) {
      if (!got.ok()) return transport_fail("receive failed: " + got.error());
      return transport_fail(got.value() == IoStatus::kClosed
                                ? "connection closed by server"
                                : "receive timed out");
    }
    auto header = DecodeFrameHeader(header_bytes, kHeaderSize);
    if (!header.ok()) {
      Close();
      return Fail("bad response header: " + header.error());
    }
    Frame frame;
    frame.header = header.value();
    frame.payload.resize(frame.header.payload_size);
    if (frame.header.payload_size > 0) {
      auto body = ReadFull(fd_, frame.payload.data(), frame.payload.size(),
                           timeout_ms_);
      if (!body.ok() || body.value() != IoStatus::kOk) {
        Close();
        return Fail("truncated response payload");
      }
    }

    if (frame.header.opcode == Opcode::kBusy) {
      // Backpressure, not a transport failure: the connection stays
      // usable. Absorb it with a jittered backoff until the retry budget
      // runs out, then surface the kBusyPrefix error.
      saw_busy = true;
      if (attempt < retry_policy_.busy_retries) {
        ++busy_absorbed_;
        const std::uint64_t backoff_us =
            BusyBackoffUs(retry_policy_, attempt, &backoff_rng_);
        if (backoff_us > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
        }
        continue;
      }
      return Fail(std::string(kBusyPrefix) + ": server overloaded");
    }
    if (frame.header.opcode == Opcode::kError) {
      auto reply = DecodeError(frame.payload.data(), frame.payload.size());
      if (!reply.ok()) {
        Close();
        return Fail("undecodable ERROR response");
      }
      return Fail("server error: " + reply.value().message);
    }
    if (frame.header.opcode != expected_reply &&
        !(alt_reply.has_value() && frame.header.opcode == *alt_reply)) {
      Close();
      return Fail(std::string("unexpected response opcode: ") +
                  OpcodeName(frame.header.opcode));
    }
    return frame;
  }
}

Result<std::vector<std::uint8_t>> Client::Ping(
    const std::vector<std::uint8_t>& echo) {
  if (echo.size() > kMaxPingEcho) return Fail("PING echo too large");
  auto frame = RoundTrip(Opcode::kPing, echo, Opcode::kPong);
  if (!frame.ok()) return Fail(frame.error());
  return std::move(frame).value().payload;
}

Result<LookupRecord> Client::Lookup(net::IpAddress address) {
  auto records = BatchLookup({address});
  if (!records.ok()) return Fail(records.error());
  return records.value().front();
}

Result<std::vector<LookupRecord>> Client::BatchLookup(
    const std::vector<net::IpAddress>& addresses) {
  // Oversized batches are split across frames transparently; each chunk
  // is one request/response round trip on this connection, so records
  // still come back in request order.
  std::vector<LookupRecord> all;
  all.reserve(addresses.size());
  std::size_t offset = 0;
  do {
    const std::size_t chunk =
        std::min<std::size_t>(kMaxBatch, addresses.size() - offset);
    const std::vector<net::IpAddress> slice(
        addresses.begin() + static_cast<std::ptrdiff_t>(offset),
        addresses.begin() + static_cast<std::ptrdiff_t>(offset + chunk));
    auto frame = RoundTrip(Opcode::kBatchLookup, EncodeBatchLookup({slice}),
                           Opcode::kBatchResult);
    if (!frame.ok()) return Fail(frame.error());
    auto records = DecodeBatchResult(frame.value().payload.data(),
                                     frame.value().payload.size());
    if (!records.ok()) return Fail(records.error());
    if (records.value().size() != slice.size()) {
      return Fail("batch result count mismatch");
    }
    all.insert(all.end(), records.value().begin(), records.value().end());
    offset += chunk;
  } while (offset < addresses.size());
  return all;
}

Result<IngestAck> Client::IngestUpdate(std::uint32_t source_id,
                                       const bgp::UpdateMessage& update) {
  auto frame = RoundTrip(Opcode::kIngestUpdate,
                         EncodeIngest(IngestRequest{source_id, update}),
                         Opcode::kIngestAck);
  if (!frame.ok()) return Fail(frame.error());
  return DecodeIngestAck(frame.value().payload.data(),
                         frame.value().payload.size());
}

Result<std::string> Client::Stats() {
  auto frame = RoundTrip(Opcode::kStats, {}, Opcode::kStatsText);
  if (!frame.ok()) return Fail(frame.error());
  return std::string(frame.value().payload.begin(),
                     frame.value().payload.end());
}

Result<ClusterLookupReply> Client::ClusterLookup(
    std::uint64_t epoch, const std::vector<net::IpAddress>& addresses) {
  if (addresses.size() > kMaxBatch) return Fail("cluster batch too large");
  auto frame = RoundTrip(Opcode::kClusterLookup,
                         EncodeClusterLookup({epoch, addresses}),
                         Opcode::kBatchResult, Opcode::kRedirect);
  if (!frame.ok()) return Fail(frame.error());
  ClusterLookupReply reply;
  if (frame.value().header.opcode == Opcode::kRedirect) {
    auto redirect = DecodeRedirect(frame.value().payload.data(),
                                   frame.value().payload.size());
    if (!redirect.ok()) return Fail(redirect.error());
    reply.redirect = redirect.value();
    return reply;
  }
  auto records = DecodeBatchResult(frame.value().payload.data(),
                                   frame.value().payload.size());
  if (!records.ok()) return Fail(records.error());
  if (records.value().size() != addresses.size()) {
    return Fail("cluster result count mismatch");
  }
  reply.records = std::move(records).value();
  return reply;
}

Result<RankRoundTrip> Client::Rank(std::uint64_t epoch,
                                   net::IpAddress address) {
  auto frame = RoundTrip(Opcode::kRank, EncodeRank(RankRequest{epoch, address}),
                         Opcode::kRankReply, Opcode::kRedirect);
  if (!frame.ok()) return Fail(frame.error());
  RankRoundTrip trip;
  if (frame.value().header.opcode == Opcode::kRedirect) {
    auto redirect = DecodeRedirect(frame.value().payload.data(),
                                   frame.value().payload.size());
    if (!redirect.ok()) return Fail(redirect.error());
    trip.redirect = redirect.value();
    return trip;
  }
  auto reply = DecodeRankReply(frame.value().payload.data(),
                               frame.value().payload.size());
  if (!reply.ok()) return Fail(reply.error());
  trip.reply = std::move(reply).value();
  return trip;
}

Result<Topology> Client::FetchTopology() {
  auto frame = RoundTrip(Opcode::kTopology, {}, Opcode::kTopologyReply);
  if (!frame.ok()) return Fail(frame.error());
  return DecodeTopology(frame.value().payload.data(),
                        frame.value().payload.size());
}

Result<std::uint64_t> Client::PushTopology(const Topology& topo) {
  auto frame = RoundTrip(Opcode::kSetTopology, EncodeTopology(topo),
                         Opcode::kSetTopologyAck);
  if (!frame.ok()) return Fail(frame.error());
  return DecodeTopologyAck(frame.value().payload.data(),
                           frame.value().payload.size());
}

Result<ClusterStatsRecord> Client::ClusterStats() {
  auto frame = RoundTrip(Opcode::kClusterStats, {}, Opcode::kClusterStatsReply);
  if (!frame.ok()) return Fail(frame.error());
  return DecodeClusterStats(frame.value().payload.data(),
                            frame.value().payload.size());
}

}  // namespace netclust::server
