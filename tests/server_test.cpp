// End-to-end tests for netclustd's service layer (src/server/): a real
// Server on an ephemeral loopback port, driven through the blocking
// Client and raw sockets. Covers the acceptance contract of the daemon:
//
//   * wire lookups are bit-identical to direct Engine::Lookup calls;
//   * an INGEST_UPDATE acked mid-test is visible to subsequent lookups;
//   * backpressure surfaces as BUSY (retryable), not as dropped bytes —
//     and it is per-reactor: flooding one reactor leaves the others
//     answering;
//   * a reply that overruns the socket buffer parks behind EPOLLOUT and
//     is delivered byte-exactly, without stalling the reactor;
//   * accepts spread across the per-reactor SO_REUSEPORT listeners;
//   * malformed frames draw an ERROR and close only that connection;
//   * Stop() drains gracefully with clients still connected, including
//     mid-pipeline (whole frames then EOF, never a torn frame).
//
// The whole file is run under TSan in CI (reactor threads and the ingest
// thread all cross the engine's RCU boundary here).
#include "server/server.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bgp/mrt.h"
#include "bgp/update.h"
#include "engine/engine.h"
#include "loadgen.h"
#include "net/ip_address.h"
#include "net/prefix.h"
#include "server/client.h"
#include "server/io_util.h"
#include "server/proto.h"

namespace netclust::server {
namespace {

using net::IpAddress;
using net::Prefix;

Prefix P(const char* text) { return Prefix::Parse(text).value(); }

/// Engine with two registered sources (0 = seed, 1 = live ingest) and a
/// small seeded table, started and ready to serve.
class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_.emplace();
    seed_source_ = engine_->AddSource(
        {"SEED", "1/1/2000", bgp::SourceKind::kBgpTable, ""});
    live_source_ = engine_->AddSource(
        {"LIVE", "1/1/2000", bgp::SourceKind::kBgpTable, ""});
    engine_->Announce(P("10.0.0.0/8"), seed_source_, 65000);
    engine_->Announce(P("151.198.0.0/16"), seed_source_, 7018);
    engine_->Announce(P("151.198.192.0/18"), seed_source_, 1742);
    engine_->Start();
  }

  void TearDown() override {
    if (server_) server_->Stop();
    engine_->Stop();
  }

  std::uint16_t Serve(ServerConfig config = {}) {
    config.port = 0;
    config.source_count = 2;
    server_.emplace(&*engine_, config);
    const Result<std::uint16_t> port = server_->Serve();
    EXPECT_TRUE(port.ok()) << (port.ok() ? "" : port.error());
    return port.value_or(0);
  }

  Client ConnectOrDie(std::uint16_t port) {
    Result<Client> client = Client::Connect("127.0.0.1", port, 2'000);
    EXPECT_TRUE(client.ok()) << (client.ok() ? "" : client.error());
    return std::move(client).value();
  }

  std::optional<engine::Engine> engine_;
  std::optional<Server> server_;
  int seed_source_ = -1;
  int live_source_ = -1;
};

TEST_F(ServerTest, WireLookupsAreBitIdenticalToDirectEngineLookups) {
  const std::uint16_t port = Serve();
  Client client = ConnectOrDie(port);

  const std::vector<IpAddress> probes{
      IpAddress(10, 1, 2, 3),        // /8 hit
      IpAddress(151, 198, 10, 1),    // /16 hit
      IpAddress(151, 198, 200, 40),  // longest-match /18 hit
      IpAddress(192, 0, 2, 55),      // miss
      IpAddress(0, 0, 0, 0),         // miss (edge)
      IpAddress(255, 255, 255, 255),
  };
  for (const IpAddress probe : probes) {
    const Result<LookupRecord> wire = client.Lookup(probe);
    ASSERT_TRUE(wire.ok()) << wire.error();
    EXPECT_EQ(wire.value(), LookupRecord::FromMatch(engine_->Lookup(probe)))
        << "lookup diverged for " << probe.bits();
  }

  // One BATCH_LOOKUP must answer exactly like N single lookups, in order.
  const Result<std::vector<LookupRecord>> batch = client.BatchLookup(probes);
  ASSERT_TRUE(batch.ok()) << batch.error();
  ASSERT_EQ(batch.value().size(), probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(batch.value()[i],
              LookupRecord::FromMatch(engine_->Lookup(probes[i])));
  }

  const Result<std::vector<std::uint8_t>> pong =
      client.Ping({0xDE, 0xAD, 0xBE, 0xEF});
  ASSERT_TRUE(pong.ok()) << pong.error();
  EXPECT_EQ(pong.value(), (std::vector<std::uint8_t>{0xDE, 0xAD, 0xBE, 0xEF}));
}

// The live feed streams: a record is published as soon as it arrives, not
// when the file ends. A FIFO whose writer stays open stands in for a
// collector's tail that never reaches end of file.
TEST_F(ServerTest, LiveFeedPublishesBeforeEndOfFile) {
  const std::string fifo = ::testing::TempDir() + "netclust_live_feed.fifo";
  ::unlink(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);
  // O_RDWR opens a FIFO without waiting for a reader (Linux), and keeps a
  // writer attached while the feeder opens its end.
  const int writer = ::open(fifo.c_str(), O_RDWR | O_CLOEXEC);
  ASSERT_GE(writer, 0) << std::strerror(errno);

  ServerConfig config;
  config.live_bgp4mp_path = fifo;
  config.live_source_id = live_source_;
  config.live_batch_size = 1;
  Client client = ConnectOrDie(Serve(config));

  bgp::UpdateMessage announce;
  announce.announced = {P("192.0.2.0/24")};
  announce.as_path = {64500};
  const std::vector<std::uint8_t> record = bgp::WriteBgp4mpUpdate(
      announce, 100, 64500, IpAddress(10, 0, 0, 2), false);
  EXPECT_EQ(RetryWrite(writer, record.data(), record.size()),
            static_cast<ssize_t>(record.size()));

  const IpAddress probe(192, 0, 2, 1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  bool answered = false;
  while (!answered && std::chrono::steady_clock::now() < deadline) {
    const Result<LookupRecord> wire = client.Lookup(probe);
    ASSERT_TRUE(wire.ok()) << wire.error();
    answered = wire.value().found && wire.value().prefix == P("192.0.2.0/24");
    if (!answered) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(answered) << "the live feed held the record until end of file";

  CloseFd(writer);  // end of file: lets a slurping feeder finish, too
  server_->Stop();
  ::unlink(fifo.c_str());
}

TEST_F(ServerTest, AckedIngestIsVisibleToSubsequentLookups) {
  const std::uint16_t port = Serve();
  Client client = ConnectOrDie(port);
  const IpAddress probe(192, 0, 2, 55);

  const Result<LookupRecord> before = client.Lookup(probe);
  ASSERT_TRUE(before.ok());
  EXPECT_FALSE(before.value().found);

  bgp::UpdateMessage update;
  update.announced = {P("192.0.2.0/24")};
  update.as_path = {4969};
  const Result<IngestAck> ack = client.IngestUpdate(
      static_cast<std::uint32_t>(live_source_), update);
  ASSERT_TRUE(ack.ok()) << ack.error();
  EXPECT_GT(ack.value().table_version, 0u);

  // The ack means the snapshot is published: this lookup (same connection
  // or any other) must see the announced prefix.
  const Result<LookupRecord> after = client.Lookup(probe);
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(after.value().found);
  EXPECT_EQ(after.value().prefix, P("192.0.2.0/24"));
  EXPECT_EQ(after.value().origin_as, 4969u);

  Client other = ConnectOrDie(port);
  const Result<LookupRecord> cross = other.Lookup(probe);
  ASSERT_TRUE(cross.ok());
  EXPECT_EQ(cross.value(), after.value());

  // Withdraw it again and the miss comes back.
  bgp::UpdateMessage withdraw;
  withdraw.withdrawn = {P("192.0.2.0/24")};
  const Result<IngestAck> ack2 = client.IngestUpdate(
      static_cast<std::uint32_t>(live_source_), withdraw);
  ASSERT_TRUE(ack2.ok()) << ack2.error();
  EXPECT_GT(ack2.value().table_version, ack.value().table_version);
  const Result<LookupRecord> gone = client.Lookup(probe);
  ASSERT_TRUE(gone.ok());
  EXPECT_FALSE(gone.value().found);
}

TEST_F(ServerTest, StatsExposeServerAndEngineCounters) {
  const std::uint16_t port = Serve();
  Client client = ConnectOrDie(port);
  ASSERT_TRUE(client.Lookup(IpAddress(10, 0, 0, 1)).ok());

  const Result<std::string> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.error();
  EXPECT_NE(stats.value().find("netclust_server_lookups_served_total"),
            std::string::npos);
  EXPECT_NE(stats.value().find("netclust_server_connections_active"),
            std::string::npos);
  EXPECT_NE(stats.value().find("netclust_server_lookup_service_p99_ns"),
            std::string::npos);
  EXPECT_NE(stats.value().find("netclust_engine_"), std::string::npos)
      << "engine exposition missing from STATS";
  EXPECT_GE(server_->metrics().lookups_served.value(), 1u);
}

TEST_F(ServerTest, UnknownIngestSourceIsRejectedWithoutClosing) {
  const std::uint16_t port = Serve();
  Client client = ConnectOrDie(port);
  bgp::UpdateMessage update;
  update.announced = {P("198.51.100.0/24")};
  update.as_path = {65001};
  const Result<IngestAck> ack = client.IngestUpdate(99, update);
  ASSERT_FALSE(ack.ok());
  EXPECT_NE(ack.error().find("unknown ingest source id"), std::string::npos)
      << ack.error();
  // The connection survives a payload-level error.
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerTest, MalformedFramesDrawAnErrorAndCloseTheConnection) {
  const std::uint16_t port = Serve();
  const Result<int> fd = ConnectTcp("127.0.0.1", port, 2'000);
  ASSERT_TRUE(fd.ok()) << fd.error();

  const std::vector<std::uint8_t> junk{0xFF, 0xFF, 0xFF, 0xFF,
                                       0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_TRUE(WriteFull(fd.value(), junk.data(), junk.size(), 2'000).ok());

  std::vector<std::uint8_t> header(kHeaderSize);
  const Result<IoStatus> got =
      ReadFull(fd.value(), header.data(), header.size(), 2'000);
  ASSERT_TRUE(got.ok()) << got.error();
  ASSERT_EQ(got.value(), IoStatus::kOk);
  const Result<FrameHeader> reply =
      DecodeFrameHeader(header.data(), header.size());
  ASSERT_TRUE(reply.ok()) << reply.error();
  EXPECT_EQ(reply.value().opcode, Opcode::kError);
  std::vector<std::uint8_t> payload(reply.value().payload_size);
  ASSERT_TRUE(
      ReadFull(fd.value(), payload.data(), payload.size(), 2'000).ok());
  const Result<ErrorReply> error =
      DecodeError(payload.data(), payload.size());
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error.value().code, ErrorCode::kMalformedFrame);

  // After the error the server closes: the next read sees EOF.
  std::uint8_t byte = 0;
  const Result<IoStatus> eof = ReadFull(fd.value(), &byte, 1, 2'000);
  ASSERT_TRUE(eof.ok()) << eof.error();
  EXPECT_EQ(eof.value(), IoStatus::kClosed);
  CloseFd(fd.value());

  // Other connections are unaffected.
  Client client = ConnectOrDie(port);
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerTest, ResponseOpcodeAsRequestIsUnsupportedNotFatal) {
  const std::uint16_t port = Serve();
  Client client = ConnectOrDie(port);
  // Reach into the wire directly: a PONG is a known opcode, so it frames
  // fine, but it is not a request.
  const Result<int> fd = ConnectTcp("127.0.0.1", port, 2'000);
  ASSERT_TRUE(fd.ok());
  const auto frame = EncodeFrame(Opcode::kPong, {});
  ASSERT_TRUE(WriteFull(fd.value(), frame.data(), frame.size(), 2'000).ok());
  std::vector<std::uint8_t> header(kHeaderSize);
  ASSERT_TRUE(ReadFull(fd.value(), header.data(), header.size(), 2'000).ok());
  const Result<FrameHeader> reply =
      DecodeFrameHeader(header.data(), header.size());
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().opcode, Opcode::kError);
  std::vector<std::uint8_t> payload(reply.value().payload_size);
  ASSERT_TRUE(
      ReadFull(fd.value(), payload.data(), payload.size(), 2'000).ok());
  const Result<ErrorReply> error =
      DecodeError(payload.data(), payload.size());
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error.value().code, ErrorCode::kUnsupportedOpcode);
  // Connection stays open: a real request on it still works.
  const auto ping = EncodeFrame(Opcode::kPing, {});
  ASSERT_TRUE(WriteFull(fd.value(), ping.data(), ping.size(), 2'000).ok());
  ASSERT_TRUE(ReadFull(fd.value(), header.data(), header.size(), 2'000).ok());
  const Result<FrameHeader> pong =
      DecodeFrameHeader(header.data(), header.size());
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong.value().opcode, Opcode::kPong);
  CloseFd(fd.value());
}

TEST_F(ServerTest, ConnectionLimitAnswersBusy) {
  ServerConfig config;
  config.max_connections = 2;
  const std::uint16_t port = Serve(config);
  Client first = ConnectOrDie(port);
  Client second = ConnectOrDie(port);
  ASSERT_TRUE(first.Ping().ok());
  ASSERT_TRUE(second.Ping().ok());

  // The third connection is accepted at the TCP level, told BUSY, and
  // closed — an explicit retry signal, not a silent drop.
  Result<Client> third = Client::Connect("127.0.0.1", port, 2'000);
  ASSERT_TRUE(third.ok()) << third.error();
  const Result<std::vector<std::uint8_t>> ping = third.value().Ping();
  ASSERT_FALSE(ping.ok());
  EXPECT_TRUE(Client::IsBusy(ping.error())) << ping.error();
  EXPECT_GE(server_->metrics().connections_rejected.value(), 1u);

  // Freeing a slot lets the next connection in. The slot is released when
  // a reader observes the close; poll briefly rather than assuming
  // instant accounting.
  first.Close();
  bool ok = false;
  for (int attempt = 0; attempt < 50 && !ok; ++attempt) {
    Result<Client> retry = Client::Connect("127.0.0.1", port, 2'000);
    ASSERT_TRUE(retry.ok());
    ok = retry.value().Ping().ok();
  }
  EXPECT_TRUE(ok) << "slot never freed after a client disconnect";
}

TEST_F(ServerTest, StopDrainsGracefullyWithClientsConnected) {
  const std::uint16_t port = Serve();
  Client client = ConnectOrDie(port);
  ASSERT_TRUE(client.Ping().ok());

  server_->Stop();
  // After the drain the port no longer accepts.
  EXPECT_FALSE(Client::Connect("127.0.0.1", port, 300).ok());
  // And the old connection is gone (EOF or reset, surfaced as an error).
  EXPECT_FALSE(client.Ping().ok());
  server_.reset();
}

TEST(BusyBackoff, CapsExponentAndJittersWithinBounds) {
  RetryPolicy policy;
  policy.base_backoff_us = 200;
  policy.max_backoff_us = 50'000;
  std::uint64_t rng = 1;
  for (int attempt = 0; attempt < 20; ++attempt) {
    // The ceiling doubles per attempt and saturates at max_backoff_us;
    // jitter keeps every draw inside [ceiling/2, ceiling].
    std::uint64_t ceiling = policy.base_backoff_us;
    for (int i = 0; i < attempt && ceiling < policy.max_backoff_us; ++i) {
      ceiling *= 2;
    }
    ceiling = std::min(ceiling, policy.max_backoff_us);
    for (int draw = 0; draw < 32; ++draw) {
      const std::uint64_t us = Client::BusyBackoffUs(policy, attempt, &rng);
      EXPECT_GE(us, ceiling / 2) << "attempt " << attempt;
      EXPECT_LE(us, ceiling) << "attempt " << attempt;
    }
  }
  // Same seed, same schedule: the jitter is deterministic per stream.
  std::uint64_t a = 42;
  std::uint64_t b = 42;
  for (int attempt = 0; attempt < 8; ++attempt) {
    EXPECT_EQ(Client::BusyBackoffUs(policy, attempt, &a),
              Client::BusyBackoffUs(policy, attempt, &b));
  }
  // Degenerate policy: zero backoff means "retry immediately", no jitter.
  RetryPolicy tiny;
  tiny.base_backoff_us = 0;
  tiny.max_backoff_us = 0;
  std::uint64_t r = 7;
  EXPECT_EQ(Client::BusyBackoffUs(tiny, 3, &r), 0u);
}

TEST(ClientBusyRetry, AbsorbsBusyRepliesAndSucceedsOnTheSameConnection) {
  // A scripted server that answers BUSY twice and then a real result —
  // backpressure the client must ride out without surfacing an error.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const std::uint16_t port = ntohs(addr.sin_port);

  std::thread backpressured([listener] {
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) return;
    for (int frame = 0;; ++frame) {
      std::uint8_t header[kHeaderSize];
      const auto got = ReadFull(conn, header, kHeaderSize, 2'000);
      if (!got.ok() || got.value() != IoStatus::kOk) break;
      const auto decoded = DecodeFrameHeader(header, kHeaderSize);
      if (!decoded.ok()) break;
      std::vector<std::uint8_t> payload(decoded.value().payload_size);
      if (!payload.empty() &&
          !ReadFull(conn, payload.data(), payload.size(), 2'000).ok()) {
        break;
      }
      const std::vector<std::uint8_t> reply =
          frame < 2 ? EncodeFrame(Opcode::kBusy, {})
                    : EncodeFrame(Opcode::kBatchResult,
                                  EncodeBatchResult({LookupRecord{}}));
      if (!WriteFull(conn, reply.data(), reply.size(), 2'000).ok()) break;
      if (frame >= 2) break;
    }
    CloseFd(conn);
  });

  Result<Client> client = Client::Connect("127.0.0.1", port, 2'000);
  ASSERT_TRUE(client.ok()) << client.error();
  RetryPolicy policy;
  policy.busy_retries = 8;
  policy.base_backoff_us = 1;
  policy.max_backoff_us = 8;
  client.value().set_retry_policy(policy);
  const Result<LookupRecord> got =
      client.value().Lookup(IpAddress(10, 0, 0, 1));
  ASSERT_TRUE(got.ok()) << got.error();
  EXPECT_FALSE(got.value().found);
  EXPECT_EQ(client.value().busy_absorbed(), 2u);
  backpressured.join();
  CloseFd(listener);
}

TEST_F(ServerTest, BusyBudgetExhaustionSurfacesTheRetryableError) {
  ServerConfig config;
  config.max_inflight_frames = 0;  // every data frame draws BUSY
  const std::uint16_t port = Serve(config);
  Client client = ConnectOrDie(port);
  RetryPolicy policy;
  policy.busy_retries = 3;
  policy.base_backoff_us = 1;
  policy.max_backoff_us = 4;
  client.set_retry_policy(policy);

  const Result<LookupRecord> got = client.Lookup(IpAddress(10, 0, 0, 1));
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(Client::IsBusy(got.error())) << got.error();
  EXPECT_EQ(client.busy_absorbed(), 3u);
  // Budget spent = initial try + 3 retries, every one answered BUSY.
  EXPECT_GE(server_->metrics().busy_replies.value(), 4u);
}

TEST_F(ServerTest, BatchLookupSplitsTransparentlyAboveKMaxBatch) {
  const std::uint16_t port = Serve();
  Client client = ConnectOrDie(port);

  std::vector<IpAddress> addresses;
  addresses.reserve(kMaxBatch + 1);
  for (std::uint32_t i = 0; i < kMaxBatch + 1; ++i) {
    addresses.emplace_back((10u << 24) | i);  // all inside 10.0.0.0/8
  }
  addresses.back() = IpAddress(151, 198, 200, 40);  // tail chunk: /18 hit

  const Result<std::vector<LookupRecord>> got =
      client.BatchLookup(addresses);
  ASSERT_TRUE(got.ok()) << got.error();
  ASSERT_EQ(got.value().size(), static_cast<std::size_t>(kMaxBatch) + 1);
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    ASSERT_EQ(got.value()[i],
              LookupRecord::FromMatch(engine_->Lookup(addresses[i])))
        << "split batch diverged at position " << i;
  }
  EXPECT_TRUE(got.value().back().found);
  EXPECT_EQ(got.value().back().prefix, P("151.198.192.0/18"));
}

TEST_F(ServerTest, LoadGeneratorSmokeOverConcurrentConnections) {
  ServerConfig config;
  config.reactors = 4;
  const std::uint16_t port = Serve(config);

  loadgen::Options options;
  options.port = port;
  options.connections = 3;
  options.total_frames = 600;
  options.batch_size = 4;
  options.addresses =
      loadgen::SyntheticAddresses(512, IpAddress(10, 0, 0, 0), 8);
  const Result<loadgen::Report> report = loadgen::Run(options);
  ASSERT_TRUE(report.ok()) << report.error();
  EXPECT_EQ(report.value().errors, 0u) << report.value().first_error;
  EXPECT_EQ(report.value().frames_sent, 600u);
  EXPECT_EQ(report.value().lookups_done, 2'400u);
  // Every synthetic address sits inside the seeded 10.0.0.0/8.
  EXPECT_EQ(report.value().found, report.value().lookups_done);
  EXPECT_GT(report.value().qps, 0.0);
  const std::string json = report.value().ToJson();
  EXPECT_NE(json.find("\"qps\""), std::string::npos);

  // Same traffic pipelined: 4 frames in flight per connection, same
  // totals, same full coverage.
  options.pipeline = 4;
  const Result<loadgen::Report> pipelined = loadgen::Run(options);
  ASSERT_TRUE(pipelined.ok()) << pipelined.error();
  EXPECT_EQ(pipelined.value().errors, 0u) << pipelined.value().first_error;
  EXPECT_EQ(pipelined.value().frames_sent, 600u);
  EXPECT_EQ(pipelined.value().lookups_done, 2'400u);
  EXPECT_EQ(pipelined.value().found, pipelined.value().lookups_done);
  EXPECT_NE(pipelined.value().ToJson().find("\"pipeline\": 4"),
            std::string::npos);
}

// --- the reactor data plane's own acceptance contract ---

/// Raw-socket helper: one request frame out, one reply frame back.
Result<Frame> RoundTripRaw(int fd, const std::vector<std::uint8_t>& wire,
                           int timeout_ms = 2'000) {
  auto sent = WriteFull(fd, wire.data(), wire.size(), timeout_ms);
  if (!sent.ok()) return Fail(sent.error());
  if (sent.value() != IoStatus::kOk) return Fail("send did not complete");
  std::uint8_t header_bytes[kHeaderSize];
  auto got = ReadFull(fd, header_bytes, kHeaderSize, timeout_ms);
  if (!got.ok()) return Fail(got.error());
  if (got.value() != IoStatus::kOk) return Fail("no reply header");
  auto header = DecodeFrameHeader(header_bytes, kHeaderSize);
  if (!header.ok()) return Fail(header.error());
  Frame frame;
  frame.header = header.value();
  frame.payload.resize(header.value().payload_size);
  if (!frame.payload.empty()) {
    auto body = ReadFull(fd, frame.payload.data(), frame.payload.size(),
                         timeout_ms);
    if (!body.ok()) return Fail(body.error());
    if (body.value() != IoStatus::kOk) return Fail("torn reply payload");
  }
  return frame;
}

/// Which reactor owns the connection on `fd`? The kernel's SO_REUSEPORT
/// hash decides, so tests discover it: ping once and see whose
/// frames_decoded counter moved.
int ReactorOf(Server* server, int fd) {
  std::vector<std::uint64_t> before;
  for (std::size_t i = 0; i < server->reactor_count(); ++i) {
    before.push_back(server->reactor_metrics(i).frames_decoded.value());
  }
  auto pong = RoundTripRaw(fd, EncodeFrame(Opcode::kPing, {}));
  if (!pong.ok() || pong.value().header.opcode != Opcode::kPong) return -1;
  for (std::size_t i = 0; i < server->reactor_count(); ++i) {
    if (server->reactor_metrics(i).frames_decoded.value() > before[i]) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

TEST_F(ServerTest, AcceptsSpreadAcrossReactorListeners) {
  // The single-listener bug this guards against: one EPOLLONESHOT
  // listener serialized every accept through whichever thread won the
  // rearm race. With one SO_REUSEPORT listener per reactor, the kernel's
  // 4-tuple hash spreads connections — with 32 connections on 4
  // listeners, all landing on one is a ~4^-31 event.
  ServerConfig config;
  config.reactors = 4;
  const std::uint16_t port = Serve(config);
  ASSERT_EQ(server_->reactor_count(), 4u);

  std::vector<Client> clients;
  for (int i = 0; i < 32; ++i) {
    clients.push_back(ConnectOrDie(port));
    ASSERT_TRUE(clients.back().Ping().ok());
  }
  int listeners_hit = 0;
  std::uint64_t accepted_sum = 0;
  for (std::size_t i = 0; i < server_->reactor_count(); ++i) {
    const std::uint64_t accepted =
        server_->reactor_metrics(i).connections_accepted.value();
    accepted_sum += accepted;
    if (accepted > 0) ++listeners_hit;
  }
  EXPECT_EQ(accepted_sum, 32u);
  EXPECT_GE(listeners_hit, 2) << "accepts did not distribute across reactors";
}

TEST_F(ServerTest, SlowReaderGetsByteExactReplyWithoutStallingTheReactor) {
  // Regression: the old reply path wrote with a blocking WriteFull, so a
  // peer that stopped reading parked the reader thread for the whole
  // write deadline. Now the overrun parks behind EPOLLOUT instead. One
  // reactor, a tiny send buffer, and a 4096-address batch (a ~64KiB
  // reply) guarantee the overrun.
  ServerConfig config;
  config.reactors = 1;
  config.accepted_sndbuf_bytes = 4'096;
  const std::uint16_t port = Serve(config);

  std::vector<IpAddress> addresses;
  addresses.reserve(kMaxBatch);
  for (std::uint32_t i = 0; i < kMaxBatch; ++i) {
    addresses.emplace_back((10u << 24) | (i * 977u));
  }
  std::vector<LookupRecord> expected_records;
  for (const IpAddress address : addresses) {
    expected_records.push_back(LookupRecord::FromMatch(
        engine_->Lookup(address)));
  }
  const std::vector<std::uint8_t> expected =
      EncodeFrame(Opcode::kBatchResult, EncodeBatchResult(expected_records));

  const Result<int> fd = ConnectTcp("127.0.0.1", port, 2'000);
  ASSERT_TRUE(fd.ok()) << fd.error();
  SetRecvBufferBytes(fd.value(), 4'096);
  BatchLookupRequest request;
  request.addresses = addresses;
  const auto wire =
      EncodeFrame(Opcode::kBatchLookup, EncodeBatchLookup(request));
  ASSERT_TRUE(WriteFull(fd.value(), wire.data(), wire.size(), 2'000).ok());

  // While the big reply sits queued on the slow connection, the reactor
  // must keep answering others. (Before the fix this ping blocked until
  // the slow reader drained or the write deadline fired.)
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Client prober = ConnectOrDie(port);
  const auto ping_start = std::chrono::steady_clock::now();
  ASSERT_TRUE(prober.Ping().ok());
  const auto ping_elapsed = std::chrono::steady_clock::now() - ping_start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                ping_elapsed).count(),
            1'000)
      << "reactor stalled behind a slow reader";

  // Dribble the reply out 512 bytes at a time and require byte-exact
  // delivery of the whole frame.
  std::vector<std::uint8_t> received;
  received.reserve(expected.size());
  std::uint8_t chunk[512];
  while (received.size() < expected.size()) {
    if (PollOne(fd.value(), POLLIN, 2'000) <= 0) break;
    const ssize_t n = RetryRead(fd.value(), chunk,
                                std::min(sizeof(chunk),
                                         expected.size() - received.size()));
    if (n <= 0) break;
    received.insert(received.end(), chunk, chunk + n);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(received.size(), expected.size());
  EXPECT_EQ(received, expected) << "short-write continuation corrupted the "
                                   "reply stream";

  std::uint64_t short_writes = 0;
  for (std::size_t i = 0; i < server_->reactor_count(); ++i) {
    short_writes += server_->reactor_metrics(i).short_writes.value();
  }
  EXPECT_GE(short_writes, 1u) << "the EPOLLOUT path never engaged";
  CloseFd(fd.value());
}

TEST_F(ServerTest, BackpressureIsPerReactorNotGlobal) {
  // Regression: the inflight gauge used to be one global atomic, so a
  // flood on one thread's connections drew BUSY for everyone (and N
  // threads could overshoot the cap N-fold). Now each reactor budgets its
  // own arena: flood one reactor's connection until it answers BUSY and
  // a connection on the other reactor must still get real answers,
  // first try.
  ServerConfig config;
  config.reactors = 2;
  config.max_inflight_frames = 2;
  config.accepted_sndbuf_bytes = 4'096;
  const std::uint16_t port = Serve(config);
  ASSERT_EQ(server_->reactor_count(), 2u);

  // Collect raw connections until both reactors are represented.
  std::vector<int> fds;
  int on_a = -1;
  int on_b = -1;
  for (int i = 0; i < 64 && (on_a < 0 || on_b < 0); ++i) {
    const Result<int> fd = ConnectTcp("127.0.0.1", port, 2'000);
    ASSERT_TRUE(fd.ok()) << fd.error();
    SetRecvBufferBytes(fd.value(), 4'096);
    fds.push_back(fd.value());
    const int reactor = ReactorOf(&*server_, fd.value());
    ASSERT_GE(reactor, 0);
    if (reactor == 0 && on_a < 0) on_a = fd.value();
    if (reactor == 1 && on_b < 0) on_b = fd.value();
  }
  ASSERT_GE(on_a, 0) << "no connection landed on reactor 0";
  ASSERT_GE(on_b, 0) << "no connection landed on reactor 1";

  // Flood reactor 0: big batch replies that cannot fit the tiny socket
  // buffer pile up unflushed, holding the inflight gauge above the cap.
  BatchLookupRequest request;
  for (std::uint32_t i = 0; i < kMaxBatch; ++i) {
    request.addresses.emplace_back((10u << 24) | i);
  }
  const auto flood_wire =
      EncodeFrame(Opcode::kBatchLookup, EncodeBatchLookup(request));
  for (int frame = 0; frame < 8; ++frame) {
    ASSERT_TRUE(
        WriteFull(on_a, flood_wire.data(), flood_wire.size(), 2'000).ok());
  }

  // Wait until reactor 0 has actually answered BUSY at least once.
  bool flooded = false;
  for (int attempt = 0; attempt < 200 && !flooded; ++attempt) {
    flooded = server_->reactor_metrics(0).busy_replies.value() > 0;
    if (!flooded) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(flooded) << "flooding never tripped reactor 0's inflight cap";

  // Reactor 1 must be unaffected: a single-attempt lookup (no BUSY
  // retries) succeeds while its sibling is saturated.
  const auto lookup_wire = EncodeFrame(
      Opcode::kBatchLookup, EncodeBatchLookup({{IpAddress(10, 0, 0, 1)}}));
  const Result<Frame> reply = RoundTripRaw(on_b, lookup_wire);
  ASSERT_TRUE(reply.ok()) << reply.error();
  EXPECT_EQ(reply.value().header.opcode, Opcode::kBatchResult)
      << "reactor 1 answered " << OpcodeName(reply.value().header.opcode)
      << " while reactor 0 was flooded — backpressure leaked across "
         "reactors";
  EXPECT_EQ(server_->reactor_metrics(1).busy_replies.value(), 0u);

  // STATS reports both the per-reactor gauges and their sum.
  const std::string stats = server_->StatsText();
  EXPECT_NE(stats.find("netclust_server_reactor_inflight_frames{reactor=\"0\"}"),
            std::string::npos);
  EXPECT_NE(stats.find("netclust_server_inflight_frames_sum"),
            std::string::npos);

  for (const int fd : fds) CloseFd(fd);
}

TEST_F(ServerTest, StopDrainsMidPipelineWithWholeFramesThenEof) {
  ServerConfig config;
  config.reactors = 2;
  const std::uint16_t port = Serve(config);
  const Result<int> fd = ConnectTcp("127.0.0.1", port, 2'000);
  ASSERT_TRUE(fd.ok()) << fd.error();

  // Pipeline 100 lookups, read back only the first 10 replies, then pull
  // the plug. The drain contract: whatever else arrives is whole frames,
  // then a clean EOF — never a torn frame.
  const auto wire = EncodeFrame(
      Opcode::kBatchLookup, EncodeBatchLookup({{IpAddress(10, 0, 0, 1)}}));
  std::vector<std::uint8_t> burst;
  for (int i = 0; i < 100; ++i) {
    burst.insert(burst.end(), wire.begin(), wire.end());
  }
  ASSERT_TRUE(WriteFull(fd.value(), burst.data(), burst.size(), 2'000).ok());

  FrameDecoder decoder;
  std::size_t frames_seen = 0;
  std::uint8_t chunk[4'096];
  while (frames_seen < 10) {
    ASSERT_GT(PollOne(fd.value(), POLLIN, 2'000), 0);
    const ssize_t n = RetryRead(fd.value(), chunk, sizeof(chunk));
    ASSERT_GT(n, 0);
    decoder.Feed(chunk, static_cast<std::size_t>(n));
    while (true) {
      auto frame = decoder.Next();
      ASSERT_TRUE(frame.ok()) << frame.error();
      if (!frame.value().has_value()) break;
      EXPECT_EQ(frame.value()->header.opcode, Opcode::kBatchResult);
      ++frames_seen;
    }
  }

  server_->Stop();

  // Drain to EOF; every remaining byte must frame cleanly.
  while (true) {
    if (PollOne(fd.value(), POLLIN, 2'000) <= 0) break;
    const ssize_t n = RetryRead(fd.value(), chunk, sizeof(chunk));
    if (n <= 0) break;
    decoder.Feed(chunk, static_cast<std::size_t>(n));
    while (true) {
      auto frame = decoder.Next();
      ASSERT_TRUE(frame.ok()) << frame.error();
      if (!frame.value().has_value()) break;
      EXPECT_EQ(frame.value()->header.opcode, Opcode::kBatchResult);
      ++frames_seen;
    }
  }
  EXPECT_EQ(decoder.buffered(), 0u)
      << "drain left a torn frame on the wire";
  EXPECT_GE(frames_seen, 10u);
  EXPECT_LE(frames_seen, 100u);
  CloseFd(fd.value());
  server_.reset();
}

TEST_F(ServerTest, LookupsAreBitIdenticalAcrossReactorCounts) {
  // The reactor count is a deployment knob, not a semantic one: the same
  // probes must answer identically at 1 and at 4 reactors (and both match
  // the engine directly).
  const std::vector<IpAddress> probes{
      IpAddress(10, 1, 2, 3),
      IpAddress(151, 198, 10, 1),
      IpAddress(151, 198, 200, 40),
      IpAddress(192, 0, 2, 55),
      IpAddress(0, 0, 0, 0),
      IpAddress(255, 255, 255, 255),
  };
  for (const int reactors : {1, 4}) {
    ServerConfig config;
    config.reactors = reactors;
    const std::uint16_t port = Serve(config);
    ASSERT_EQ(server_->reactor_count(), static_cast<std::size_t>(reactors));
    Client client = ConnectOrDie(port);
    const Result<std::vector<LookupRecord>> batch =
        client.BatchLookup(probes);
    ASSERT_TRUE(batch.ok()) << batch.error();
    ASSERT_EQ(batch.value().size(), probes.size());
    for (std::size_t i = 0; i < probes.size(); ++i) {
      EXPECT_EQ(batch.value()[i],
                LookupRecord::FromMatch(engine_->Lookup(probes[i])))
          << "reactors=" << reactors << " diverged at probe " << i;
    }
    server_->Stop();
  }
}

TEST_F(ServerTest, RankAndClusterLookupShareOneEpochRule) {
  // RANK and CLUSTER_LOOKUP are admitted by the same rule: a standalone
  // server needs epoch 0; a cluster node needs its current epoch and
  // ownership of every address. Node 1 below owns the lower half of the
  // /16 blocks; the upper half belongs to a node 2 that is never dialed.
  constexpr std::uint64_t kEpoch = 5;
  const IpAddress owned(10, 1, 2, 3);
  const IpAddress foreign(151, 198, 200, 40);
  struct Case {
    const char* name;
    bool cluster;
    std::uint64_t epoch;
    std::vector<IpAddress> addresses;  // RANK asks for the last one
    std::optional<Opcode> refusal;     // ERROR or REDIRECT; none = answered
    std::uint8_t reason;               // the refusal's first payload byte
  };
  const auto code = [](auto value) { return static_cast<std::uint8_t>(value); };
  const Case cases[] = {
      {"standalone, epoch 0", false, 0,
       {owned, foreign, IpAddress(192, 0, 2, 55)}, std::nullopt, 0},
      {"standalone, epoch 7", false, 7, {owned}, Opcode::kError,
       code(ErrorCode::kMalformedPayload)},
      {"cluster, stale epoch", true, kEpoch - 1, {owned}, Opcode::kRedirect,
       code(RedirectReason::kStaleEpoch)},
      {"cluster, foreign block", true, kEpoch, {owned, foreign},
       Opcode::kRedirect, code(RedirectReason::kNotOwner)},
      {"cluster, owned block", true, kEpoch, {owned, IpAddress(10, 9, 9, 9)},
       std::nullopt, 0},
  };
  for (const bool cluster : {false, true}) {
    ServerConfig config;
    config.cluster_node_id = cluster ? 1 : -1;
    const std::uint16_t port = Serve(config);
    if (cluster) {
      Topology topo;
      topo.epoch = kEpoch;
      topo.nodes = {{1, IpAddress(127, 0, 0, 1), port},
                    {2, IpAddress(127, 0, 0, 1), 1}};
      topo.ranges = {{0, kShardBlockCount / 2, 0},
                     {kShardBlockCount / 2, kShardBlockCount / 2, 1}};
      ASSERT_TRUE(server_->SetTopology(topo).ok());
    }
    const Result<int> fd = ConnectTcp("127.0.0.1", port, 2'000);
    ASSERT_TRUE(fd.ok()) << fd.error();
    for (const Case& c : cases) {
      if (c.cluster != cluster) continue;
      for (const Opcode opcode : {Opcode::kRank, Opcode::kClusterLookup}) {
        SCOPED_TRACE(std::string(OpcodeName(opcode)) + ", " + c.name);
        const Result<Frame> reply = RoundTripRaw(
            fd.value(),
            opcode == Opcode::kRank
                ? EncodeFrame(opcode, EncodeRank({c.epoch, c.addresses.back()}))
                : EncodeFrame(opcode,
                              EncodeClusterLookup({c.epoch, c.addresses})));
        ASSERT_TRUE(reply.ok()) << reply.error();
        const std::vector<std::uint8_t>& payload = reply.value().payload;
        if (c.refusal.has_value()) {
          EXPECT_EQ(reply.value().header.opcode, *c.refusal);
          ASSERT_FALSE(payload.empty());
          EXPECT_EQ(payload[0], c.reason);
          if (*c.refusal == Opcode::kRedirect) {
            const auto redirect = DecodeRedirect(payload.data(), payload.size());
            ASSERT_TRUE(redirect.ok()) << redirect.error();
            EXPECT_EQ(redirect.value().epoch, kEpoch);
          }
        } else if (opcode == Opcode::kRank) {
          ASSERT_EQ(reply.value().header.opcode, Opcode::kRankReply);
          const auto rank = DecodeRankReply(payload.data(), payload.size());
          ASSERT_TRUE(rank.ok()) << rank.error();
          EXPECT_EQ(rank.value().epoch, c.epoch);
        } else {
          // An admitted CLUSTER_LOOKUP is answered byte for byte like a
          // BATCH_LOOKUP of the same addresses.
          const Result<Frame> batch = RoundTripRaw(
              fd.value(), EncodeFrame(Opcode::kBatchLookup,
                                      EncodeBatchLookup({c.addresses})));
          ASSERT_TRUE(batch.ok()) << batch.error();
          EXPECT_EQ(reply.value(), batch.value());
        }
      }
    }
    CloseFd(fd.value());
    server_->Stop();
  }
}

}  // namespace
}  // namespace netclust::server
