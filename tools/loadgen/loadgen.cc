#include "loadgen.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <thread>
#include <utility>

#include <poll.h>

#include "base/sync.h"
#include "bgp/update.h"
#include "cluster/cluster_client.h"
#include "net/prefix.h"
#include "engine/metrics.h"
#include "server/client.h"
#include "server/io_util.h"
#include "server/metrics.h"
#include "server/proto.h"
#include "synth/rng.h"
#include "weblog/log.h"

namespace netclust::loadgen {

namespace {

/// Per-thread slice of the total frame budget.
std::size_t SliceSize(std::size_t total, int threads, int index) {
  const auto n = static_cast<std::size_t>(threads);
  return total / n + (static_cast<std::size_t>(index) < total % n ? 1 : 0);
}

struct SharedState {
  engine::LatencyHistogram latency;
  std::atomic<std::size_t> frames{0};
  std::atomic<std::size_t> lookups{0};
  std::atomic<std::size_t> found{0};
  std::atomic<std::size_t> busy{0};
  std::atomic<std::size_t> redirects{0};
  std::atomic<std::size_t> errors{0};
  base::Mutex error_mu;
  std::string first_error GUARDED_BY(error_mu);

  void RecordError(const std::string& message) {
    // order: relaxed — statistics counter, read once after joins.
    errors.fetch_add(1, std::memory_order_relaxed);
    base::MutexLock lock(&error_mu);
    if (first_error.empty()) first_error = message;
  }
};

/// One connection worker: sends `budget` frames, cycling through the
/// shared address stream starting at its own offset.
void Worker(const Options& options, int index, std::size_t budget,
            SharedState* state) {
  auto client =
      server::Client::Connect(options.host, options.port, options.timeout_ms);
  if (!client.ok()) {
    state->RecordError("connect: " + client.error());
    return;
  }
  server::Client conn = std::move(client).value();

  const std::vector<net::IpAddress>& addresses = options.addresses;
  std::size_t cursor = static_cast<std::size_t>(index) % addresses.size();
  std::vector<net::IpAddress> batch;
  batch.reserve(options.batch_size);

  for (std::size_t f = 0; f < budget; ++f) {
    batch.clear();
    for (std::size_t b = 0; b < options.batch_size; ++b) {
      batch.push_back(addresses[cursor]);
      cursor = (cursor + 1) % addresses.size();
    }

    bool done = false;
    for (int attempt = 0; attempt <= options.busy_retries && !done;
         ++attempt) {
      const std::uint64_t start = engine::NowNs();
      std::size_t answered = 0;
      std::size_t matched = 0;
      std::string error;
      if (options.assign_mode) {
        auto reply = conn.Rank(0, batch[0]);
        if (!reply.ok()) {
          error = reply.error();
        } else if (reply.value().redirect.has_value()) {
          error = "unexpected REDIRECT from a standalone RANK";
        } else {
          answered = 1;
          matched = reply.value().reply.servers.empty() ? 0 : 1;
        }
      } else {
        auto records = conn.BatchLookup(batch);
        if (records.ok()) {
          answered = records.value().size();
          for (const server::LookupRecord& r : records.value()) {
            if (r.found) ++matched;
          }
        } else {
          error = records.error();
        }
      }
      if (error.empty()) {
        state->latency.Record(engine::NowNs() - start);
        // order: relaxed — per-worker stats, read after the joins.
        state->frames.fetch_add(1, std::memory_order_relaxed);
        state->lookups.fetch_add(answered, std::memory_order_relaxed);
        state->found.fetch_add(matched, std::memory_order_relaxed);
        done = true;
      } else if (server::Client::IsBusy(error)) {
        state->busy.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      } else {
        state->RecordError(error);
        return;  // transport broken; this worker is done
      }
    }
    if (!done) {
      // order: relaxed — per-worker stats, read after the joins.
      state->busy.fetch_add(conn.busy_absorbed(), std::memory_order_relaxed);
      state->RecordError("BUSY retry budget exhausted");
      return;
    }
  }
  // Fold in the BUSY responses the client's internal backoff absorbed, so
  // the report still counts every backpressure event.
  // order: relaxed — per-worker stats, read after the joins.
  state->busy.fetch_add(conn.busy_absorbed(), std::memory_order_relaxed);
}

/// Churn worker: replays the address stream as announce/withdraw pairs of
/// covering /24s through INGEST_UPDATE, exercising the daemon's single
/// ingest thread and the delta-recompile publish path. The ack carries the
/// published table version, so `found` counts acks that actually moved the
/// table forward (duplicate announces and spurious withdraws are counted
/// no-ops server-side and leave the version alone).
void ChurnWorker(const Options& options, int index, std::size_t budget,
                 SharedState* state) {
  auto client =
      server::Client::Connect(options.host, options.port, options.timeout_ms);
  if (!client.ok()) {
    state->RecordError("connect: " + client.error());
    return;
  }
  server::Client conn = std::move(client).value();

  const std::vector<net::IpAddress>& addresses = options.addresses;
  std::size_t cursor = static_cast<std::size_t>(index) % addresses.size();
  std::uint64_t last_version = 0;
  net::Prefix current;
  bool withdraw = false;

  for (std::size_t f = 0; f < budget; ++f) {
    if (!withdraw) {
      current = net::Prefix(addresses[cursor], 24);
      cursor = (cursor + 1) % addresses.size();
    }
    bgp::UpdateMessage update;
    if (withdraw) {
      update.withdrawn.push_back(current);
    } else {
      update.announced.push_back(current);
      update.as_path = {static_cast<bgp::AsNumber>(64512 + index)};
      update.next_hop = net::IpAddress(0x0A000001u + static_cast<std::uint32_t>(index));
    }
    withdraw = !withdraw;

    bool done = false;
    for (int attempt = 0; attempt <= options.busy_retries && !done;
         ++attempt) {
      const std::uint64_t start = engine::NowNs();
      auto ack = conn.IngestUpdate(options.churn_source, update);
      if (ack.ok()) {
        state->latency.Record(engine::NowNs() - start);
        // order: relaxed — per-worker stats, read after the joins.
        state->frames.fetch_add(1, std::memory_order_relaxed);
        state->lookups.fetch_add(1, std::memory_order_relaxed);
        if (ack.value().table_version > last_version) {
          state->found.fetch_add(1, std::memory_order_relaxed);
        }
        last_version = ack.value().table_version;
        done = true;
      } else if (server::Client::IsBusy(ack.error())) {
        // order: relaxed — per-worker stats, read after the joins.
        state->busy.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      } else {
        state->RecordError(ack.error());
        return;  // transport broken; this worker is done
      }
    }
    if (!done) {
      // order: relaxed — per-worker stats, read after the joins.
      state->busy.fetch_add(conn.busy_absorbed(), std::memory_order_relaxed);
      state->RecordError("BUSY retry budget exhausted");
      return;
    }
  }
  // order: relaxed — per-worker stats, read after the joins.
  state->busy.fetch_add(conn.busy_absorbed(), std::memory_order_relaxed);
}

/// One request frame in flight on a pipelined connection: the encoded
/// wire bytes (kept for BUSY resends), when it was sent, and how many
/// addresses it carries.
struct InflightFrame {
  std::vector<std::uint8_t> wire;
  std::uint64_t sent_ns = 0;
  std::size_t batch = 0;
  int attempts = 0;
};

/// Pipelined worker: keeps `options.pipeline` request frames outstanding
/// on one connection instead of round-tripping each frame. The protocol
/// answers a connection's frames strictly in order, so replies pair FIFO
/// with a deque of in-flight sends — no sequence numbers needed. A BUSY
/// reply re-enqueues the same frame at the back of the window after a 1ms
/// backoff (a resend is just a new request frame, so ordering holds).
/// Replies are light-scanned rather than fully decoded: the hot loop
/// checks the frame shape and counts `found` flags straight out of the
/// payload, which keeps the generator cheap enough to saturate the server.
void PipelinedWorker(const Options& options, int index, std::size_t budget,
                     SharedState* state) {
  auto connected =
      server::ConnectTcp(options.host, options.port, options.timeout_ms);
  if (!connected.ok()) {
    state->RecordError("connect: " + connected.error());
    return;
  }
  const int sock = connected.value();
  server::SetNoDelay(sock);

  const std::vector<net::IpAddress>& addresses = options.addresses;
  std::size_t cursor = static_cast<std::size_t>(index) % addresses.size();
  std::vector<net::IpAddress> batch;
  batch.reserve(options.batch_size);

  server::FrameDecoder decoder;
  std::deque<InflightFrame> window;
  std::size_t sent = 0;
  std::size_t done = 0;
  bool failed = false;

  const auto send_frame = [&](InflightFrame frame) {
    frame.sent_ns = engine::NowNs();
    auto wrote = server::WriteFull(sock, frame.wire.data(), frame.wire.size(),
                                   options.timeout_ms);
    if (!wrote.ok() || wrote.value() != server::IoStatus::kOk) {
      state->RecordError(wrote.ok() ? "pipelined send timed out"
                                    : wrote.error());
      failed = true;
      return;
    }
    window.push_back(std::move(frame));
  };

  const auto next_frame = [&] {
    batch.clear();
    for (std::size_t b = 0; b < options.batch_size; ++b) {
      batch.push_back(addresses[cursor]);
      cursor = (cursor + 1) % addresses.size();
    }
    InflightFrame frame;
    frame.batch = batch.size();
    frame.wire = server::EncodeFrame(server::Opcode::kBatchLookup,
                                     server::EncodeBatchLookup({batch}));
    return frame;
  };

  // Light-scan one reply against the oldest in-flight frame. Success and
  // hard failures consume the frame; BUSY re-enqueues it.
  const auto handle_reply = [&](const server::FrameView& view) {
    InflightFrame frame = std::move(window.front());
    window.pop_front();
    const std::uint8_t* payload = view.payload;
    const std::size_t size = view.header.payload_size;
    switch (view.header.opcode) {
      case server::Opcode::kBatchResult: {
        // BATCH_RESULT: u32 count, then `count` 16-byte records whose
        // first byte is the found flag.
        if (size < 4 || server::GetU32(payload) != frame.batch ||
            size != 4 + server::kLookupRecordSize * frame.batch) {
          state->RecordError("pipelined reply shape mismatch (BATCH_RESULT)");
          failed = true;
          return;
        }
        std::size_t matched = 0;
        for (std::size_t i = 0; i < frame.batch; ++i) {
          if (payload[4 + server::kLookupRecordSize * i] != 0) ++matched;
        }
        state->latency.Record(engine::NowNs() - frame.sent_ns);
        // order: relaxed — per-worker stats, read after the joins.
        state->frames.fetch_add(1, std::memory_order_relaxed);
        state->lookups.fetch_add(frame.batch, std::memory_order_relaxed);
        state->found.fetch_add(matched, std::memory_order_relaxed);
        ++done;
        return;
      }
      case server::Opcode::kBusy: {
        // order: relaxed — per-worker stats, read after the joins.
        state->busy.fetch_add(1, std::memory_order_relaxed);
        if (++frame.attempts > options.busy_retries) {
          state->RecordError("BUSY retry budget exhausted");
          failed = true;
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        send_frame(std::move(frame));
        return;
      }
      default:
        state->RecordError(std::string("unexpected pipelined reply: ") +
                           server::OpcodeName(view.header.opcode));
        failed = true;
    }
  };

  std::vector<std::uint8_t> rxbuf(64 * 1024);
  while (done < budget && !failed) {
    // Top up the window, then drain every decodable reply before blocking
    // for more bytes.
    while (!failed && window.size() < options.pipeline && sent < budget) {
      send_frame(next_frame());
      ++sent;
    }
    if (failed || window.empty()) break;

    bool progressed = false;
    while (!failed) {
      auto view = decoder.NextView();
      if (!view.ok()) {
        state->RecordError(view.error());
        failed = true;
        break;
      }
      if (!view.value().has_value()) break;
      progressed = true;
      handle_reply(*view.value());
    }
    if (failed || progressed) continue;

    if (server::PollOne(sock, POLLIN, options.timeout_ms) <= 0) {
      state->RecordError("pipelined read timed out");
      break;
    }
    const ssize_t n = server::RetryRead(sock, rxbuf.data(), rxbuf.size());
    if (n <= 0) {
      state->RecordError(n == 0 ? "server closed mid-pipeline"
                                : "pipelined read failed");
      break;
    }
    decoder.Feed(rxbuf.data(), static_cast<std::size_t>(n));
  }
  server::CloseFd(sock);
}

/// "host:port" -> (dotted-quad host, port).
Result<std::pair<std::string, std::uint16_t>> ParseEndpoint(
    const std::string& text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == text.size()) {
    return Fail("endpoint wants host:port, got '" + text + "'");
  }
  const int port = std::atoi(text.c_str() + colon + 1);
  if (port <= 0 || port > 0xFFFF) {
    return Fail("endpoint port out of range in '" + text + "'");
  }
  return std::make_pair(text.substr(0, colon),
                        static_cast<std::uint16_t>(port));
}

/// Fetches the fleet topology from the first endpoint that answers.
Result<server::Topology> FetchFleetTopology(const Options& options) {
  std::string last_error = "no endpoints";
  for (const std::string& endpoint : options.endpoints) {
    auto parsed = ParseEndpoint(endpoint);
    if (!parsed.ok()) return Fail(parsed.error());
    auto client = server::Client::Connect(
        parsed.value().first, parsed.value().second, options.timeout_ms);
    if (!client.ok()) {
      last_error = client.error();
      continue;
    }
    server::Client conn = std::move(client).value();
    auto topo = conn.FetchTopology();
    if (!topo.ok()) {
      last_error = topo.error();
      continue;
    }
    return topo;
  }
  return Fail("no endpoint served a topology: " + last_error);
}

/// Fleet-mode worker: same replay loop, but every frame routes through a
/// topology-aware ClusterClient instead of one pinned connection.
void ClusterWorker(const Options& options, const server::Topology& topo,
                   int index, std::size_t budget, SharedState* state) {
  cluster::ClusterClientConfig config;
  config.timeout_ms = options.timeout_ms;
  auto created = cluster::ClusterClient::Create(topo, config);
  if (!created.ok()) {
    state->RecordError("cluster client: " + created.error());
    return;
  }
  cluster::ClusterClient fleet = std::move(created).value();

  const std::vector<net::IpAddress>& addresses = options.addresses;
  std::size_t cursor = static_cast<std::size_t>(index) % addresses.size();
  std::vector<net::IpAddress> batch;
  batch.reserve(options.batch_size);

  for (std::size_t f = 0; f < budget; ++f) {
    batch.clear();
    for (std::size_t b = 0; b < options.batch_size; ++b) {
      batch.push_back(addresses[cursor]);
      cursor = (cursor + 1) % addresses.size();
    }

    const std::uint64_t start = engine::NowNs();
    std::size_t answered = 0;
    std::size_t matched = 0;
    std::string error;
    if (options.assign_mode) {
      auto reply = fleet.Rank(batch[0]);
      if (reply.ok()) {
        answered = 1;
        matched = reply.value().servers.empty() ? 0 : 1;
      } else {
        error = reply.error();
      }
    } else {
      auto records = fleet.BatchLookup(batch);
      if (records.ok()) {
        answered = records.value().size();
        for (const server::LookupRecord& r : records.value()) {
          if (r.found) ++matched;
        }
      } else {
        error = records.error();
      }
    }
    if (!error.empty()) {
      // The ClusterClient already retried through redirects and node
      // failures; a surviving error ends this worker.
      // order: relaxed — per-worker stats, read after the joins.
      state->busy.fetch_add(fleet.busy_absorbed(), std::memory_order_relaxed);
      state->redirects.fetch_add(fleet.redirects_followed(), std::memory_order_relaxed);
      state->RecordError(error);
      return;
    }
    state->latency.Record(engine::NowNs() - start);
    // order: relaxed — per-worker stats, read after the joins.
    state->frames.fetch_add(1, std::memory_order_relaxed);
    state->lookups.fetch_add(answered, std::memory_order_relaxed);
    state->found.fetch_add(matched, std::memory_order_relaxed);
  }
  // order: relaxed — per-worker stats, read after the joins.
  state->busy.fetch_add(fleet.busy_absorbed(), std::memory_order_relaxed);
  state->redirects.fetch_add(fleet.redirects_followed(), std::memory_order_relaxed);
}

}  // namespace

std::string Report::ToJson() const {
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"qps\": %.1f, \"p50_us\": %.3f, \"p99_us\": %.3f, "
      "\"frames\": %zu, \"pipeline\": %zu, \"lookups\": %zu, \"found\": %zu, "
      "\"busy_retries\": %zu, \"redirects\": %zu, \"errors\": %zu, "
      "\"elapsed_ms\": %.1f, \"zipf_s\": %.3f}",
      qps, static_cast<double>(p50_ns) / 1e3,
      static_cast<double>(p99_ns) / 1e3, frames_sent, pipeline, lookups_done,
      found, busy_retries, redirects, errors,
      static_cast<double>(elapsed_ns) / 1e6, zipf_s);
  return buffer;
}

Result<Report> Run(const Options& options) {
  if (options.addresses.empty()) return Fail("no addresses to replay");
  if (options.connections < 1) return Fail("need at least one connection");
  if (options.batch_size < 1) return Fail("batch size must be >= 1");
  if (options.pipeline < 1) return Fail("pipeline depth must be >= 1");
  if (options.pipeline > 1 && !options.endpoints.empty()) {
    return Fail("pipelined mode drives a single daemon, not a fleet");
  }
  if (options.endpoints.empty() && options.batch_size > server::kMaxBatch) {
    // Fleet mode has no cap: the ClusterClient splits at kMaxBatch.
    return Fail("batch size exceeds protocol kMaxBatch");
  }
  if (options.assign_mode &&
      (options.batch_size != 1 || options.pipeline != 1)) {
    return Fail("assign mode sends one RANK per frame (batch 1, no pipeline)");
  }
  if (options.churn_mode &&
      (options.batch_size != 1 || options.pipeline != 1 ||
       options.assign_mode || !options.endpoints.empty())) {
    return Fail(
        "churn mode sends one INGEST_UPDATE per frame "
        "(batch 1, no pipeline, no assign, no fleet)");
  }
  if (options.zipf_s < 0.0) return Fail("zipf skew must be >= 0");

  // Zipf shaping: resample the stream so address rank k (first-appearance
  // order) is drawn with P(k) ∝ 1/(k+1)^s. Workers still cycle the shaped
  // stream deterministically, so runs stay reproducible.
  Options shaped = options;
  if (options.zipf_s > 0.0) {
    synth::Rng rng(1);
    const synth::ZipfSampler sampler(options.addresses.size(),
                                     options.zipf_s);
    std::vector<net::IpAddress> stream;
    stream.reserve(options.addresses.size());
    for (std::size_t i = 0; i < options.addresses.size(); ++i) {
      stream.push_back(options.addresses[sampler.Sample(rng)]);
    }
    shaped.addresses = std::move(stream);
  }

  server::Topology fleet_topo;
  if (!shaped.endpoints.empty()) {
    auto topo = FetchFleetTopology(shaped);
    if (!topo.ok()) return Fail(topo.error());
    fleet_topo = std::move(topo).value();
  }

  SharedState state;
  const std::uint64_t start = engine::NowNs();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(shaped.connections));
  for (int i = 0; i < shaped.connections; ++i) {
    const std::size_t budget =
        SliceSize(shaped.total_frames, shaped.connections, i);
    if (shaped.endpoints.empty()) {
      if (shaped.churn_mode) {
        workers.emplace_back(ChurnWorker, std::cref(shaped), i, budget,
                             &state);
      } else if (shaped.pipeline > 1) {
        workers.emplace_back(PipelinedWorker, std::cref(shaped), i, budget,
                             &state);
      } else {
        workers.emplace_back(Worker, std::cref(shaped), i, budget, &state);
      }
    } else {
      workers.emplace_back(ClusterWorker, std::cref(shaped),
                           std::cref(fleet_topo), i, budget, &state);
    }
  }
  for (std::thread& t : workers) t.join();
  const std::uint64_t elapsed = engine::NowNs() - start;

  Report report;
  report.pipeline = options.pipeline;
  report.zipf_s = options.zipf_s;
  // order: relaxed — workers joined above; these are quiescent reads.
  report.frames_sent = state.frames.load(std::memory_order_relaxed);
  report.lookups_done = state.lookups.load(std::memory_order_relaxed);
  report.found = state.found.load(std::memory_order_relaxed);
  report.busy_retries = state.busy.load(std::memory_order_relaxed);
  report.redirects = state.redirects.load(std::memory_order_relaxed);
  report.errors = state.errors.load(std::memory_order_relaxed);
  report.elapsed_ns = elapsed;
  report.qps = elapsed > 0 ? static_cast<double>(report.lookups_done) /
                                 (static_cast<double>(elapsed) / 1e9)
                           : 0.0;
  report.p50_ns = server::HistogramQuantileNs(state.latency, 0.50);
  report.p99_ns = server::HistogramQuantileNs(state.latency, 0.99);
  report.first_error = state.first_error;
  return report;
}

std::vector<net::IpAddress> SyntheticAddresses(std::size_t count,
                                               net::IpAddress base_prefix,
                                               int prefix_len,
                                               std::uint64_t seed) {
  std::vector<net::IpAddress> out;
  out.reserve(count);
  const int host_bits = 32 - prefix_len;
  const std::uint32_t host_mask =
      host_bits >= 32 ? 0xFFFFFFFFu : (1u << host_bits) - 1u;
  const std::uint32_t network = base_prefix.bits() & ~host_mask;
  std::uint64_t lcg = seed * 6364136223846793005ull + 1442695040888963407ull;
  for (std::size_t i = 0; i < count; ++i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const auto scatter = static_cast<std::uint32_t>(lcg >> 32);
    out.emplace_back(network | (scatter & host_mask));
  }
  return out;
}

Result<std::vector<net::IpAddress>> AddressesFromClf(const std::string& path,
                                                     std::size_t limit) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Fail("cannot open CLF log: " + path);
  weblog::ServerLog log(path);
  std::size_t malformed = 0;
  log.AppendClfStream(in, &malformed);
  if (log.request_count() == 0) {
    return Fail("no parseable CLF records in " + path +
                " (malformed lines: " + std::to_string(malformed) + ")");
  }
  std::vector<net::IpAddress> out;
  const std::size_t n = limit > 0 && limit < log.request_count()
                            ? limit
                            : log.request_count();
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(log.requests()[i].client);
  }
  return out;
}

}  // namespace netclust::loadgen
