#include "server/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <span>
#include <sstream>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/uio.h>

#include "bgp/mrt.h"
#include "server/io_util.h"

namespace netclust::server {

namespace {

std::int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int EpollWait(int epoll_fd, epoll_event* events, int max_events,
              int timeout_ms) {
  for (;;) {
    const int n = ::epoll_wait(epoll_fd, events, max_events, timeout_ms);
    if (n >= 0 || errno != EINTR) return n;
  }
}

/// Timeout sweep tick; also the epoll_wait budget whenever any deadline
/// is configured.
constexpr int kSweepIntervalMs = 25;

/// Gather width of one flush writev: enough to coalesce a deep pipeline
/// of replies, small enough to live on the stack.
constexpr int kMaxFlushIov = 64;

/// Read bursts (64 KiB each) serviced per readable event before yielding
/// back to epoll — level-triggered redelivery keeps the rest pending, so
/// one firehose connection cannot starve its reactor siblings.
constexpr int kMaxReadBursts = 4;

}  // namespace

Server::Server(engine::Engine* engine, ServerConfig config)
    : engine_(engine), config_(std::move(config)) {}

Server::~Server() { Stop(); }

Result<std::uint16_t> Server::Serve() {
  if (serving_) return Fail("Serve() called twice");
  reactors_.clear();
  max_inflight_ = static_cast<std::int64_t>(config_.max_inflight_frames);
  const int count = config_.reactors > 0 ? config_.reactors : 2;

  const auto fail = [this](const std::string& error) -> Result<std::uint16_t> {
    for (auto& r : reactors_) {
      // Quiescent: fail runs before any reactor thread is spawned, so the
      // caller is the only thread that has ever seen these reactors.
      base::AssumeThreadRole own(r->role);
      CloseFd(r->listen_fd);
      CloseFd(r->wake_fd);
      CloseFd(r->epoll_fd);
    }
    reactors_.clear();
    return Fail(error);
  };

  for (int i = 0; i < count; ++i) {
    reactors_.push_back(std::make_unique<Reactor>());
    Reactor& r = *reactors_.back();
    // Quiescent: r's thread is spawned only after every reactor is fully
    // set up, so until then the Serve() caller is r's owning thread.
    base::AssumeThreadRole own(r.role);
    r.index = static_cast<std::size_t>(i);
    // Each reactor gets its own private mapping cache — shared-nothing
    // like the rest of its arena, so the lookup fast path stays lock-free.
    r.mapping = std::make_unique<mapping::MappingTier>(
        engine_, config_.mapping_cache_capacity, &r.mapping_metrics);
    // Every reactor listens on the same port with SO_REUSEPORT: the kernel
    // hashes each connection's 4-tuple to exactly one listener, so accepts
    // spread across reactors with no shared accept queue, no EPOLLONESHOT
    // rearm handshake, and no thundering herd. Reactor 0 resolves an
    // ephemeral port request; the rest join the resolved port.
    auto listener =
        CreateListener(i == 0 ? config_.port : port_, config_.listen_backlog,
                       0x7F000001, /*reuse_port=*/true);
    if (!listener.ok()) return fail(listener.error());
    r.listen_fd = listener.value();
    if (i == 0) {
      auto port = LocalPort(r.listen_fd);
      if (!port.ok()) return fail(port.error());
      port_ = port.value();
    }
    r.epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (r.epoll_fd < 0) {
      return fail(std::string("epoll_create1: ") + std::strerror(errno));
    }
    // The wake descriptor is written once at Stop() and never read, so it
    // stays readable: the reactor's epoll_wait returns, sees stopping_ and
    // drains — no per-thread wakeup bookkeeping.
    r.wake_fd = ::eventfd(0, EFD_CLOEXEC);
    if (r.wake_fd < 0) {
      return fail(std::string("eventfd: ") + std::strerror(errno));
    }
    epoll_event wake_ev{};
    wake_ev.events = EPOLLIN;
    wake_ev.data.fd = r.wake_fd;
    epoll_event listen_ev{};
    listen_ev.events = EPOLLIN;
    listen_ev.data.fd = r.listen_fd;
    if (::epoll_ctl(r.epoll_fd, EPOLL_CTL_ADD, r.wake_fd, &wake_ev) != 0 ||
        ::epoll_ctl(r.epoll_fd, EPOLL_CTL_ADD, r.listen_fd, &listen_ev) != 0) {
      return fail(std::string("epoll_ctl(ADD): ") + std::strerror(errno));
    }
  }

  // order: relaxed — the flag is re-armed before any thread is spawned;
  // thread creation itself orders this store.
  stopping_.store(false, std::memory_order_relaxed);
  {
    base::MutexLock lock(&ingest_mu_);
    ingest_stopping_ = false;
  }
  serving_ = true;
  for (auto& r : reactors_) {
    r->thread = std::thread([this, reactor = r.get()] { ReactorLoop(*reactor); });
  }
  ingest_thread_ = std::thread([this] { IngestLoop(); });
  if (!config_.live_bgp4mp_path.empty()) {
    live_thread_ = std::thread([this] { LiveFeedLoop(); });
  }
  return port_;
}

void Server::Stop() {
  // Partial Serve() failures clean up after themselves, and completed
  // reactors are kept (fds closed, threads joined) so their metrics stay
  // readable after Stop(); re-Serve() clears them.
  if (!serving_) return;
  serving_ = false;

  // 1. Flag the drain and wake every reactor. Each stops accepting,
  //    finishes the frames it has decoded (including waiting out queued
  //    ingest acks), flushes queued replies within the write deadline,
  //    closes its connections and exits.
  // order: relaxed — the flag carries no data; the eventfd write below
  // (a syscall the reactor's epoll_wait observes) is what forces each
  // loop around to a fresh load, and the loop re-polls until it sees it.
  stopping_.store(true, std::memory_order_relaxed);
  const std::uint64_t one = 1;
  for (auto& r : reactors_) (void)RetryWrite(r->wake_fd, &one, sizeof(one));
  for (auto& r : reactors_) {
    if (r->thread.joinable()) r->thread.join();
  }

  // 1.5. The live feeder checks stopping_ on every 100 ms poll turn, and
  //      any burst it is waiting on completes because the ingest thread is
  //      still running — so this join is bounded by one poll slice plus
  //      one batch publish.
  if (live_thread_.joinable()) live_thread_.join();

  // 2. With the reactors gone, no job is left waiting: the ingest queue is
  //    empty or holds only jobs whose reactors already got their acks.
  //    Signal shutdown and let the loop drain what remains.
  {
    base::MutexLock lock(&ingest_mu_);
    ingest_stopping_ = true;
  }
  ingest_cv_.NotifyAll();
  if (ingest_thread_.joinable()) ingest_thread_.join();

  for (auto& r : reactors_) {
    // Quiescent: r's thread was joined above, so ownership of its state
    // has passed back to the Stop() caller.
    base::AssumeThreadRole own(r->role);
    CloseFd(r->listen_fd);
    CloseFd(r->wake_fd);
    CloseFd(r->epoll_fd);
    r->listen_fd = r->wake_fd = r->epoll_fd = -1;
  }
}

std::string Server::StatsText() const {
  std::ostringstream out;
  out << metrics_.Exposition();
  std::int64_t inflight_sum = 0;
  for (const auto& r : reactors_) {
    // order: relaxed — scrape-style read, same contract as the counters.
    const std::int64_t inflight =
        r->metrics.inflight_frames.load(std::memory_order_relaxed);
    inflight_sum += inflight;
    const auto tag = "{reactor=\"" + std::to_string(r->index) + "\"} ";
    out << "netclust_server_reactor_connections_accepted_total" << tag
        << r->metrics.connections_accepted.value() << "\n";
    out << "netclust_server_reactor_frames_decoded_total" << tag
        << r->metrics.frames_decoded.value() << "\n";
    out << "netclust_server_reactor_lookups_served_total" << tag
        << r->metrics.lookups_served.value() << "\n";
    out << "netclust_server_reactor_busy_replies_total" << tag
        << r->metrics.busy_replies.value() << "\n";
    out << "netclust_server_reactor_short_writes_total" << tag
        << r->metrics.short_writes.value() << "\n";
    out << "netclust_server_reactor_inflight_frames" << tag << inflight
        << "\n";
    out << "netclust_server_reactor_mapping_hits_total" << tag
        << r->mapping_metrics.hits.value() << "\n";
    out << "netclust_server_reactor_mapping_misses_total" << tag
        << r->mapping_metrics.misses.value() << "\n";
    out << "netclust_server_reactor_mapping_inserts_total" << tag
        << r->mapping_metrics.inserts.value() << "\n";
    out << "netclust_server_reactor_mapping_evictions_total" << tag
        << r->mapping_metrics.evictions.value() << "\n";
    out << "netclust_server_reactor_mapping_invalidations_total" << tag
        << r->mapping_metrics.invalidations.value() << "\n";
  }
  // The summed view of the per-reactor backpressure gauges: with N
  // reactors the fleet-wide admission bound is N * max_inflight_frames.
  out << "netclust_server_inflight_frames_sum " << inflight_sum << "\n";
  return out.str() + engine_->MetricsText();
}

// The wire-level stats record mirrors the engine histogram bucket-for-
// bucket so a client can merge fleets exactly.
static_assert(kStatsLatencyBuckets == engine::LatencyHistogram::kBuckets,
              "ClusterStatsRecord latency buckets must mirror the engine "
              "histogram layout");

// Every installed ranking must fit a RANK_REPLY payload.
static_assert(kMaxRankServers == mapping::RankTable::kMaxServers,
              "RANK_REPLY server bound must mirror RankTable::kMaxServers");

Result<bool> Server::SetTopology(const Topology& topo) {
  if (config_.cluster_node_id < 0) {
    return Fail("standalone server cannot install a topology");
  }
  auto valid = ValidateTopology(topo);
  if (!valid.ok()) return Fail(valid.error());
  auto compiled = std::make_shared<CompiledTopology>();
  compiled->topo = topo;
  compiled->owner = CompileOwners(topo);
  compiled->self_index = NodeIndexOf(
      topo, static_cast<std::uint32_t>(config_.cluster_node_id));
  {
    base::MutexLock lock(&topo_mu_);
    if (topology_ != nullptr) {
      if (topo.epoch < topology_->topo.epoch) {
        return Fail("topology epoch must not regress");
      }
      if (topo.epoch == topology_->topo.epoch) {
        if (topo == topology_->topo) return true;  // idempotent re-push
        return Fail("conflicting topology at the installed epoch");
      }
    }
    topology_ = std::move(compiled);
  }
  metrics_.topology_installs.Inc();
  return true;
}

std::optional<Topology> Server::CurrentTopology() const {
  base::MutexLock lock(&topo_mu_);
  if (topology_ == nullptr) return std::nullopt;
  return topology_->topo;
}

std::shared_ptr<const Server::CompiledTopology> Server::AcquireTopology()
    const {
  base::MutexLock lock(&topo_mu_);
  return topology_;
}

ClusterStatsRecord Server::BuildClusterStats(
    const std::shared_ptr<const CompiledTopology>& topo) const {
  ClusterStatsRecord record;
  record.epoch = topo != nullptr ? topo->topo.epoch : 0;
  record.node_id = static_cast<std::uint32_t>(config_.cluster_node_id);
  record.frames_decoded = metrics_.frames_decoded.value();
  record.lookups_served = metrics_.lookups_served.value();
  record.cluster_lookups_served = metrics_.cluster_lookups_served.value();
  record.ingests_applied = metrics_.ingests_applied.value();
  record.busy_replies = metrics_.busy_replies.value();
  record.errors_sent = metrics_.errors_sent.value();
  record.redirects_sent = metrics_.redirects_sent.value();
  // order: relaxed — scrape-style read, same contract as the counters.
  record.connections_active = static_cast<std::uint64_t>(std::max<std::int64_t>(
      0, metrics_.connections_active.load(std::memory_order_relaxed)));
  record.latency_sum_ns = metrics_.lookup_service_ns.sum();
  for (std::size_t i = 0; i < kStatsLatencyBuckets; ++i) {
    record.latency_buckets[i] = metrics_.lookup_service_ns.bucket(i);
  }
  return record;
}

void Server::ReactorLoop(Reactor& r) {
  // This function IS the reactor thread's main: the one place r.role is
  // assumed while the thread runs. Everything downstream REQUIRES(r.role).
  base::AssumeThreadRole own(r.role);
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  // The epoll timeout doubles as the timeout-sweep tick — the sweep is
  // folded into this loop (no reaper thread, no claim handshake) because
  // this thread exclusively owns every connection it would inspect.
  const bool sweeping = config_.idle_timeout_ms > 0 ||
                        config_.read_timeout_ms > 0 ||
                        config_.write_timeout_ms > 0;
  const int wait_ms = sweeping ? kSweepIntervalMs : -1;
  std::int64_t last_sweep_ms = NowMs();
  // order: relaxed — pure stop flag (see Stop()); every protected state
  // handoff happens after the join, not through this load.
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int n = EpollWait(r.epoll_fd, events, kMaxEvents, wait_ms);
    if (n < 0) break;  // epoll descriptor gone: shutdown
    // Connection events first, accepts second: an fd closed in this batch
    // cannot be recycled by an accept until its stale events are skipped.
    bool accept_ready = false;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == r.wake_fd) continue;  // stop flag checked by the loop
      if (fd == r.listen_fd) {
        accept_ready = true;
        continue;
      }
      const auto it = r.conns.find(fd);
      if (it == r.conns.end()) continue;  // closed earlier in this batch
      Connection* conn = it->second.get();
      const std::uint32_t ev = events[i].events;
      if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConnection(r, conn, nullptr);
        continue;
      }
      if ((ev & EPOLLOUT) != 0 && !FlushConnection(r, conn)) {
        CloseConnection(r, conn, nullptr);
        continue;
      }
      if ((ev & (EPOLLIN | EPOLLRDHUP)) != 0) {
        ServiceReadable(r, conn);  // closes the connection itself if needed
      }
    }
    // order: relaxed — same stop-flag contract as the loop condition.
    if (accept_ready && !stopping_.load(std::memory_order_relaxed)) AcceptNew(r);
    if (sweeping) {
      const std::int64_t now = NowMs();
      if (now - last_sweep_ms >= kSweepIntervalMs) {
        SweepTimeouts(r, now);
        last_sweep_ms = now;
      }
    }
  }

  // Graceful drain: every decoded frame was answered inline, so the only
  // outstanding work is queued reply bytes. Flush them within the write
  // deadline, then close everything this reactor owns.
  (void)::epoll_ctl(r.epoll_fd, EPOLL_CTL_DEL, r.listen_fd, nullptr);
  for (auto& [fd, conn] : r.conns) {
    FlushBlocking(r, conn.get());
    if (!conn->outq.empty()) {
      // order: relaxed — gauge bookkeeping only.
      r.metrics.inflight_frames.fetch_sub(
          static_cast<std::int64_t>(conn->outq.size()),
          std::memory_order_relaxed);
    }
    (void)::epoll_ctl(r.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    CloseFd(fd);
    metrics_.connections_closed.Inc();
    // order: relaxed — gauge bookkeeping only.
    metrics_.connections_active.fetch_sub(1, std::memory_order_relaxed);
    connections_total_.fetch_sub(1, std::memory_order_relaxed);
  }
  r.conns.clear();
}

void Server::AcceptNew(Reactor& r) {
  for (;;) {
    const int fd = RetryAccept(r.listen_fd);
    if (fd < 0) break;  // EAGAIN (drained) or transient error
    // order: relaxed — approximate admission bound; a transient overshoot
    // under concurrent accepts on other reactors only shifts where the
    // BUSY kicks in.
    const std::int64_t total = connections_total_.load(std::memory_order_relaxed);
    if (total >= static_cast<std::int64_t>(config_.max_connections) ||
        stopping_.load(std::memory_order_relaxed)) {
      // Explicit backpressure: tell the client we are full, then close.
      metrics_.connections_rejected.Inc();
      metrics_.busy_replies.Inc();
      const std::vector<std::uint8_t> busy = EncodeFrame(Opcode::kBusy, {});
      (void)WriteFull(fd, busy.data(), busy.size(), config_.write_timeout_ms);
      CloseFd(fd);
      continue;
    }
    if (!SetNonBlocking(fd, true)) {
      CloseFd(fd);
      continue;
    }
    SetNoDelay(fd);
    if (config_.accepted_sndbuf_bytes > 0) {
      SetSendBufferBytes(fd, config_.accepted_sndbuf_bytes);
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->last_activity_ms = NowMs();
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.fd = fd;
    if (::epoll_ctl(r.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      CloseFd(fd);
      continue;
    }
    r.conns.emplace(fd, std::move(conn));
    metrics_.connections_accepted.Inc();
    r.metrics.connections_accepted.Inc();
    // order: relaxed ×2 — gauge bookkeeping only.
    metrics_.connections_active.fetch_add(1, std::memory_order_relaxed);
    connections_total_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::ServiceReadable(Reactor& r, Connection* conn) {
  std::uint8_t buffer[65536];
  bool close = false;
  int bursts = 0;
  for (;;) {
    const ssize_t n = RetryRead(conn->fd, buffer, sizeof(buffer));
    if (n > 0) {
      metrics_.bytes_read.Inc(static_cast<std::uint64_t>(n));
      conn->last_activity_ms = NowMs();
      conn->decoder.Feed(buffer, static_cast<std::size_t>(n));
      for (;;) {
        auto next = conn->decoder.NextView();
        if (!next.ok()) {
          // The stream is unsynchronized; report and hang up.
          metrics_.frames_rejected.Inc();
          QueueError(r, conn, ErrorCode::kMalformedFrame, next.error());
          close = true;
          break;
        }
        if (!next.value().has_value()) break;  // partial frame; read more
        if (!DispatchFrame(r, conn, *next.value())) {
          close = true;
          break;
        }
      }
      if (close) break;
      if (static_cast<std::size_t>(n) < sizeof(buffer) ||
          ++bursts >= kMaxReadBursts) {
        break;  // drained, or burst budget spent (epoll redelivers)
      }
      continue;
    }
    if (n == 0) {  // orderly EOF; deliver queued replies, then close
      close = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    close = true;  // hard socket error
    break;
  }
  if (close) {
    // Best-effort: a half-closed pipelining peer still gets its answers,
    // and a protocol violator gets the ERROR frame before the RST.
    FlushBlocking(r, conn);
    CloseConnection(r, conn, nullptr);
    return;
  }
  // One coalesced writev for every reply this burst produced.
  if (!FlushConnection(r, conn)) CloseConnection(r, conn, nullptr);
}

void Server::QueueFrame(Reactor& r, Connection* conn,
                        std::vector<std::uint8_t> wire) {
  if (conn->outq.empty()) conn->last_write_progress_ms = NowMs();
  conn->outq.push_back(std::move(wire));
  // order: relaxed — single-writer gauge; scrapes read it cross-thread.
  r.metrics.inflight_frames.fetch_add(1, std::memory_order_relaxed);
}

void Server::QueueReply(Reactor& r, Connection* conn, Opcode opcode,
                        const std::vector<std::uint8_t>& payload) {
  QueueFrame(r, conn, EncodeFrame(opcode, payload));
}

void Server::QueueError(Reactor& r, Connection* conn, ErrorCode code,
                        const std::string& message) {
  metrics_.errors_sent.Inc();
  QueueReply(r, conn, Opcode::kError, EncodeError(ErrorReply{code, message}));
}

bool Server::FlushConnection(Reactor& r, Connection* conn) {
  while (!conn->outq.empty()) {
    iovec iov[kMaxFlushIov];
    int cnt = 0;
    std::size_t skip = conn->out_off;
    for (auto it = conn->outq.begin();
         it != conn->outq.end() && cnt < kMaxFlushIov; ++it) {
      iov[cnt].iov_base = it->data() + skip;
      iov[cnt].iov_len = it->size() - skip;
      skip = 0;  // only the oldest frame can be partially written
      ++cnt;
    }
    const ssize_t n = RetryWritev(conn->fd, iov, cnt);
    if (n <= 0) {
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        return false;  // peer gone (EPIPE/ECONNRESET/...)
      }
      // Short write: the socket buffer is full. Park the remainder on the
      // connection and let EPOLLOUT resume the flush — the reactor moves
      // on to its other connections instead of blocking on this one.
      r.metrics.short_writes.Inc();
      if (!conn->want_write) {
        conn->want_write = true;
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP;
        ev.data.fd = conn->fd;
        (void)::epoll_ctl(r.epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
      }
      return true;
    }
    metrics_.bytes_written.Inc(static_cast<std::uint64_t>(n));
    conn->last_write_progress_ms = NowMs();
    std::size_t remaining = static_cast<std::size_t>(n);
    while (remaining > 0) {
      std::vector<std::uint8_t>& front = conn->outq.front();
      const std::size_t left = front.size() - conn->out_off;
      if (remaining < left) {
        conn->out_off += remaining;
        break;
      }
      remaining -= left;
      conn->out_off = 0;
      conn->outq.pop_front();
      // order: relaxed — single-writer gauge; scrapes read cross-thread.
      r.metrics.inflight_frames.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  if (conn->want_write) {
    conn->want_write = false;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.fd = conn->fd;
    (void)::epoll_ctl(r.epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
  }
  return true;
}

void Server::FlushBlocking(Reactor& r, Connection* conn) {
  while (!conn->outq.empty()) {
    std::vector<std::uint8_t>& front = conn->outq.front();
    const std::size_t left = front.size() - conn->out_off;
    auto written = WriteFull(conn->fd, front.data() + conn->out_off, left,
                             config_.write_timeout_ms);
    if (!written.ok() || written.value() != IoStatus::kOk) return;
    metrics_.bytes_written.Inc(left);
    conn->out_off = 0;
    conn->outq.pop_front();
    // order: relaxed — single-writer gauge; scrapes read cross-thread.
    r.metrics.inflight_frames.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Server::CloseConnection(Reactor& r, Connection* conn,
                             engine::Counter* reason) {
  if (!conn->outq.empty()) {
    // Undelivered replies die with the connection; release their slots.
    // order: relaxed — gauge bookkeeping only.
    r.metrics.inflight_frames.fetch_sub(
        static_cast<std::int64_t>(conn->outq.size()),
        std::memory_order_relaxed);
  }
  const int fd = conn->fd;
  (void)::epoll_ctl(r.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  CloseFd(fd);
  metrics_.connections_closed.Inc();
  if (reason != nullptr) reason->Inc();
  // order: relaxed ×2 — gauge bookkeeping only.
  metrics_.connections_active.fetch_sub(1, std::memory_order_relaxed);
  connections_total_.fetch_sub(1, std::memory_order_relaxed);
  r.conns.erase(fd);  // destroys *conn
}

void Server::SweepTimeouts(Reactor& r, std::int64_t now_ms) {
  // A non-positive timeout means "never": each deadline can be disabled
  // independently without silently dropping the others.
  constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
  const std::int64_t read_limit =
      config_.read_timeout_ms > 0 ? config_.read_timeout_ms : kNever;
  const std::int64_t idle_limit =
      config_.idle_timeout_ms > 0 ? config_.idle_timeout_ms : kNever;
  const std::int64_t write_limit =
      config_.write_timeout_ms > 0 ? config_.write_timeout_ms : kNever;
  std::vector<int> victims;
  for (const auto& [fd, conn] : r.conns) {
    // A peer with queued replies is judged on write progress; a stalled
    // mid-frame sender on the (shorter) read deadline; a merely quiet
    // connection on the idle deadline.
    if (!conn->outq.empty()) {
      if (now_ms - conn->last_write_progress_ms >= write_limit) {
        victims.push_back(fd);
      }
    } else if (conn->decoder.buffered() > 0) {
      if (now_ms - conn->last_activity_ms >= read_limit) {
        victims.push_back(fd);
      }
    } else if (now_ms - conn->last_activity_ms >= idle_limit) {
      victims.push_back(fd);
    }
  }
  for (const int fd : victims) {
    const auto it = r.conns.find(fd);
    if (it != r.conns.end()) {
      CloseConnection(r, it->second.get(), &metrics_.connections_reaped);
    }
  }
}

bool Server::AdmitMappingRequest(Reactor& r, Connection* conn,
                                 const char* opcode_name, std::uint64_t epoch,
                                 std::span<const net::IpAddress> addresses) {
  if (config_.cluster_node_id < 0) {
    // Standalone: there is no topology epoch to agree on, so a nonzero
    // stamp means the client is confused about the deployment mode.
    if (epoch != 0) {
      metrics_.frames_rejected.Inc();
      QueueError(r, conn, ErrorCode::kMalformedPayload,
                 std::string(opcode_name) +
                     " epoch must be zero on a standalone server");
      return false;
    }
    return true;
  }
  const auto topo = AcquireTopology();
  if (topo == nullptr) {
    metrics_.frames_rejected.Inc();
    QueueError(r, conn, ErrorCode::kMalformedPayload, "no topology installed");
    return false;
  }
  // A redirect is the protocol's "ask again with fresher routing": never
  // answer past the epoch fence or for blocks this node does not own, or a
  // mid-rebalance client could read a stale shard (or be handed a server
  // ranked for somebody else's cluster).
  const auto owned = [&topo](net::IpAddress address) {
    return topo->owner[address.bits() >> 16] == topo->self_index;
  };
  RedirectReason reason = RedirectReason::kStaleEpoch;
  if (epoch == topo->topo.epoch && topo->self_index >= 0) {
    if (std::all_of(addresses.begin(), addresses.end(), owned)) return true;
    reason = RedirectReason::kNotOwner;
  }
  metrics_.redirects_sent.Inc();
  QueueReply(r, conn, Opcode::kRedirect,
             EncodeRedirect(RedirectReply{reason, topo->topo.epoch}));
  return false;
}

bool Server::DispatchFrame(Reactor& r, Connection* conn,
                           const FrameView& frame) {
  metrics_.frames_decoded.Inc();
  r.metrics.frames_decoded.Inc();
  const std::uint64_t start_ns = engine::NowNs();
  const std::uint8_t* payload = frame.payload;
  const std::size_t size = frame.header.payload_size;

  // Per-reactor backpressure: the gauge counts reply frames queued on this
  // reactor's connections and not yet flushed; admitting this frame would
  // push it past the per-reactor bound, so shed it instead. Each reactor
  // is an independent arena — a flooded sibling never BUSYs this one.
  // order: relaxed — only this thread mutates the gauge.
  const std::int64_t inflight =
      r.metrics.inflight_frames.load(std::memory_order_relaxed);
  if (inflight + 1 > max_inflight_) {
    metrics_.busy_replies.Inc();
    r.metrics.busy_replies.Inc();
    QueueReply(r, conn, Opcode::kBusy, {});
    return true;
  }

  switch (frame.header.opcode) {
    case Opcode::kPing: {
      if (size > kMaxPingEcho) {
        metrics_.frames_rejected.Inc();
        QueueError(r, conn, ErrorCode::kMalformedPayload,
                   "PING echo payload too large");
        return true;
      }
      metrics_.pings_served.Inc();
      QueueReply(r, conn, Opcode::kPong,
                 std::vector<std::uint8_t>(payload, payload + size));
      return true;
    }

    case Opcode::kBatchLookup:
    case Opcode::kClusterLookup: {
      // The fast path end-to-end: decode straight out of the frame view
      // into the reactor's reusable address buffer, resolve the whole
      // batch in one engine call (single RCU acquire, prefetched flat
      // directory), and append the complete reply frame directly — no
      // LookupRecord vector, no payload copy, no per-frame allocation
      // once the scratch buffers are warm. CLUSTER_LOOKUP is the same
      // payload behind a u64 epoch, admitted by the RANK epoch rule.
      const bool stamped = frame.header.opcode == Opcode::kClusterLookup;
      std::uint64_t epoch = 0;
      auto count = stamped ? DecodeClusterLookupInto(payload, size, &epoch,
                                                     &r.batch_addrs)
                           : DecodeBatchLookupInto(payload, size,
                                                   &r.batch_addrs);
      if (!count.ok()) {
        metrics_.frames_rejected.Inc();
        QueueError(r, conn, ErrorCode::kMalformedPayload, count.error());
        return true;
      }
      const std::size_t batch = count.value();
      const std::span<const net::IpAddress> addresses(r.batch_addrs.data(),
                                                      batch);
      if (stamped &&
          !AdmitMappingRequest(r, conn, "CLUSTER_LOOKUP", epoch, addresses)) {
        return true;
      }
      if (r.batch_matches.size() < batch) r.batch_matches.resize(batch);
      r.mapping->LookupBatch(
          addresses, std::span<std::optional<bgp::PrefixTable::Match>>(
                         r.batch_matches.data(), batch));
      std::vector<std::uint8_t> wire;
      AppendBatchResultFrame(r.batch_matches.data(), batch, &wire);
      QueueFrame(r, conn, std::move(wire));
      metrics_.lookups_served.Inc(batch);
      r.metrics.lookups_served.Inc(batch);
      if (stamped) metrics_.cluster_lookups_served.Inc(batch);
      metrics_.lookup_service_ns.Record(engine::NowNs() - start_ns);
      return true;
    }

    case Opcode::kIngestUpdate: {
      auto req = DecodeIngest(payload, size);
      if (!req.ok()) {
        metrics_.frames_rejected.Inc();
        QueueError(r, conn, ErrorCode::kMalformedPayload, req.error());
        return true;
      }
      if (req.value().source_id >=
          static_cast<std::uint32_t>(
              config_.source_count < 0 ? 0 : config_.source_count)) {
        metrics_.frames_rejected.Inc();
        QueueError(r, conn, ErrorCode::kMalformedPayload,
                   "unknown ingest source id");
        return true;
      }
      IngestJob job;
      job.request = std::move(req).value();
      {
        base::MutexLock lock(&ingest_mu_);
        if (ingest_stopping_) {
          QueueError(r, conn, ErrorCode::kShuttingDown, "server is draining");
          return true;
        }
        if (ingest_queue_.size() >= config_.max_inflight_frames) {
          metrics_.busy_replies.Inc();
          r.metrics.busy_replies.Inc();
          QueueReply(r, conn, Opcode::kBusy, {});
          return true;
        }
        ingest_queue_.push_back(&job);
      }
      ingest_cv_.NotifyOne();
      // Control-plane wait: the reactor parks until the single ingest
      // thread has applied the update, so the ack it queues is a real
      // visibility guarantee. Lookups on OTHER reactors proceed
      // unimpeded; this reactor's arena is briefly paused, bounded by
      // the ingest queue cap.
      std::uint64_t version = 0;
      {
        base::MutexLock lock(&job.mu);
        while (!job.done) job.cv.Wait(job.mu);
        version = job.table_version;
      }
      QueueReply(r, conn, Opcode::kIngestAck,
                 EncodeIngestAck(IngestAck{version}));
      metrics_.ingests_applied.Inc();
      return true;
    }

    case Opcode::kStats: {
      if (size != 0) {
        metrics_.frames_rejected.Inc();
        QueueError(r, conn, ErrorCode::kMalformedPayload,
                   "STATS takes no payload");
        return true;
      }
      const std::string text = StatsText();
      metrics_.stats_served.Inc();
      QueueReply(r, conn, Opcode::kStatsText,
                 std::vector<std::uint8_t>(text.begin(), text.end()));
      return true;
    }

    case Opcode::kRank: {
      auto req = DecodeRank(payload, size);
      if (!req.ok()) {
        metrics_.frames_rejected.Inc();
        QueueError(r, conn, ErrorCode::kMalformedPayload, req.error());
        return true;
      }
      if (!AdmitMappingRequest(r, conn, "RANK", req.value().epoch,
                               {&req.value().address, 1})) {
        return true;
      }
      const auto match = r.mapping->Lookup(req.value().address);
      RankReply reply;
      reply.epoch = req.value().epoch;
      reply.cluster_as = match.has_value() ? match->origin_as : 0;
      if (const mapping::RankTable* table = config_.rank_table.get()) {
        const std::vector<std::uint16_t>* ranking =
            reply.cluster_as != 0 ? table->Ranking(reply.cluster_as) : nullptr;
        reply.servers =
            ranking != nullptr ? *ranking : table->default_ranking();
      }
      QueueReply(r, conn, Opcode::kRankReply, EncodeRankReply(reply));
      metrics_.ranks_served.Inc();
      metrics_.lookup_service_ns.Record(engine::NowNs() - start_ns);
      return true;
    }

    case Opcode::kTopology: {
      if (config_.cluster_node_id < 0) {
        metrics_.frames_rejected.Inc();
        QueueError(r, conn, ErrorCode::kUnsupportedOpcode,
                   "TOPOLOGY requires cluster mode");
        return true;
      }
      if (size != 0) {
        metrics_.frames_rejected.Inc();
        QueueError(r, conn, ErrorCode::kMalformedPayload,
                   "TOPOLOGY takes no payload");
        return true;
      }
      const auto topo = AcquireTopology();
      if (topo == nullptr) {
        metrics_.frames_rejected.Inc();
        QueueError(r, conn, ErrorCode::kMalformedPayload,
                   "no topology installed");
        return true;
      }
      QueueReply(r, conn, Opcode::kTopologyReply, EncodeTopology(topo->topo));
      metrics_.topologies_served.Inc();
      return true;
    }

    case Opcode::kSetTopology: {
      if (config_.cluster_node_id < 0) {
        metrics_.frames_rejected.Inc();
        QueueError(r, conn, ErrorCode::kUnsupportedOpcode,
                   "SET_TOPOLOGY requires cluster mode");
        return true;
      }
      auto topo = DecodeTopology(payload, size);
      if (!topo.ok()) {
        metrics_.frames_rejected.Inc();
        QueueError(r, conn, ErrorCode::kMalformedPayload, topo.error());
        return true;
      }
      auto installed = SetTopology(topo.value());
      if (!installed.ok()) {
        metrics_.frames_rejected.Inc();
        QueueError(r, conn, ErrorCode::kMalformedPayload, installed.error());
        return true;
      }
      QueueReply(r, conn, Opcode::kSetTopologyAck,
                 EncodeTopologyAck(topo.value().epoch));
      return true;
    }

    case Opcode::kClusterStats: {
      if (config_.cluster_node_id < 0) {
        metrics_.frames_rejected.Inc();
        QueueError(r, conn, ErrorCode::kUnsupportedOpcode,
                   "CLUSTER_STATS requires cluster mode");
        return true;
      }
      if (size != 0) {
        metrics_.frames_rejected.Inc();
        QueueError(r, conn, ErrorCode::kMalformedPayload,
                   "CLUSTER_STATS takes no payload");
        return true;
      }
      const ClusterStatsRecord record = BuildClusterStats(AcquireTopology());
      metrics_.cluster_stats_served.Inc();
      QueueReply(r, conn, Opcode::kClusterStatsReply,
                 EncodeClusterStats(record));
      return true;
    }

    default: {
      metrics_.frames_rejected.Inc();
      QueueError(r, conn, ErrorCode::kUnsupportedOpcode,
                 std::string("not a request opcode: ") +
                     OpcodeName(frame.header.opcode));
      return true;
    }
  }
}

void Server::IngestLoop() {
  // Thread main for the ingest thread: the one place ingest_role_ is
  // assumed, making this thread the only code path that can reach
  // ApplyIngest (and through it the engine's mutating routing-plane API).
  base::AssumeThreadRole own(ingest_role_);
  for (;;) {
    IngestJob* job = nullptr;
    {
      base::MutexLock lock(&ingest_mu_);
      while (ingest_queue_.empty() && !ingest_stopping_) {
        ingest_cv_.Wait(ingest_mu_);
      }
      if (ingest_queue_.empty()) return;  // stopping and fully drained
      job = ingest_queue_.front();
      ingest_queue_.pop_front();
    }
    ApplyIngest(job);
  }
}

void Server::ApplyIngest(IngestJob* job) {
  // This thread is the engine's single routing-plane caller while the
  // server runs (Engine's documented ingest-thread contract).
  if (!job->batch.empty()) {
    // A live-feed burst: one incremental publish covers the whole batch.
    (void)engine_->ApplyUpdateBatch(job->batch, job->batch_source);
  } else {
    engine_->ApplyUpdate(job->request.update,
                         static_cast<int>(job->request.source_id));
  }
  const std::uint64_t version = engine_->table_version();
  {
    base::MutexLock lock(&job->mu);
    job->done = true;
    job->table_version = version;
    // Notify while still holding job->mu: the job lives on the waiting
    // reactor's stack, and the reactor cannot return from Wait() (and
    // destroy the job) until this mutex is released — signalling after
    // unlocking would race the job's destruction.
    job->cv.NotifyAll();
  }
}

bool Server::SubmitLiveBatch(std::vector<bgp::UpdateMessage>* batch) {
  IngestJob job;
  job.batch = std::move(*batch);
  job.batch_source = config_.live_source_id;
  {
    base::MutexLock lock(&ingest_mu_);
    if (ingest_stopping_) return false;  // draining: abandon the burst
    ingest_queue_.push_back(&job);
  }
  ingest_cv_.NotifyOne();
  // One burst in flight at a time: the feeder's natural pacing is the
  // publish latency, so churn can never queue unboundedly behind lookups.
  {
    base::MutexLock lock(&job.mu);
    while (!job.done) job.cv.Wait(job.mu);
  }
  metrics_.live_batches.Inc();
  metrics_.live_updates.Inc(job.batch.size());
  batch->clear();
  return true;
}

void Server::LiveFeedLoop() {
  // Streamed in chunks: each batch publishes as soon as its records
  // arrive, so a collector's tail (or a FIFO) need not end first, and
  // memory stays bounded by one record plus one chunk. Non-blocking, so
  // opening a FIFO with no writer yet cannot wedge Stop().
  const int fd = ::open(config_.live_bgp4mp_path.c_str(),
                        O_RDONLY | O_CLOEXEC | O_NONBLOCK);
  if (fd < 0) {
    metrics_.live_decode_errors.Inc();
    return;
  }
  bgp::Bgp4mpStream stream;
  std::vector<std::uint8_t> chunk(64 * 1024);
  std::vector<bgp::UpdateMessage> batch;
  const std::size_t cap = std::max<std::size_t>(1, config_.live_batch_size);
  batch.reserve(cap);
  bool eof = false;
  // order: relaxed — pure stop flag, same contract as the reactor loop.
  while (!eof && !stopping_.load(std::memory_order_relaxed)) {
    // Readable, hung up, or a poll error that the read then reports.
    if (PollOne(fd, POLLIN, 100) != 0) {
      const ssize_t got = RetryRead(fd, chunk.data(), chunk.size());
      if (got > 0) {
        stream.Feed(chunk.data(), static_cast<std::size_t>(got));
      } else if (got == 0 || errno != EAGAIN) {
        stream.Finish();
        eof = true;
      }
    }
    while (auto event = stream.Next()) {
      if (event->kind == bgp::Bgp4mpEventKind::kStateChange) {
        // FSM transitions are churn-monitoring signal, not table mutations;
        // a session reset shows up as the withdraw burst that follows it.
        metrics_.live_state_changes.Inc();
        continue;
      }
      batch.push_back(std::move(event->update));
      if (batch.size() >= cap && !SubmitLiveBatch(&batch)) {
        CloseFd(fd);  // draining: abandon the feed
        return;
      }
    }
  }
  CloseFd(fd);
  if (eof && !batch.empty()) (void)SubmitLiveBatch(&batch);
  const bgp::Bgp4mpStats& stats = stream.stats();
  metrics_.live_decode_errors.Inc(stats.malformed_records +
                                  stats.truncated_records);
}

}  // namespace netclust::server
