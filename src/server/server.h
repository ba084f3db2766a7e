// netclustd service core: a TCP daemon serving cluster lookups from an
// engine::Engine over the src/server/proto.h wire protocol.
//
// Threading model (see DESIGN.md "Service layer" for the diagram):
//
//   * N shared-nothing reactors. Each reactor owns its own epoll
//     instance, its own SO_REUSEPORT listener on the shared port (the
//     kernel spreads accepts across them — no thundering herd, no
//     accept serialization), its own connection table, and its own
//     reusable batch-lookup buffers. A connection lives its whole life
//     on the reactor that accepted it, so the data plane takes no locks:
//     no shared connection map, no EPOLLONESHOT claim CAS, no cross-core
//     cache-line traffic per frame.
//   * BATCH_LOOKUP / CLUSTER_LOOKUP are answered on the owning reactor
//     via Engine::LookupBatch() — lock-free reads of the RCU-published
//     PrefixTable snapshot, never blocking on ingest. Both take the same
//     fast path end-to-end (CLUSTER_LOOKUP is a BATCH_LOOKUP behind an
//     epoch stamp): the frame payload is decoded straight out of the
//     FrameDecoder's buffer into the reactor's address vector, one
//     LookupBatch call resolves it, and the BATCH_RESULT frame is
//     appended directly to the connection's outgoing buffer
//     (AppendBatchResultFrame — no intermediate LookupRecord or payload
//     vector).
//   * Replies are queued on the connection and flushed with writev(2),
//     coalescing every frame produced by one readable burst into one
//     syscall. A flush that hits EAGAIN parks the remainder and arms
//     EPOLLOUT — a slow reader costs memory on its own connection, never
//     a blocked reactor.
//   * INGEST_UPDATE frames are forwarded to ONE ingest thread through a
//     bounded queue (the engine's routing-plane API is single-threaded by
//     contract). The reactor blocks until the ingest thread has applied
//     the update, then queues the IngestAck itself — so an ack in hand
//     guarantees later lookups see a table version >= the acked one.
//     Ingest is control-plane traffic; the wait is bounded by the queue
//     cap and does not sit on the lookup path.
//   * Idle/stalled connections are reaped by their own reactor between
//     epoll waits (the epoll timeout doubles as the sweep tick) — there
//     is no separate reaper thread and no claim handshake.
//
// Backpressure is explicit, never silent: over max_connections the
// accepting reactor writes one BUSY frame and closes; a full ingest
// queue or too many in-flight frames ON THAT REACTOR answers the
// offending frame with BUSY and keeps the connection open so the client
// can retry. max_inflight_frames is a per-reactor bound (each reactor is
// an independent arena); STATS exposes both the per-reactor gauges and
// their sum.
//
// Shutdown (Stop(), or SIGTERM in the daemon) is a graceful drain: stop
// accepting, let every decoded frame finish (including queued ingests),
// flush every queued reply within the write deadline, join the threads,
// then close what remains.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "base/sync.h"
#include "engine/engine.h"
#include "mapping/mapping_tier.h"
#include "mapping/rank_table.h"
#include "net/result.h"
#include "server/metrics.h"
#include "server/proto.h"

namespace netclust::server {

struct ServerConfig {
  /// TCP port to bind on loopback; 0 picks an ephemeral port (read it back
  /// with Server::port()).
  std::uint16_t port = 0;
  /// Reactor count (one epoll + listener + connection arena each);
  /// <= 0 selects 2.
  int reactors = 2;
  /// Accepted-connection ceiling across all reactors; the accepting
  /// reactor BUSY+closes beyond it.
  std::size_t max_connections = 64;
  /// Decoded-but-unanswered frame ceiling PER REACTOR (a reply still
  /// queued on a connection counts until it is flushed; this bounds the
  /// ingest queue too). Excess frames get BUSY replies.
  std::size_t max_inflight_frames = 128;
  /// Idle-connection reap threshold. <= 0 disables idle reaping only;
  /// read_timeout_ms stays enforced (the sweep runs while any timeout
  /// is positive).
  int idle_timeout_ms = 30'000;
  /// Deadline for a connection with queued reply bytes to make write
  /// progress; a peer that stops reading is cut off.
  int write_timeout_ms = 5'000;
  /// Deadline for draining a partially received frame once its first bytes
  /// have arrived (a peer that stalls mid-frame is cut off). <= 0 disables
  /// the mid-frame cutoff.
  int read_timeout_ms = 5'000;
  int listen_backlog = 64;
  /// SO_SNDBUF for accepted sockets; <= 0 keeps the kernel default. Tests
  /// shrink it to force EAGAIN on the reply path.
  int accepted_sndbuf_bytes = 0;
  /// Engine source ids in [0, source_count) are accepted from
  /// INGEST_UPDATE frames; others get a malformed-payload ERROR. The
  /// daemon sets this to the number of sources it registered.
  int source_count = 0;
  /// This node's cluster id, or < 0 for standalone mode. Standalone
  /// servers serve CLUSTER_LOOKUP and RANK at epoch 0 only and answer
  /// TOPOLOGY, SET_TOPOLOGY and CLUSTER_STATS with an unsupported-opcode
  /// ERROR.
  std::int64_t cluster_node_id = -1;
  /// Per-reactor mapping-cache capacity in /24 entries; 0 disables the
  /// tier (lookups go straight to the engine, exactly the pre-tier path).
  std::size_t mapping_cache_capacity = 0;
  /// CDN server rankings served by RANK. May be null (no ranking
  /// installed: RANK answers an empty list). Installed before Serve() and
  /// immutable afterwards; reactors only read it.
  std::shared_ptr<const mapping::RankTable> rank_table;
  /// Path to an MRT BGP4MP file replayed as a live churn feed
  /// (netclustd --live-bgp4mp). Empty disables the feeder. The feeder
  /// thread decodes announce/withdraw/state-change records and hands
  /// UPDATE bursts to the single ingest thread, which publishes each
  /// burst as one incremental table snapshot.
  std::string live_bgp4mp_path;
  /// Engine source id the live feed's announcements are attributed to
  /// (must be registered with the engine before Serve()).
  int live_source_id = 0;
  /// Updates coalesced into one engine publish by the live feeder.
  std::size_t live_batch_size = 64;
};

class Server {
 public:
  /// `engine` must outlive the server and must already be Start()ed; once
  /// Serve() returns OK the server's ingest thread is the engine's single
  /// routing-plane caller until Stop() completes.
  Server(engine::Engine* engine, ServerConfig config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds one SO_REUSEPORT listener per reactor, spawns the reactor and
  /// ingest threads. Returns the bound port.
  [[nodiscard]] Result<std::uint16_t> Serve();

  /// Graceful drain: stop accepting, finish in-flight frames, flush
  /// queued replies, join all threads, close remaining connections.
  /// Idempotent; the destructor calls it.
  void Stop();

  /// Bound port (valid after Serve()).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  [[nodiscard]] const ServerMetrics& metrics() const { return metrics_; }

  /// Reactors actually running (valid after Serve()).
  [[nodiscard]] std::size_t reactor_count() const { return reactors_.size(); }

  /// Reactor `i`'s own counters — which listener a connection landed on,
  /// how much it served, its current inflight gauge. Tests use the deltas
  /// to discover the (kernel-chosen) connection->reactor assignment.
  [[nodiscard]] const ReactorMetrics& reactor_metrics(std::size_t i) const {
    return reactors_[i]->metrics;
  }

  /// Reactor `i`'s mapping-tier counters (hit/miss/insert/evict/flush).
  [[nodiscard]] const mapping::MappingCounters& mapping_counters(
      std::size_t i) const {
    return reactors_[i]->mapping_metrics;
  }

  /// Plain-text STATS body: server exposition (including the per-reactor
  /// inflight gauges and their sum) + engine exposition.
  [[nodiscard]] std::string StatsText() const;

  /// Installs `topo` as the routing truth for cluster dispatch. Requires
  /// cluster mode (cluster_node_id >= 0) and an epoch strictly newer than
  /// the installed one (equal epoch + identical topology is an idempotent
  /// no-op). This node may be absent from `topo` — a drained node keeps
  /// serving REDIRECTs so stragglers learn the new epoch. Thread-safe;
  /// also reachable over the wire via SET_TOPOLOGY.
  [[nodiscard]] Result<bool> SetTopology(const Topology& topo);

  /// The installed topology, or an empty optional before the first
  /// SetTopology(). Thread-safe.
  [[nodiscard]] std::optional<Topology> CurrentTopology() const;

 private:
  /// An installed topology plus its per-/16-block owner map, published as
  /// an immutable snapshot so cluster frames take one shared_ptr copy
  /// instead of holding topo_mu_ across engine lookups.
  struct CompiledTopology {
    Topology topo;
    std::vector<std::uint16_t> owner;  // kShardBlockCount entries
    int self_index = -1;               // this node's index, -1 if absent
  };

  /// One accepted connection. Owned by exactly one reactor's table and
  /// touched only from that reactor's thread — every member is plain.
  struct Connection {
    int fd = -1;
    FrameDecoder decoder;
    /// Reply frames not yet fully written, oldest first. outq.front() may
    /// be partially flushed (out_off bytes already on the wire).
    std::deque<std::vector<std::uint8_t>> outq;
    std::size_t out_off = 0;
    /// True while EPOLLOUT is armed (outq non-empty after an EAGAIN).
    bool want_write = false;
    /// Last byte received (idle/read-stall sweep).
    std::int64_t last_activity_ms = 0;
    /// Last write progress while outq is non-empty (write-stall sweep).
    std::int64_t last_write_progress_ms = 0;
  };

  /// One shared-nothing event loop: epoll + listener + wake descriptor +
  /// connection arena + reusable batch buffers, all owned by one thread.
  ///
  /// The ownership claim is compiler-enforced: `role` is the reactor's
  /// thread capability (base::ThreadRole), every member the loop thread
  /// owns is ONLY_THREAD(role), and every reactor-path method REQUIRES
  /// it. Serve()/Stop() assert the role only at quiescent points (before
  /// the thread is spawned / after it is joined), each with a comment
  /// saying why no other thread can race — see DESIGN.md "Static
  /// analysis".
  struct Reactor {
    std::size_t index = 0;
    /// Ownership capability: held (via base::AssumeThreadRole) by the one
    /// thread allowed to touch the ONLY_THREAD members below.
    base::ThreadRole role;
    int epoll_fd ONLY_THREAD(role) = -1;
    int listen_fd ONLY_THREAD(role) = -1;
    /// eventfd; deliberately NOT role-guarded: Stop() writes it from the
    /// caller's thread to interrupt the loop's epoll_wait while the
    /// reactor thread is still running. Set before spawn, closed after
    /// join, written (8-byte counter add) cross-thread in between — the
    /// one sanctioned cross-thread touch of reactor state.
    int wake_fd = -1;
    std::unordered_map<int, std::unique_ptr<Connection>> conns
        ONLY_THREAD(role);
    /// BATCH_LOOKUP scratch, reused across frames: the decoded addresses
    /// and the engine's answers live here, capacity warm after the first
    /// big batch.
    std::vector<net::IpAddress> batch_addrs ONLY_THREAD(role);
    std::vector<std::optional<bgp::PrefixTable::Match>> batch_matches
        ONLY_THREAD(role);
    /// The reactor's private mapping cache (client /24 -> lookup answer),
    /// fronting the engine on the BATCH_LOOKUP/CLUSTER_LOOKUP/RANK paths.
    /// Shared-nothing like everything else here; constructed before spawn
    /// at a quiescent point.
    std::unique_ptr<mapping::MappingTier> mapping ONLY_THREAD(role);
    /// Atomics by design: only the loop thread bumps them, but STATS
    /// scrapes read them from whichever reactor serves the frame.
    ReactorMetrics metrics;
    /// Mapping-tier counters; same cross-thread-read contract as
    /// `metrics` (single writer: the loop thread; readers: STATS).
    mapping::MappingCounters mapping_metrics;
    std::thread thread;
  };

  /// A decoded INGEST_UPDATE (or a live-feed burst) parked for the ingest
  /// thread. The submitter waits on `done`; a reactor then queues the ack
  /// itself, the live feeder just moves on to the next burst.
  struct IngestJob {
    IngestRequest request;  // single-update wire path (batch empty)
    /// Live-feed burst; non-empty selects Engine::ApplyUpdateBatch with
    /// `batch_source` attribution instead of the wire request above.
    std::vector<bgp::UpdateMessage> batch;
    int batch_source = 0;
    base::Mutex mu;
    base::CondVar cv;
    bool done GUARDED_BY(mu) = false;
    std::uint64_t table_version GUARDED_BY(mu) = 0;
  };

  /// Thread main for reactor `r`: asserts r.role once (it IS the owning
  /// thread) and runs the event loop until Stop() drains it.
  void ReactorLoop(Reactor& r);
  void IngestLoop();

  /// Thread main for the --live-bgp4mp feeder: decodes the configured
  /// MRT file with bgp::Bgp4mpStream and submits UPDATE bursts to the
  /// ingest thread (one publish per burst). Exits when the file is fully
  /// replayed or Stop() begins. Never touches the engine directly — the
  /// single-ingest-thread contract stays with IngestLoop.
  void LiveFeedLoop();

  /// Parks one live burst on the ingest queue and waits for the ingest
  /// thread to publish it. Returns false when the server is draining
  /// (the burst is abandoned). Consumes and clears *batch.
  bool SubmitLiveBatch(std::vector<bgp::UpdateMessage>* batch);

  /// Applies one parked INGEST_UPDATE to the engine and signals the
  /// waiting reactor. The REQUIRES makes the engine's single routing-plane
  /// caller contract compiler-visible: only code holding ingest_role_ (the
  /// ingest thread, via IngestLoop's assertion) may reach the engine's
  /// mutating API through the server.
  void ApplyIngest(IngestJob* job) REQUIRES(ingest_role_);

  /// Accepts until EAGAIN on `r`'s listener; enforces max_connections
  /// (global gauge) with BUSY+close.
  void AcceptNew(Reactor& r) REQUIRES(r.role);

  /// Services one readable connection: drain the socket, decode and
  /// dispatch every complete frame, then flush the replies in one writev.
  void ServiceReadable(Reactor& r, Connection* conn) REQUIRES(r.role);

  /// Dispatches one decoded frame; the reply is appended to conn->outq.
  /// Returns false when the connection must be closed (protocol
  /// violation) — the caller flushes best-effort, then closes.
  [[nodiscard]] bool DispatchFrame(Reactor& r, Connection* conn,
                                   const FrameView& frame) REQUIRES(r.role);

  /// The one epoch rule for CLUSTER_LOOKUP and RANK. Standalone servers
  /// demand a zero epoch; cluster nodes demand their current epoch and
  /// ownership of every address (REDIRECT kStaleEpoch / kNotOwner
  /// otherwise). Returns true when the request may be served — at the
  /// request's own epoch; false when the redirect or error reply has
  /// already been queued.
  [[nodiscard]] bool AdmitMappingRequest(
      Reactor& r, Connection* conn, const char* opcode_name,
      std::uint64_t epoch, std::span<const net::IpAddress> addresses)
      REQUIRES(r.role);

  /// Appends one encoded reply frame to the connection's queue and bumps
  /// the reactor's inflight gauge (released as the frame flushes).
  void QueueFrame(Reactor& r, Connection* conn,
                  std::vector<std::uint8_t> wire) REQUIRES(r.role);
  void QueueReply(Reactor& r, Connection* conn, Opcode opcode,
                  const std::vector<std::uint8_t>& payload) REQUIRES(r.role);
  void QueueError(Reactor& r, Connection* conn, ErrorCode code,
                  const std::string& message) REQUIRES(r.role);

  /// Gathers conn->outq into writev until drained or EAGAIN (which arms
  /// EPOLLOUT). Returns false on a fatal write error (peer gone).
  [[nodiscard]] bool FlushConnection(Reactor& r, Connection* conn)
      REQUIRES(r.role);

  /// Removes the connection from the reactor's epoll + table and closes
  /// it, releasing any still-queued inflight frames.
  void CloseConnection(Reactor& r, Connection* conn, engine::Counter* reason)
      REQUIRES(r.role);

  /// Best-effort bounded flush of whatever is queued (error replies on a
  /// closing connection; drain). Blocking with the write deadline.
  void FlushBlocking(Reactor& r, Connection* conn) REQUIRES(r.role);

  /// One pass over `r`'s connections enforcing the idle / read-stall /
  /// write-stall deadlines. Runs between epoll waits on `r`'s thread.
  void SweepTimeouts(Reactor& r, std::int64_t now_ms) REQUIRES(r.role);

  engine::Engine* const engine_;
  const ServerConfig config_;
  mutable ServerMetrics metrics_;

  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  bool serving_ = false;  // main-thread lifecycle flag (Serve()/Stop())
  /// Per-reactor decoded-but-unflushed ceiling (config, resolved once).
  std::int64_t max_inflight_ = 0;

  /// Live connection count across reactors, for the max_connections
  /// check on accept. The one cross-reactor atomic on the accept path;
  /// the lookup path never touches it.
  std::atomic<std::int64_t> connections_total_{0};

  /// Current compiled topology under topo_mu_; null until SetTopology().
  [[nodiscard]] std::shared_ptr<const CompiledTopology> AcquireTopology() const;

  /// Snapshot of this node's counters for a CLUSTER_STATS rollup.
  [[nodiscard]] ClusterStatsRecord BuildClusterStats(
      const std::shared_ptr<const CompiledTopology>& topo) const;

  mutable base::Mutex topo_mu_;
  std::shared_ptr<const CompiledTopology> topology_ GUARDED_BY(topo_mu_);

  base::Mutex ingest_mu_;
  base::CondVar ingest_cv_;
  std::deque<IngestJob*> ingest_queue_ GUARDED_BY(ingest_mu_);
  bool ingest_stopping_ GUARDED_BY(ingest_mu_) = false;

  /// Capability of the server's single ingest thread — the engine's one
  /// routing-plane caller while the server runs (see the constructor
  /// contract). IngestLoop asserts it; ApplyIngest REQUIRES it.
  base::ThreadRole ingest_role_;

  std::thread ingest_thread_;
  /// The --live-bgp4mp feeder thread (joined by Stop() before the ingest
  /// thread shuts down, since its bursts ride the ingest queue).
  std::thread live_thread_;
};

}  // namespace netclust::server
